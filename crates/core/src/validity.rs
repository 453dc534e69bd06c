//! The page-validity store abstraction.
//!
//! All FTLs in the paper's evaluation differ in *where and how* they keep
//! track of invalid flash pages: a RAM-resident PVB (DFTL, LazyFTL), a
//! flash-resident PVB (µ-FTL), a page validity log (IB-FTL) or Logarithmic
//! Gecko (GeckoFTL). [`ValidityStore`] is the common interface: the FTL
//! engine reports invalidations and erases, and asks at garbage-collection
//! time which pages of a victim block are invalid.
//!
//! Flash-resident stores need somewhere to put their pages; [`MetaSink`]
//! abstracts the block manager so the stores stay independently testable.

use crate::gecko::entry::Bitmap;
use flash_sim::{BlockId, FlashDevice, IoPurpose, MetaKind, MetaTag, PageData, Ppn};

/// Where flash-resident metadata pages get written, and who to tell when an
/// old metadata page becomes obsolete.
///
/// Implemented by the FTL's block manager; simple test sinks exist for
/// exercising stores in isolation.
pub trait MetaSink {
    /// Append a metadata page to the active block of the `kind` group and
    /// return its physical address.
    fn append_meta(
        &mut self,
        dev: &mut FlashDevice,
        kind: MetaKind,
        tag: MetaTag,
        data: PageData,
        purpose: IoPurpose,
    ) -> Ppn;

    /// Report that a previously written metadata page is now obsolete
    /// (superseded or part of a discarded run).
    fn meta_page_obsolete(&mut self, dev: &mut FlashDevice, ppn: Ppn);
}

/// A page-validity store: the component every FTL uses to track invalid
/// pages of **user blocks**.
pub trait ValidityStore {
    /// Report that physical page `ppn` no longer holds live data
    /// (Algorithm 1 for Logarithmic Gecko; a bitmap update for PVB).
    fn mark_invalid(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, ppn: Ppn);

    /// Report a batch of invalidations *atomically with respect to flush
    /// generations*: either all land in the same flush or all stay buffered.
    /// A synchronization operation's before-images must use this — if a
    /// flush fired mid-batch, the tail of the batch would be lost by a crash
    /// while recovery's version-diff (App. C.2.2) skips the sync because its
    /// translation page predates the flush.
    fn mark_invalid_batch(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, ppns: &[Ppn]) {
        for &p in ppns {
            self.mark_invalid(dev, sink, p);
        }
    }

    /// Report that `block` has been erased: all validity information
    /// recorded for it before this call is obsolete (Algorithm 2).
    fn note_erase(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, block: BlockId);

    /// GC query: return the invalid-page bitmap for `block` (bit set ⇒ page
    /// invalid), as of all reports made so far.
    fn gc_query(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        block: BlockId,
    ) -> Bitmap;

    /// [`ValidityStore::gc_query`] for each of `blocks`, in input order. No
    /// store overrides it and the engine asks one query per victim; it
    /// exists because the repo benchmark's adapter names it
    /// (`gecko.drive_gc_query_batch8_ns`; ROADMAP item 6 removes both).
    fn gc_query_batch(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        blocks: &[BlockId],
    ) -> Vec<Bitmap> {
        blocks
            .iter()
            .map(|b| self.gc_query(dev, sink, *b))
            .collect()
    }

    /// Integrated-RAM footprint of the store's RAM-resident state, in bytes,
    /// using the paper's accounting (Appendix B).
    fn ram_bytes(&self) -> u64;

    /// The metadata block kind this store can garbage-collect by migrating
    /// live pages (`None` if its blocks must never be picked as greedy GC
    /// victims — e.g. Gecko runs, which are only erased when fully invalid,
    /// and the PVL, which bounds itself through cleaning).
    fn collectable_meta(&self) -> Option<flash_sim::MetaKind> {
        None
    }

    /// Migrate the live pages of one of this store's metadata blocks so the
    /// engine can erase it (greedy GC of flash-resident PVB pages, µ-FTL).
    /// Only called for blocks of the [`ValidityStore::collectable_meta`]
    /// kind.
    fn collect_meta_block(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        block: BlockId,
    ) {
        let _ = (dev, sink, block);
        unreachable!("store declared no collectable metadata");
    }

    /// Persist any RAM-buffered state to flash (clean shutdown, or bounding
    /// work before measurements).
    fn flush(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        let _ = (dev, sink);
    }
}

/// A trivial [`MetaSink`] for store unit tests: writes metadata pages into a
/// fixed pool of blocks round-robin, erasing and reusing a block once every
/// page in it has been reported obsolete (a miniature erase-when-empty
/// block manager).
///
/// Panics when no block is reusable — tests should provision enough blocks.
#[derive(Debug)]
pub struct FlatMetaSink {
    blocks: Vec<BlockId>,
    current: usize,
    /// Per provisioned block: obsolete-page count since last erase.
    obsolete_count: Vec<u32>,
    /// Total obsolete reports, for assertions.
    pub obsoleted: u64,
}

impl FlatMetaSink {
    /// A sink writing into the given blocks in order.
    pub fn new(blocks: Vec<BlockId>) -> Self {
        let n = blocks.len();
        FlatMetaSink {
            blocks,
            current: 0,
            obsolete_count: vec![0; n],
            obsoleted: 0,
        }
    }
}

impl MetaSink for FlatMetaSink {
    fn append_meta(
        &mut self,
        dev: &mut FlashDevice,
        kind: MetaKind,
        tag: MetaTag,
        data: PageData,
        purpose: IoPurpose,
    ) -> Ppn {
        let n = self.blocks.len();
        for _ in 0..=n {
            let block = self.blocks[self.current];
            if dev.block_is_full(block) {
                // Fully obsolete? Erase and reuse.
                if self.obsolete_count[self.current] == dev.geometry().pages_per_block {
                    dev.erase_block(block, purpose).expect("erase meta block");
                    self.obsolete_count[self.current] = 0;
                } else {
                    self.current = (self.current + 1) % n;
                    continue;
                }
            }
            return dev
                .write_page(
                    block,
                    data,
                    flash_sim::SpareInfo::Meta { kind, tag },
                    purpose,
                )
                .expect("append to non-full block succeeds");
        }
        panic!("FlatMetaSink: no reusable block among {n} provisioned");
    }

    fn meta_page_obsolete(&mut self, dev: &mut FlashDevice, ppn: Ppn) {
        self.obsoleted += 1;
        let block = dev.geometry().block_of(ppn);
        if let Some(i) = self.blocks.iter().position(|b| *b == block) {
            self.obsolete_count[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::Geometry;

    #[test]
    fn flat_sink_fills_blocks_in_order() {
        let geo = Geometry::tiny();
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new(vec![BlockId(0), BlockId(1)]);
        let mut last = None;
        for i in 0..(geo.pages_per_block + 2) {
            let ppn = sink.append_meta(
                &mut dev,
                MetaKind::GeckoRun,
                MetaTag::Id(i as u64),
                PageData::blob_of(i),
                IoPurpose::ValidityUpdate,
            );
            if let Some(prev) = last {
                assert!(ppn > prev, "appends must advance");
            }
            last = Some(ppn);
        }
        assert_eq!(dev.geometry().block_of(last.unwrap()), BlockId(1));
    }
}
