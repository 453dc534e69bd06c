//! The Page Validity Log of IB-FTL (paper §6 "Page Validity Metadata" and
//! Appendix E).
//!
//! IB-FTL logs the addresses of invalidated pages in flash. Entries carry a
//! timestamp (the paper's Appendix E extension) so the log can be *cleaned*:
//! when it grows past `X = 2·D` entries (`D` = over-provisioned pages, an
//! upper bound on simultaneously-invalid pages), the oldest log page is
//! reclaimed — entries newer than their block's last erase are reinserted,
//! the rest discarded. Each entry is reinserted on average once, so cleaning
//! costs `O(1/V)` writes per update.
//!
//! The original design chains log entries of the same block with linked-list
//! pointers whose heads live in RAM. We keep the RAM *accounting* of that
//! design (two words per block: chain head + erase timestamp) but index the
//! chains as per-block sets of log pages, which reads the same pages a chain
//! walk would while avoiding the dangling-pointer problem the paper's
//! cleaning extension leaves open (see docs/DESIGN.md, "Deviations").

use flash_sim::{BlockId, FlashDevice, Geometry, IoPurpose, MetaKind, MetaTag, PageData, Ppn};
use geckoftl_core::gecko::Bitmap;
use geckoftl_core::validity::{MetaSink, ValidityStore};
use std::collections::{BTreeSet, HashMap};

/// One log record: a page that became invalid, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PvlEntry {
    /// The invalidated physical page.
    pub ppn: Ppn,
    /// Device sequence number of the invalidation report.
    pub ts: u64,
}

/// Payload of one log page in flash.
#[derive(Clone, Debug)]
pub struct PvlPagePayload {
    /// Monotonic log-page sequence number.
    pub index: u64,
    /// The packed log records.
    pub entries: Vec<PvlEntry>,
}

/// The flash-resident page validity log with its RAM-resident index.
#[derive(Debug)]
pub struct PvlStore {
    geo: Geometry,
    /// RAM write buffer (one page worth of entries).
    buffer: Vec<PvlEntry>,
    /// Entries per log page.
    entries_per_page: u32,
    /// Flash-resident log pages, oldest first: `(index, ppn, live entries)`.
    pages: Vec<(u64, Ppn)>,
    next_index: u64,
    /// Per-block: which log pages hold entries for the block (the chain).
    chains: HashMap<BlockId, BTreeSet<u64>>,
    /// Per-block last-erase timestamp (RAM, per Appendix E).
    erase_ts: Vec<u64>,
    /// Cleaning threshold in entries (`X = 2·D`).
    max_entries: u64,
    /// Entries currently in flash (excluding the buffer).
    flash_entries: u64,
}

impl PvlStore {
    /// An empty log for a device geometry, with the Appendix-E bound
    /// `X = 2·D`.
    pub fn new(geo: Geometry) -> Self {
        let entry_bytes = 16; // 4B ppn + 8B timestamp + 4B chain pointer
        let entries_per_page = (geo.page_bytes - 32) / entry_bytes;
        PvlStore {
            geo,
            buffer: Vec::new(),
            entries_per_page,
            pages: Vec::new(),
            next_index: 0,
            chains: HashMap::new(),
            erase_ts: vec![0; geo.blocks as usize],
            max_entries: 2 * geo.overprovisioned_pages(),
            flash_entries: 0,
        }
    }

    /// Entries per log page (`V` for the log).
    pub fn entries_per_page(&self) -> u32 {
        self.entries_per_page
    }

    /// Total live entries (flash + buffer).
    pub fn len(&self) -> u64 {
        self.flash_entries + self.buffer.len() as u64
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, entry: PvlEntry) {
        self.buffer.push(entry);
        if self.buffer.len() >= self.entries_per_page as usize {
            self.flush_buffer(dev, sink);
            self.maybe_clean(dev, sink);
        }
    }

    fn flush_buffer(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        if self.buffer.is_empty() {
            return;
        }
        let index = self.next_index;
        self.next_index += 1;
        let entries = std::mem::take(&mut self.buffer);
        self.flash_entries += entries.len() as u64;
        for e in &entries {
            self.chains
                .entry(self.geo.block_of(e.ppn))
                .or_default()
                .insert(index);
        }
        let ppn = sink.append_meta(
            dev,
            MetaKind::Pvl,
            MetaTag::Id(index),
            PageData::blob_of(PvlPagePayload { index, entries }),
            IoPurpose::ValidityUpdate,
        );
        self.pages.push((index, ppn));
    }

    /// Appendix-E cleaning: reclaim the oldest log page while over budget.
    ///
    /// Bounded to one pass over the log per invocation: if nothing in the
    /// scanned pages is obsolete (fewer erases than the X = 2·D sizing
    /// assumes), reinsertion makes no net progress and the loop must yield
    /// rather than churn forever.
    fn maybe_clean(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        let mut budget = self.pages.len();
        while self.flash_entries > self.max_entries && self.pages.len() > 1 && budget > 0 {
            budget -= 1;
            let (index, ppn) = self.pages.remove(0);
            let payload = dev
                .read_page(ppn, IoPurpose::ValidityMerge)
                .expect("log page readable")
                .blob::<PvlPagePayload>()
                .expect("pvl payload")
                .clone();
            self.flash_entries -= payload.entries.len() as u64;
            for e in &payload.entries {
                let block = self.geo.block_of(e.ppn);
                if let Some(chain) = self.chains.get_mut(&block) {
                    chain.remove(&index);
                    if chain.is_empty() {
                        self.chains.remove(&block);
                    }
                }
                // Reinsert entries newer than their block's last erase; the
                // rest are obsolete.
                if e.ts > self.erase_ts[block.0 as usize] {
                    self.buffer.push(*e);
                }
            }
            sink.meta_page_obsolete(dev, ppn);
            if self.buffer.len() >= self.entries_per_page as usize {
                self.flush_buffer(dev, sink);
            }
        }
    }
}

impl ValidityStore for PvlStore {
    fn mark_invalid(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, ppn: Ppn) {
        let ts = dev.now_seq();
        self.push(dev, sink, PvlEntry { ppn, ts });
    }

    fn note_erase(&mut self, dev: &mut FlashDevice, _sink: &mut dyn MetaSink, block: BlockId) {
        // Drop the chain head (RAM) and remember the erase time so cleaning
        // can discard the block's stale records.
        self.erase_ts[block.0 as usize] = dev.now_seq();
        self.chains.remove(&block);
        self.buffer.retain(|e| self.geo.block_of(e.ppn) != block);
    }

    fn gc_query(
        &mut self,
        dev: &mut FlashDevice,
        _sink: &mut dyn MetaSink,
        block: BlockId,
    ) -> Bitmap {
        let b = self.geo.pages_per_block;
        let mut bm = Bitmap::new(b);
        let erase_ts = self.erase_ts[block.0 as usize];
        for e in &self.buffer {
            if self.geo.block_of(e.ppn) == block && e.ts > erase_ts {
                bm.set(self.geo.offset_of(e.ppn).0);
            }
        }
        let Some(chain) = self.chains.get(&block) else {
            return bm;
        };
        let page_of: HashMap<u64, Ppn> = self.pages.iter().copied().collect();
        for index in chain.iter().rev() {
            let ppn = page_of[index];
            let data = dev
                .read_page(ppn, IoPurpose::ValidityQuery)
                .expect("log page readable");
            let payload = data.blob::<PvlPagePayload>().expect("pvl payload");
            for e in &payload.entries {
                if self.geo.block_of(e.ppn) == block && e.ts > erase_ts {
                    bm.set(self.geo.offset_of(e.ppn).0);
                }
            }
        }
        bm
    }

    fn ram_bytes(&self) -> u64 {
        // Paper accounting: one chain-head pointer plus one erase timestamp
        // per block.
        8 * self.geo.blocks as u64
    }

    fn flush(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        self.flush_buffer(dev, sink);
        self.maybe_clean(dev, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geckoftl_core::validity::FlatMetaSink;

    fn setup() -> (FlashDevice, FlatMetaSink, PvlStore, Geometry) {
        let geo = Geometry::tiny();
        (
            FlashDevice::new(geo),
            FlatMetaSink::new((40..64).map(BlockId).collect()),
            PvlStore::new(geo),
            geo,
        )
    }

    #[test]
    fn logged_invalidations_are_queryable() {
        let (mut dev, mut sink, mut pvl, _geo) = setup();
        for p in [3u32, 17, 18, 100] {
            pvl.mark_invalid(&mut dev, &mut sink, Ppn(p));
        }
        // Force everything to flash and query.
        geckoftl_core::validity::ValidityStore::flush(&mut pvl, &mut dev, &mut sink);
        let bm = pvl.gc_query(&mut dev, &mut sink, BlockId(1));
        assert!(bm.get(1) && bm.get(2));
        assert!(!bm.get(3));
        assert!(pvl.gc_query(&mut dev, &mut sink, BlockId(0)).get(3));
    }

    #[test]
    fn erase_supersedes_older_entries() {
        let (mut dev, mut sink, mut pvl, _geo) = setup();
        pvl.mark_invalid(&mut dev, &mut sink, Ppn(16));
        geckoftl_core::validity::ValidityStore::flush(&mut pvl, &mut dev, &mut sink);
        pvl.note_erase(&mut dev, &mut sink, BlockId(1));
        dev.erase_block(BlockId(1), IoPurpose::GcMigrateUser)
            .unwrap();
        assert!(pvl.gc_query(&mut dev, &mut sink, BlockId(1)).is_empty());
        // A page must be rewritten (advancing the device clock) before it
        // can become invalid again; such invalidations are visible.
        dev.write_page(
            BlockId(1),
            PageData::User {
                lpn: flash_sim::Lpn(9),
                version: 1,
            },
            flash_sim::SpareInfo::User {
                lpn: flash_sim::Lpn(9),
                before: None,
            },
            IoPurpose::UserWrite,
        )
        .unwrap();
        pvl.mark_invalid(&mut dev, &mut sink, Ppn(16));
        assert!(pvl.gc_query(&mut dev, &mut sink, BlockId(1)).get(0));
    }

    #[test]
    fn cleaning_bounds_log_size() {
        let geo = Geometry::tiny();
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((32..64).map(BlockId).collect());
        let mut pvl = PvlStore::new(geo);
        // Shrink the budget so cleaning kicks in quickly.
        pvl.max_entries = 64;
        // Repeatedly invalidate and "erase" so most entries become obsolete.
        for round in 0..50u32 {
            let block = BlockId(round % 8);
            for off in 0..8 {
                pvl.mark_invalid(&mut dev, &mut sink, Ppn(block.0 * 16 + off));
            }
            pvl.note_erase(&mut dev, &mut sink, block);
        }
        assert!(
            pvl.len() <= pvl.max_entries + pvl.entries_per_page() as u64,
            "log holds {} entries (budget {})",
            pvl.len(),
            pvl.max_entries
        );
    }

    #[test]
    fn cleaning_terminates_when_nothing_is_obsolete() {
        // No erases ever: every entry is live, so cleaning can make no
        // progress; it must yield instead of looping forever.
        let geo = Geometry::tiny();
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((32..64).map(BlockId).collect());
        let mut pvl = PvlStore::new(geo);
        pvl.max_entries = 8; // far below the live count we create
        for p in 0..512u32 {
            pvl.mark_invalid(&mut dev, &mut sink, Ppn(p));
        }
        assert!(pvl.len() >= 512, "nothing was discardable");
    }

    #[test]
    fn buffered_updates_amortize_writes() {
        let (mut dev, mut sink, mut pvl, _geo) = setup();
        let v = pvl.entries_per_page();
        for p in 0..v - 1 {
            pvl.mark_invalid(&mut dev, &mut sink, Ppn(p % 512));
        }
        assert_eq!(dev.stats().counts(IoPurpose::ValidityUpdate).page_writes, 0);
        pvl.mark_invalid(&mut dev, &mut sink, Ppn(0));
        assert_eq!(dev.stats().counts(IoPurpose::ValidityUpdate).page_writes, 1);
    }
}
