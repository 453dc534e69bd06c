//! Page Validity Bitmaps: the two baseline stores of Table 1.
//!
//! * [`RamPvb`] keeps one bit per physical page in integrated RAM (DFTL,
//!   LazyFTL). Zero IO, `O(B·K)` bits of RAM: the scalability bottleneck the
//!   paper identifies (64 MB for a 2 TB device).
//! * [`FlashPvb`] keeps the bitmap in flash (µ-FTL): every update is a
//!   read-modify-write of one PVB page (`1 + 1/δ` write-amplification), a GC
//!   query is one page read, and only a small segment directory stays in
//!   RAM.

use flash_sim::{
    BlockId, FlashDevice, Geometry, IoPurpose, MetaKind, MetaTag, PageData, PageOffset, Ppn,
};
use geckoftl_core::gecko::Bitmap;
use geckoftl_core::validity::{MetaSink, ValidityStore};

/// RAM-resident Page Validity Bitmap.
#[derive(Clone, Debug)]
pub struct RamPvb {
    geo: Geometry,
    /// One bit per physical page, grouped by block (bit set ⇒ invalid).
    words: Vec<u64>,
}

impl RamPvb {
    /// An all-valid bitmap for a device geometry.
    pub fn new(geo: Geometry) -> Self {
        let bits = geo.total_pages();
        RamPvb {
            geo,
            words: vec![0; bits.div_ceil(64) as usize],
        }
    }

    fn set(&mut self, ppn: Ppn) {
        self.words[(ppn.0 / 64) as usize] |= 1 << (ppn.0 % 64);
    }

    fn get(&self, ppn: Ppn) -> bool {
        self.words[(ppn.0 / 64) as usize] >> (ppn.0 % 64) & 1 == 1
    }

    fn clear_block(&mut self, block: BlockId) {
        let b = self.geo.pages_per_block;
        for off in 0..b {
            let ppn = self.geo.ppn(block, PageOffset(off));
            self.words[(ppn.0 / 64) as usize] &= !(1 << (ppn.0 % 64));
        }
    }
}

impl ValidityStore for RamPvb {
    fn mark_invalid(&mut self, _dev: &mut FlashDevice, _sink: &mut dyn MetaSink, ppn: Ppn) {
        self.set(ppn);
    }

    fn note_erase(&mut self, _dev: &mut FlashDevice, _sink: &mut dyn MetaSink, block: BlockId) {
        self.clear_block(block);
    }

    fn gc_query(
        &mut self,
        _dev: &mut FlashDevice,
        _sink: &mut dyn MetaSink,
        block: BlockId,
    ) -> Bitmap {
        let b = self.geo.pages_per_block;
        let mut bm = Bitmap::new(b);
        for off in 0..b {
            if self.get(self.geo.ppn(block, PageOffset(off))) {
                bm.set(off);
            }
        }
        bm
    }

    fn ram_bytes(&self) -> u64 {
        // B·K / 8 (paper §2): the dominant RAM consumer.
        self.geo.total_pages() / 8
    }
}

/// Payload of one flash-resident PVB page.
#[derive(Clone, Debug)]
pub struct PvbPagePayload {
    /// Which segment of the bitmap this page holds.
    pub segment: u32,
    /// The validity bits (bit set ⇒ invalid), `blocks_per_segment · B` bits.
    pub words: Vec<u64>,
}

/// Flash-resident Page Validity Bitmap (µ-FTL).
///
/// The bitmap is split into page-sized *segments*, each covering a whole
/// number of blocks so a GC query touches exactly one segment. A RAM
/// directory maps segments to their current flash page (PVB pages are
/// updated out-of-place like everything else).
#[derive(Debug)]
pub struct FlashPvb {
    geo: Geometry,
    blocks_per_segment: u32,
    /// Segment directory: current flash location of each PVB page.
    directory: Vec<Option<Ppn>>,
}

impl FlashPvb {
    /// Create the store and materialize every segment page in flash.
    pub fn format(geo: Geometry, dev: &mut FlashDevice, sink: &mut dyn MetaSink) -> Self {
        // Usable bits per page (small header allowance), rounded down to a
        // whole number of blocks.
        let usable_bits = (geo.page_bytes - 32) * 8;
        let blocks_per_segment = (usable_bits / geo.pages_per_block).max(1);
        let segments = geo.blocks.div_ceil(blocks_per_segment);
        let mut store = FlashPvb {
            geo,
            blocks_per_segment,
            directory: vec![None; segments as usize],
        };
        for seg in 0..segments {
            let payload = PvbPagePayload {
                segment: seg,
                words: store.blank_segment(),
            };
            let ppn = sink.append_meta(
                dev,
                MetaKind::Pvb,
                MetaTag::Id(seg as u64),
                PageData::blob_of(payload),
                IoPurpose::ValidityUpdate,
            );
            store.directory[seg as usize] = Some(ppn);
        }
        store
    }

    fn blank_segment(&self) -> Vec<u64> {
        let bits = self.blocks_per_segment as u64 * self.geo.pages_per_block as u64;
        vec![0; bits.div_ceil(64) as usize]
    }

    /// Number of PVB segments (flash pages).
    pub fn segments(&self) -> u32 {
        self.directory.len() as u32
    }

    fn segment_of(&self, block: BlockId) -> u32 {
        block.0 / self.blocks_per_segment
    }

    fn bit_of(&self, block: BlockId, off: u32) -> u64 {
        (block.0 % self.blocks_per_segment) as u64 * self.geo.pages_per_block as u64 + off as u64
    }

    fn read_segment(&self, dev: &mut FlashDevice, seg: u32, purpose: IoPurpose) -> Vec<u64> {
        let loc = self.directory[seg as usize].expect("formatted segment");
        dev.read_page(loc, purpose)
            .expect("directory points at a written page")
            .blob::<PvbPagePayload>()
            .expect("pvb payload")
            .words
            .clone()
    }

    /// Read-modify-write one segment (the 1-read + 1-write cost of Table 1).
    fn rewrite_segment(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        seg: u32,
        mutate: impl FnOnce(&mut Vec<u64>),
    ) {
        let mut words = self.read_segment(dev, seg, IoPurpose::ValidityUpdate);
        mutate(&mut words);
        let old = self.directory[seg as usize].expect("formatted segment");
        let ppn = sink.append_meta(
            dev,
            MetaKind::Pvb,
            MetaTag::Id(seg as u64),
            PageData::blob_of(PvbPagePayload {
                segment: seg,
                words,
            }),
            IoPurpose::ValidityUpdate,
        );
        self.directory[seg as usize] = Some(ppn);
        sink.meta_page_obsolete(dev, old);
    }
}

impl ValidityStore for FlashPvb {
    fn mark_invalid(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, ppn: Ppn) {
        let block = self.geo.block_of(ppn);
        let off = self.geo.offset_of(ppn).0;
        let seg = self.segment_of(block);
        let bit = self.bit_of(block, off);
        self.rewrite_segment(dev, sink, seg, |words| {
            words[(bit / 64) as usize] |= 1 << (bit % 64);
        });
    }

    // `mark_invalid_batch` deliberately keeps the default one-RMW-per-update
    // implementation: that per-update cost (1 read + 1 write, Table 1) is
    // µ-FTL's defining property in the paper's evaluation. The batch hook
    // exists for Logarithmic Gecko's crash-atomicity, which battery-backed
    // µ-FTL does not need.

    fn note_erase(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, block: BlockId) {
        let seg = self.segment_of(block);
        let lo = self.bit_of(block, 0);
        let b = self.geo.pages_per_block as u64;
        self.rewrite_segment(dev, sink, seg, |words| {
            for bit in lo..lo + b {
                words[(bit / 64) as usize] &= !(1 << (bit % 64));
            }
        });
    }

    fn gc_query(
        &mut self,
        dev: &mut FlashDevice,
        _sink: &mut dyn MetaSink,
        block: BlockId,
    ) -> Bitmap {
        let seg = self.segment_of(block);
        let words = self.read_segment(dev, seg, IoPurpose::ValidityQuery);
        let b = self.geo.pages_per_block;
        let mut bm = Bitmap::new(b);
        for off in 0..b {
            let bit = self.bit_of(block, off);
            if words[(bit / 64) as usize] >> (bit % 64) & 1 == 1 {
                bm.set(off);
            }
        }
        bm
    }

    fn ram_bytes(&self) -> u64 {
        // Segment directory: one 4-byte pointer per PVB page (O(B·K/P)).
        4 * self.directory.len() as u64
    }

    fn collectable_meta(&self) -> Option<MetaKind> {
        Some(MetaKind::Pvb)
    }

    fn collect_meta_block(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        block: BlockId,
    ) {
        // Migrate the segments whose current page sits in this block.
        let live: Vec<u32> = self
            .directory
            .iter()
            .enumerate()
            .filter_map(|(seg, loc)| {
                loc.filter(|p| self.geo.block_of(*p) == block)
                    .map(|_| seg as u32)
            })
            .collect();
        for seg in live {
            let loc = self.directory[seg as usize].expect("live segment");
            let words = {
                let data = dev
                    .read_page(loc, IoPurpose::ValidityGc)
                    .expect("live pvb page");
                data.blob::<PvbPagePayload>()
                    .expect("pvb payload")
                    .words
                    .clone()
            };
            let ppn = sink.append_meta(
                dev,
                MetaKind::Pvb,
                MetaTag::Id(seg as u64),
                PageData::blob_of(PvbPagePayload {
                    segment: seg,
                    words,
                }),
                IoPurpose::ValidityGc,
            );
            self.directory[seg as usize] = Some(ppn);
            // The old page is inside the victim, which the engine erases.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geckoftl_core::validity::FlatMetaSink;

    fn geo() -> Geometry {
        Geometry::tiny()
    }

    #[test]
    fn ram_pvb_tracks_and_clears() {
        let g = geo();
        let mut dev = FlashDevice::new(g);
        let mut sink = FlatMetaSink::new(vec![BlockId(60)]);
        let mut pvb = RamPvb::new(g);
        pvb.mark_invalid(&mut dev, &mut sink, Ppn(17));
        pvb.mark_invalid(&mut dev, &mut sink, Ppn(18));
        let bm = pvb.gc_query(&mut dev, &mut sink, BlockId(1));
        assert!(bm.get(1) && bm.get(2)); // pages 17, 18 are block 1, offsets 1, 2
        assert!(!bm.get(0));
        pvb.note_erase(&mut dev, &mut sink, BlockId(1));
        assert!(pvb.gc_query(&mut dev, &mut sink, BlockId(1)).is_empty());
        // No IO at all.
        assert_eq!(dev.stats().total().page_reads, 0);
        assert_eq!(dev.stats().total().page_writes, 0);
    }

    #[test]
    fn ram_pvb_ram_cost_matches_paper() {
        let pvb = RamPvb::new(Geometry::paper_2tb());
        assert_eq!(pvb.ram_bytes(), 64 << 20); // 64 MB at 2 TB
    }

    #[test]
    fn flash_pvb_update_costs_one_read_one_write() {
        let g = geo();
        let mut dev = FlashDevice::new(g);
        let mut sink = FlatMetaSink::new((56..64).map(BlockId).collect());
        let mut pvb = FlashPvb::format(g, &mut dev, &mut sink);
        let before = dev.stats().counts(IoPurpose::ValidityUpdate);
        pvb.mark_invalid(&mut dev, &mut sink, Ppn(5));
        let after = dev.stats().counts(IoPurpose::ValidityUpdate);
        assert_eq!(after.page_reads - before.page_reads, 1);
        assert_eq!(after.page_writes - before.page_writes, 1);
        let bm = pvb.gc_query(&mut dev, &mut sink, BlockId(0));
        assert!(bm.get(5));
    }

    #[test]
    fn flash_pvb_round_trip_with_erases() {
        let g = geo();
        let mut dev = FlashDevice::new(g);
        let mut sink = FlatMetaSink::new((48..64).map(BlockId).collect());
        let mut pvb = FlashPvb::format(g, &mut dev, &mut sink);
        for p in [0u32, 3, 16, 17, 40] {
            pvb.mark_invalid(&mut dev, &mut sink, Ppn(p));
        }
        assert!(pvb.gc_query(&mut dev, &mut sink, BlockId(0)).get(3));
        assert!(pvb.gc_query(&mut dev, &mut sink, BlockId(1)).get(1));
        pvb.note_erase(&mut dev, &mut sink, BlockId(0));
        assert!(pvb.gc_query(&mut dev, &mut sink, BlockId(0)).is_empty());
        assert!(pvb.gc_query(&mut dev, &mut sink, BlockId(1)).get(0));
        assert!(pvb.gc_query(&mut dev, &mut sink, BlockId(2)).get(8)); // page 40
    }

    #[test]
    fn flash_pvb_batch_costs_one_rmw_per_update() {
        let g = geo();
        let mut dev = FlashDevice::new(g);
        let mut sink = FlatMetaSink::new((48..64).map(BlockId).collect());
        let mut pvb = FlashPvb::format(g, &mut dev, &mut sink);
        assert_eq!(pvb.segments(), 1);
        // µ-FTL's defining cost: every update is its own read-modify-write.
        let before = dev.stats().counts(IoPurpose::ValidityUpdate);
        pvb.mark_invalid_batch(
            &mut dev,
            &mut sink,
            &[Ppn(1), Ppn(2), Ppn(30), Ppn(99), Ppn(100)],
        );
        let after = dev.stats().counts(IoPurpose::ValidityUpdate);
        assert_eq!(after.page_writes - before.page_writes, 5);
        assert!(pvb.gc_query(&mut dev, &mut sink, BlockId(6)).get(3)); // page 99
    }

    #[test]
    fn flash_pvb_ram_is_directory_only() {
        let g = Geometry::paper_2tb();
        let mut dev = FlashDevice::new(Geometry::tiny());
        let mut sink = FlatMetaSink::new((48..64).map(BlockId).collect());
        // RAM model scales as O(B·K/P): far below the 64 MB RAM PVB.
        let pvb = FlashPvb::format(Geometry::tiny(), &mut dev, &mut sink);
        assert!(pvb.ram_bytes() < RamPvb::new(Geometry::tiny()).ram_bytes());
        let _ = g;
    }
}
