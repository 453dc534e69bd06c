//! Device geometry and physical/logical address types.
//!
//! The terminology follows Figure 2 of the paper:
//!
//! | Term | Meaning                                     |
//! |------|---------------------------------------------|
//! | `K`  | number of blocks in the device              |
//! | `B`  | pages per block                             |
//! | `P`  | page size in bytes                          |
//! | `R`  | ratio of logical to physical capacity       |

use std::fmt;

/// A logical page number — the address space the application sees.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lpn(pub u32);

/// A physical page number: `block * pages_per_block + page_offset`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppn(pub u32);

/// A physical flash block identifier in `0..K`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Offset of a page within its block, in `0..B`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageOffset(pub u32);

impl fmt::Debug for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}
impl fmt::Debug for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}
impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Physical geometry of a simulated flash device.
///
/// All capacity-dependent formulas in the paper (translation-table size, PVB
/// size, number of Gecko levels, ...) are functions of these five values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometry {
    /// `K`: number of flash blocks.
    pub blocks: u32,
    /// `B`: pages per block.
    pub pages_per_block: u32,
    /// `P`: page size in bytes.
    pub page_bytes: u32,
    /// Spare-area size in bytes (typically `P / 32`, per Micron TN-29-07).
    pub spare_bytes: u32,
    /// `R`: ratio between the logical and the physical address space.
    pub logical_ratio: f64,
    /// Number of logical units (channels/dies) the blocks stripe across
    /// ([`Geometry::channel_of`]). The simulated clock has a single lane and
    /// charges every IO serially, so the field models no parallelism and no
    /// time: it labels each IO's telemetry lane, and scales two pacing
    /// budgets tuned with it, `FtlEngine::idle_tick`'s merge quantum and
    /// Logarithmic Gecko's `merge_debt_ceiling`.
    pub channels: u32,
}

impl Geometry {
    /// Create a geometry, deriving the spare-area size as `P / 32`.
    pub fn new(blocks: u32, pages_per_block: u32, page_bytes: u32, logical_ratio: f64) -> Self {
        assert!(blocks > 0 && pages_per_block > 0 && page_bytes > 0);
        assert!(
            logical_ratio > 0.0 && logical_ratio < 1.0,
            "logical ratio must leave over-provisioned space"
        );
        Geometry {
            blocks,
            pages_per_block,
            page_bytes,
            spare_bytes: page_bytes / 32,
            logical_ratio,
            channels: 1,
        }
    }

    /// The same geometry with `channels` parallel logical units.
    pub fn with_channels(mut self, channels: u32) -> Self {
        assert!(channels >= 1);
        self.channels = channels;
        self
    }

    /// The paper's default configuration (Figure 2): a 2 TB device with
    /// K=2²² blocks, B=2⁷ pages per block, P=2¹² bytes per page, R=0.7.
    ///
    /// This geometry is used for the *analytical* models; it is too large to
    /// simulate page-by-page on a laptop (2²⁹ pages).
    pub fn paper_2tb() -> Self {
        Geometry::new(1 << 22, 1 << 7, 1 << 12, 0.7)
    }

    /// A scaled-down geometry for simulation experiments: 2¹² blocks of 128
    /// pages (2 GB device), keeping the paper's B, P and R.
    pub fn small() -> Self {
        Geometry::new(1 << 12, 1 << 7, 1 << 12, 0.7)
    }

    /// A minimal geometry for unit tests: 64 blocks of 16 pages.
    pub fn tiny() -> Self {
        Geometry::new(64, 16, 1 << 12, 0.7)
    }

    /// Same shape as [`Geometry::paper_2tb`] but scaled by `shift` powers of
    /// two in the number of blocks (capacity sweeps for Figure 1 / 11).
    pub fn paper_scaled(blocks: u32) -> Self {
        Geometry::new(blocks, 1 << 7, 1 << 12, 0.7)
    }

    /// `K · B`: total number of physical pages.
    pub fn total_pages(&self) -> u64 {
        self.blocks as u64 * self.pages_per_block as u64
    }

    /// Number of logical pages exposed to the application: `⌊R · K · B⌋`.
    pub fn logical_pages(&self) -> u64 {
        (self.total_pages() as f64 * self.logical_ratio).floor() as u64
    }

    /// Physical capacity in bytes: `K · B · P`.
    pub fn physical_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// `D` in Appendix E: number of pages of over-provisioned space, an upper
    /// bound on the number of invalid pages in the device at any time.
    pub fn overprovisioned_pages(&self) -> u64 {
        self.total_pages() - self.logical_pages()
    }

    /// Split a physical page number into its block.
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        BlockId(ppn.0 / self.pages_per_block)
    }

    /// Split a physical page number into its offset within the block.
    pub fn offset_of(&self, ppn: Ppn) -> PageOffset {
        PageOffset(ppn.0 % self.pages_per_block)
    }

    /// Compose a physical page number from block and in-block offset.
    pub fn ppn(&self, block: BlockId, offset: PageOffset) -> Ppn {
        debug_assert!(block.0 < self.blocks);
        debug_assert!(offset.0 < self.pages_per_block);
        Ppn(block.0 * self.pages_per_block + offset.0)
    }

    /// First physical page of a block.
    pub fn first_page(&self, block: BlockId) -> Ppn {
        self.ppn(block, PageOffset(0))
    }

    /// The logical unit (channel/die) a block is wired to. Blocks stripe
    /// round-robin across channels, the standard interleaved layout. The
    /// device charges every IO serially, so the channel is a label on the
    /// IO's telemetry event (one trace lane per channel), not a time domain.
    pub fn channel_of(&self, block: BlockId) -> u32 {
        block.0 % self.channels
    }

    /// Whether `ppn` addresses a page that exists on this device.
    pub fn contains(&self, ppn: Ppn) -> bool {
        (ppn.0 as u64) < self.total_pages()
    }

    /// Whether `lpn` is within the exposed logical address space.
    pub fn contains_lpn(&self, lpn: Lpn) -> bool {
        (lpn.0 as u64) < self.logical_pages()
    }

    /// Iterate over all block ids of the device.
    pub fn iter_blocks(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks).map(BlockId)
    }

    /// Number of 4-byte mapping entries that fit into one translation page.
    pub fn entries_per_translation_page(&self) -> u32 {
        self.page_bytes / 4
    }

    /// Number of translation pages needed to map the whole logical space.
    pub fn translation_pages(&self) -> u32 {
        let per = self.entries_per_translation_page() as u64;
        self.logical_pages().div_ceil(per) as u32
    }

    /// Size of the flash-resident translation table in bytes: `4 · K · B · R`
    /// (denoted `TT` in the paper, §2).
    pub fn translation_table_bytes(&self) -> u64 {
        4 * self.logical_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_hold() {
        let g = Geometry::paper_2tb();
        assert_eq!(g.total_pages(), 1 << 29);
        assert_eq!(g.physical_bytes(), 1 << 41); // 2 TB
                                                 // TT = 4·K·B·R ≈ 1.5 GB ("1.4 GB" in the paper's loose phrasing).
        let tt = g.translation_table_bytes();
        assert!((1_490_000_000..1_510_000_000).contains(&tt), "TT = {tt}");
        // PVB = K·B/8 = 64 MB.
        assert_eq!(g.total_pages() / 8, 64 << 20);
    }

    #[test]
    fn address_round_trips() {
        let g = Geometry::tiny();
        for raw in [0u32, 1, 15, 16, 17, 63 * 16 + 15] {
            let ppn = Ppn(raw);
            let b = g.block_of(ppn);
            let o = g.offset_of(ppn);
            assert_eq!(g.ppn(b, o), ppn);
        }
        assert!(g.contains(Ppn(64 * 16 - 1)));
        assert!(!g.contains(Ppn(64 * 16)));
    }

    #[test]
    fn logical_space_is_fraction_of_physical() {
        let g = Geometry::tiny();
        assert_eq!(g.total_pages(), 1024);
        assert_eq!(g.logical_pages(), 716); // ⌊0.7 · 1024⌋
        assert_eq!(g.overprovisioned_pages(), 308);
        assert!(g.contains_lpn(Lpn(715)));
        assert!(!g.contains_lpn(Lpn(716)));
    }

    #[test]
    fn translation_page_math() {
        let g = Geometry::small();
        assert_eq!(g.entries_per_translation_page(), 1024);
        let expected = g.logical_pages().div_ceil(1024) as u32;
        assert_eq!(g.translation_pages(), expected);
    }

    #[test]
    #[should_panic(expected = "over-provisioned")]
    fn rejects_full_logical_ratio() {
        let _ = Geometry::new(4, 4, 4096, 1.0);
    }
}
