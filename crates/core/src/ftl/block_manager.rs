//! Physical space management: block groups, active blocks, the free pool and
//! the Blocks Validity Counter (BVC).
//!
//! GeckoFTL separates flash pages into groups of blocks by type (Figure 8):
//! user blocks, translation blocks, and metadata blocks (Gecko runs — or,
//! for the baselines, PVB/PVL pages). Each group has one *active block*
//! written append-only; when it fills up, a new active block is allocated
//! from the free pool.
//!
//! The BVC (Figure 7) tracks the number of valid pages per block and drives
//! garbage-collection victim selection. Under the metadata-aware GC policy
//! (§4.2) translation/metadata blocks are never migrated: they are erased as
//! soon as their last valid page is superseded, which this module detects on
//! [`BlockManager::page_obsolete`] — or, for a block on App. C.2.2's
//! no-erase list, on the [`BlockManager::release_through`] that takes it
//! off. This module is the only place that decides when a translation block
//! may be erased.
//!
//! That list is the *version chain*: one link per translation-page version
//! newer than the validity store's durable watermark, stamped with the
//! version's seq and protecting the block of the version it superseded.
//! GeckoRec step 4b diffs exactly those versions against their bases, so the
//! running engine takes a link per sync and GeckoRec hands over the links
//! step 4b read (docs/DESIGN.md, invariants 6 and 14).
//!
//! Greedy selection is "the eligible block with the fewest valid pages". A
//! linear scan over all blocks answers that; [`BlockManager::pick_victim`],
//! which every collection pays twice, reads it off a *victim index* instead
//! — blocks filed by BVC — and returns exactly what the scan would
//! (docs/DESIGN.md, invariant 10). The scan survives as that oracle and as
//! the body of [`BlockManager::pick_victims`], which only the repo benchmark
//! calls.

use crate::gecko::Bitmap;
use crate::validity::MetaSink;
use flash_sim::{
    BlockId, FlashDevice, FlashError, Geometry, IoPurpose, MetaKind, MetaTag, PageData, Ppn,
    SpareInfo,
};
use std::collections::{BTreeMap, VecDeque};

/// The block groups of Figure 8. PVB and PVL blocks take the "Gecko blocks"
/// role for the baseline FTLs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockGroup {
    /// User data (≈99.9 % of the device).
    User,
    /// Translation pages (≈0.1 %).
    Translation,
    /// Page-validity metadata (≈0.01 %): Gecko runs, PVB pages or PVL pages.
    Meta(MetaKind),
}

impl BlockGroup {
    /// All block groups, for reports and sweeps.
    pub const ALL: [BlockGroup; 5] = [
        BlockGroup::User,
        BlockGroup::Translation,
        BlockGroup::Meta(MetaKind::GeckoRun),
        BlockGroup::Meta(MetaKind::Pvb),
        BlockGroup::Meta(MetaKind::Pvl),
    ];

    fn index(self) -> usize {
        match self {
            BlockGroup::User => 0,
            BlockGroup::Translation => 1,
            BlockGroup::Meta(MetaKind::GeckoRun) => 2,
            BlockGroup::Meta(MetaKind::Pvb) => 3,
            BlockGroup::Meta(MetaKind::Pvl) => 4,
        }
    }

    /// Whether this group holds metadata (eligible for erase-when-empty
    /// under the metadata-aware policy).
    pub fn is_metadata(self) -> bool {
        !matches!(self, BlockGroup::User)
    }

    /// IO purpose charged when a block of this group is erased by the
    /// erase-when-empty path.
    fn erase_purpose(self) -> IoPurpose {
        match self {
            BlockGroup::User => IoPurpose::GcMigrateUser,
            BlockGroup::Translation => IoPurpose::TranslationGc,
            BlockGroup::Meta(_) => IoPurpose::ValidityGc,
        }
    }
}

/// Per-block bookkeeping state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockState {
    /// In the free pool.
    Free,
    /// Allocated to a group (the write pointer lives in the device).
    InUse(BlockGroup),
}

/// Host-side accelerator for [`BlockManager::pick_victim`]: every in-use,
/// non-retired block filed under its BVC. Simulator state like the device's
/// per-page arrays, not modelled firmware RAM — `(B+1)·blocks/8` bytes that
/// [`BlockManager::bvc_ram_bytes`] does not charge.
#[derive(Clone, Debug)]
struct VictimIndex {
    /// `buckets[v]`: the blocks whose BVC is `v`, for `v` in `0..=B`. (A BVC
    /// beyond `B` — impossible for a count of written pages — would file
    /// under `B`: never eligible either way.)
    buckets: Vec<Bitmap>,
    /// Population count of each bucket, so a pick skips the empty ones.
    counts: Vec<u32>,
}

impl VictimIndex {
    fn new(geo: &Geometry) -> Self {
        let buckets = geo.pages_per_block as usize + 1;
        VictimIndex {
            buckets: vec![Bitmap::new(geo.blocks); buckets],
            counts: vec![0; buckets],
        }
    }

    fn bucket_of(&self, bvc: u32) -> usize {
        (bvc as usize).min(self.buckets.len() - 1)
    }

    /// File `block`, not currently indexed, under `bvc`.
    fn insert(&mut self, block: BlockId, bvc: u32) {
        let v = self.bucket_of(bvc);
        debug_assert!(!self.buckets[v].get(block.0), "{block:?} filed twice");
        self.buckets[v].set(block.0);
        self.counts[v] += 1;
    }

    /// Drop `block`, currently filed under `bvc`.
    fn remove(&mut self, block: BlockId, bvc: u32) {
        let v = self.bucket_of(bvc);
        debug_assert!(self.buckets[v].get(block.0), "{block:?} not filed");
        self.buckets[v].clear(block.0);
        self.counts[v] -= 1;
    }

    /// Move `block` after its BVC changed from `old` to `new`.
    fn refile(&mut self, block: BlockId, old: u32, new: u32) {
        if self.bucket_of(old) != self.bucket_of(new) {
            self.remove(block, old);
            self.insert(block, new);
        }
    }

    /// Indexed blocks holding at least one invalid page, in `(BVC, block)`
    /// order — the order greedy selection ranks candidates in.
    fn reclaimable(&self) -> impl Iterator<Item = BlockId> + '_ {
        let full = self.buckets.len() - 1;
        self.buckets[..full]
            .iter()
            .zip(&self.counts)
            .filter(|(_, &n)| n > 0)
            .flat_map(|(bucket, _)| bucket.iter_ones().map(BlockId))
    }
}

#[cfg(test)]
thread_local! {
    /// Blocks [`BlockManager::pick_victim`] evaluated eligibility on (the
    /// scan oracle's evaluations are not counted): the work-count guard.
    static PICK_EVALUATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Manager of block allocation, groups and validity counters.
#[derive(Clone, Debug)]
pub struct BlockManager {
    geo: Geometry,
    state: Vec<BlockState>,
    active: [Option<BlockId>; 5],
    free: VecDeque<BlockId>,
    /// BVC: number of valid pages per block.
    bvc: Vec<u32>,
    /// Whether metadata blocks are erased as soon as they become fully
    /// invalid (GeckoFTL's §4.2 policy). When false, they wait for the
    /// greedy garbage-collector like any other block.
    pub erase_empty_metadata: bool,
    /// The version chain's stamps, one per link not yet released: what
    /// [`BlockManager::chain_len`] counts.
    chain: Vec<u64>,
    /// The blocks the chain protects from erasure and GC, each with the
    /// newest stamp of a link protecting it. Ordered, so a release erases
    /// deterministically.
    protected: BTreeMap<BlockId, u64>,
    /// Blocks permanently taken out of service after an erase failure. A
    /// retired block stays `InUse` forever — it can never be
    /// erased, so it must never reach the free pool — and is excluded from
    /// victim selection so GC does not livelock re-picking a 0-valid block
    /// it cannot reclaim.
    retired: Vec<bool>,
    /// Kept in step with `state`, `bvc` and `retired` by the five places
    /// that change them: `ensure_active`, `append`, `page_obsolete`,
    /// `erase_and_free` and `from_recovered`.
    victims: VictimIndex,
}

impl BlockManager {
    /// A fresh manager: every block free.
    pub fn new(geo: Geometry) -> Self {
        BlockManager {
            geo,
            state: vec![BlockState::Free; geo.blocks as usize],
            active: [None; 5],
            free: geo.iter_blocks().collect(),
            bvc: vec![0; geo.blocks as usize],
            erase_empty_metadata: true,
            chain: Vec::new(),
            protected: BTreeMap::new(),
            retired: vec![false; geo.blocks as usize],
            victims: VictimIndex::new(&geo),
        }
    }

    /// Rebuild a manager from recovered per-block state (used by GeckoRec).
    /// Consults the device's persistent bad-block table so that bad blocks
    /// never re-enter the free pool (an empty bad block scans as `Free` —
    /// a pre-crash program failure persists nothing — but can never be
    /// programmed again). Bad *in-use* blocks are not pre-retired: their
    /// valid pages stay readable, GC drains them like any bad block and
    /// retires them when the erase fails, exactly as on the live path.
    pub fn from_recovered(
        dev: &FlashDevice,
        geo: Geometry,
        state: Vec<BlockState>,
        bvc: Vec<u32>,
        erase_empty_metadata: bool,
    ) -> Self {
        assert_eq!(state.len(), geo.blocks as usize);
        assert_eq!(bvc.len(), geo.blocks as usize);
        let free = geo
            .iter_blocks()
            .filter(|b| state[b.0 as usize] == BlockState::Free && !dev.is_bad(*b))
            .collect();
        let mut victims = VictimIndex::new(&geo);
        for b in geo.iter_blocks() {
            if matches!(state[b.0 as usize], BlockState::InUse(_)) {
                victims.insert(b, bvc[b.0 as usize]);
            }
        }
        BlockManager {
            geo,
            state,
            active: [None; 5],
            free,
            bvc,
            erase_empty_metadata,
            chain: Vec::new(),
            protected: BTreeMap::new(),
            retired: vec![false; geo.blocks as usize],
            victims,
        }
    }

    /// Whether the victim index holds `block`: in use and not retired.
    fn is_indexed(&self, block: BlockId) -> bool {
        matches!(self.state[block.0 as usize], BlockState::InUse(_))
            && !self.retired[block.0 as usize]
    }

    /// Take `block` out of the victim index ahead of it being freed or
    /// retired.
    fn unfile(&mut self, block: BlockId) {
        if self.is_indexed(block) {
            self.victims.remove(block, self.bvc[block.0 as usize]);
        }
    }

    /// Number of blocks currently in the free pool.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// The BVC value (valid pages) for a block.
    pub fn valid_pages(&self, block: BlockId) -> u32 {
        self.bvc[block.0 as usize]
    }

    /// Group a block belongs to, if allocated.
    pub fn group_of(&self, block: BlockId) -> Option<BlockGroup> {
        match self.state[block.0 as usize] {
            BlockState::Free => None,
            BlockState::InUse(g) => Some(g),
        }
    }

    /// Whether `block` is the active (append-target) block of its group.
    pub fn is_active(&self, block: BlockId) -> bool {
        self.active.contains(&Some(block))
    }

    /// Add a link to the version chain: a translation-page version stamped
    /// `stamp`, whose predecessor lies in `block` (`None` for a page's first
    /// version). The block is kept from erasure and GC until a
    /// [`BlockManager::release_through`] at or past `stamp`; a block
    /// protected twice keeps the newer stamp.
    pub fn protect(&mut self, block: Option<BlockId>, stamp: u64) {
        self.chain.push(stamp);
        if let Some(block) = block {
            let s = self.protected.entry(block).or_insert(stamp);
            *s = (*s).max(stamp);
        }
    }

    /// Links in the version chain: the translation-page versions newer than
    /// the last [`BlockManager::release_through`].
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Whether a block is currently protected.
    pub fn is_protected(&self, block: BlockId) -> bool {
        self.protected.contains_key(&block)
    }

    /// Number of currently protected blocks.
    pub fn protected_count(&self) -> usize {
        self.protected.len()
    }

    /// Release every link stamped at or before `seq` — the validity store
    /// holds its reports durably — and erase, in block order, each released
    /// block that has become empty meanwhile, by the rule
    /// [`BlockManager::page_obsolete`] applies (App. C.2.2: "When
    /// Logarithmic Gecko's buffer is flushed, we clear the list"). Erase
    /// order feeds the free pool and hence future victim selection (draining
    /// a hash set unsorted once leaked per-process hash randomization into
    /// GC victim order: ±2 reads/query jitter in BENCH_gecko_query).
    pub fn release_through(&mut self, dev: &mut FlashDevice, seq: u64) {
        self.chain.retain(|&stamp| stamp > seq);
        let mut released = Vec::new();
        self.protected.retain(|&block, &mut stamp| {
            let keep = stamp > seq;
            if !keep {
                released.push(block);
            }
            keep
        });
        for block in released {
            self.erase_if_empty(dev, block);
        }
    }

    /// Integrated-RAM footprint of BVC: 2 bytes per block (Appendix B).
    pub fn bvc_ram_bytes(&self) -> u64 {
        2 * self.geo.blocks as u64
    }

    /// Iterate blocks allocated to a group.
    pub fn blocks_of_group(&self, group: BlockGroup) -> impl Iterator<Item = BlockId> + '_ {
        self.geo
            .iter_blocks()
            .filter(move |b| self.state[b.0 as usize] == BlockState::InUse(group))
    }

    fn ensure_active(&mut self, dev: &FlashDevice, group: BlockGroup) -> BlockId {
        let slot = group.index();
        if let Some(b) = self.active[slot] {
            if !dev.block_is_full(b) {
                return b;
            }
            self.active[slot] = None; // sealed
        }
        let b = self
            .free
            .pop_front()
            .expect("free pool exhausted — GC threshold must keep a reserve");
        debug_assert!(dev.written_pages(b) == 0, "free block must be erased");
        debug_assert!(!dev.is_bad(b), "free pool must not contain bad blocks");
        self.state[b.0 as usize] = BlockState::InUse(group);
        self.victims.insert(b, self.bvc[b.0 as usize]);
        self.active[slot] = Some(b);
        b
    }

    /// Adopt an existing partially-written block as the group's active block
    /// (used after recovery, which finds the old actives half-full).
    pub fn adopt_active(&mut self, block: BlockId, group: BlockGroup) {
        debug_assert_eq!(self.state[block.0 as usize], BlockState::InUse(group));
        self.active[group.index()] = Some(block);
    }

    /// Append a page to the active block of `group`. The caller guarantees a
    /// free-block reserve via the GC trigger threshold.
    ///
    /// A program failure (the active block went bad mid-write) is handled
    /// here: the block is abandoned as append target and the write retries
    /// on a fresh free block. The bad block keeps its already-written valid
    /// pages; GC drains it later and retires it when its erase fails.
    pub fn append(
        &mut self,
        dev: &mut FlashDevice,
        group: BlockGroup,
        data: PageData,
        info: SpareInfo,
        purpose: IoPurpose,
    ) -> Ppn {
        loop {
            let block = self.ensure_active(dev, group);
            match dev.write_page(block, data.clone(), info, purpose) {
                Ok(ppn) => {
                    let i = block.0 as usize;
                    self.bvc[i] += 1;
                    self.victims.refile(block, self.bvc[i] - 1, self.bvc[i]);
                    return ppn;
                }
                Err(FlashError::ProgramFailed(_)) => {
                    self.active[group.index()] = None;
                }
                Err(e) => panic!("active block has free pages: {e}"),
            }
        }
    }

    /// Report that a written page no longer holds live data. Decrements BVC
    /// and, for metadata blocks under the metadata-aware policy, erases the
    /// block once it holds no valid pages (§4.2: "waits until all pages in a
    /// Gecko block or a translation block have become invalid and only then
    /// erases the block").
    pub fn page_obsolete(&mut self, dev: &mut FlashDevice, ppn: Ppn) {
        let block = self.geo.block_of(ppn);
        let i = block.0 as usize;
        // A hard assert: an under-counted block reads as fully invalid, and
        // `collect_once` erases a 0-valid block without a query — with any
        // newest copy it still holds (DESIGN.md invariant 13).
        assert!(self.bvc[i] > 0, "BVC underflow on {block:?}");
        let old = self.bvc[i];
        self.bvc[i] = old - 1;
        if self.is_indexed(block) {
            self.victims.refile(block, old, self.bvc[i]);
        }
        self.erase_if_empty(dev, block);
    }

    /// §4.2's erase-when-empty rule: erase `block` if it is an unprotected,
    /// non-active metadata block holding no valid page and the policy is on.
    fn erase_if_empty(&mut self, dev: &mut FlashDevice, block: BlockId) {
        let i = block.0 as usize;
        if self.bvc[i] == 0
            && self.erase_empty_metadata
            && !self.is_active(block)
            && !self.is_protected(block)
        {
            if let BlockState::InUse(group) = self.state[i] {
                if group.is_metadata() {
                    self.erase_and_free(dev, block, group.erase_purpose());
                }
            }
        }
    }

    /// Erase a block and return it to the free pool. If the erase fails (bad
    /// block) the block is *retired* instead:
    /// it stays `InUse` forever, drops out of victim selection, and never
    /// reaches the free pool. The caller has already migrated any valid
    /// pages, so nothing is lost. Returns `false` on retirement: the block
    /// keeps its stale contents, so a caller tracking per-page validity
    /// must report those pages invalid (an erase marker issued in
    /// anticipation of this erase claims a *clean* block — the opposite of
    /// what a retired block holds).
    pub fn erase_and_free(
        &mut self,
        dev: &mut FlashDevice,
        block: BlockId,
        purpose: IoPurpose,
    ) -> bool {
        debug_assert!(!self.is_active(block), "cannot erase an active block");
        let i = block.0 as usize;
        match dev.erase_block(block, purpose) {
            Ok(()) => {
                self.unfile(block);
                self.state[i] = BlockState::Free;
                self.bvc[i] = 0;
                self.free.push_back(block);
                true
            }
            Err(FlashError::EraseFailed(_)) => {
                self.unfile(block);
                self.retired[i] = true;
                self.bvc[i] = 0;
                false
            }
            Err(e) => panic!("erase of in-range block: {e}"),
        }
    }

    /// Whether a block has been permanently retired after an erase failure.
    pub fn is_retired(&self, block: BlockId) -> bool {
        self.retired[block.0 as usize]
    }

    /// Number of permanently retired blocks (lost device capacity).
    pub fn retired_blocks(&self) -> usize {
        self.retired.iter().filter(|&&r| r).count()
    }

    /// GC victim candidates among `eligible` groups: full, non-active,
    /// unprotected blocks with at least one invalid page, as `(valid
    /// pages, block)` pairs in block order — the linear scan over every
    /// block. [`BlockManager::pick_victims`] is built on it; for
    /// [`BlockManager::pick_victim`] it is the oracle the victim index is
    /// checked against.
    fn victim_candidates<'a>(
        &'a self,
        dev: &'a FlashDevice,
        eligible: impl Fn(BlockGroup) -> bool + 'a,
    ) -> impl Iterator<Item = (u32, BlockId)> + 'a {
        self.geo
            .iter_blocks()
            .filter(move |&b| self.is_victim_eligible(dev, b, &eligible))
            .map(|b| (self.bvc[b.0 as usize], b))
    }

    /// Greedy victim selection: the full, non-active block with the fewest
    /// valid pages among `eligible` groups (lowest block id among equals).
    /// Returns `None` if no block has any invalid page.
    ///
    /// Walks the victim index in `(BVC, block)` order and returns the first
    /// block that passes [`BlockManager::is_victim_eligible`] — sealed or
    /// bad, not active, not protected and the group filter are all judged
    /// here, at pick time, so bad-block marks, protections and write
    /// pointers need no hook into the index. The blocks it rejects on the
    /// way are the few active, protected or filtered-out ones ranked below
    /// the victim, whatever the device size.
    pub fn pick_victim(
        &self,
        dev: &FlashDevice,
        eligible: impl Fn(BlockGroup) -> bool,
    ) -> Option<BlockId> {
        let picked = self.victims.reclaimable().find(|&b| {
            #[cfg(test)]
            PICK_EVALUATIONS.with(|n| n.set(n.get() + 1));
            self.is_victim_eligible(dev, b, &eligible)
        });
        debug_assert_eq!(
            picked,
            self.victim_candidates(dev, &eligible)
                .min_by_key(|&(valid, b)| (valid, b))
                .map(|(_, b)| b),
            "victim index diverged from the linear scan"
        );
        picked
    }

    /// Whether `block` currently satisfies every victim-eligibility rule
    /// for its group (allocated to an `eligible` group, sealed, non-active,
    /// unprotected, with at least one invalid page) — the same rules as
    /// `victim_candidates`, answered in O(1) for one block.
    pub fn is_victim_eligible(
        &self,
        dev: &FlashDevice,
        block: BlockId,
        eligible: impl Fn(BlockGroup) -> bool,
    ) -> bool {
        let BlockState::InUse(group) = self.state[block.0 as usize] else {
            return false;
        };
        // A bad block counts as sealed even when not full: its write pointer
        // will never advance again, and GC is the only way to drain its
        // remaining valid pages. Retired blocks are out for good.
        eligible(group)
            && !self.retired[block.0 as usize]
            && !self.is_active(block)
            && (dev.block_is_full(block) || dev.is_bad(block))
            && !self.is_protected(block)
            && self.bvc[block.0 as usize] < self.geo.pages_per_block
    }

    /// The `k` lowest `(valid pages, block)` of the linear scan. The engine
    /// collects one [`BlockManager::pick_victim`] at a time and never calls
    /// this; it stays because the repo benchmark's adapter names it
    /// (`gc.pick_victims_ns`, which therefore times the scan, not what a
    /// collection pays; ROADMAP item 6 removes both).
    pub fn pick_victims(
        &self,
        dev: &FlashDevice,
        k: usize,
        eligible: impl Fn(BlockGroup) -> bool,
    ) -> Vec<BlockId> {
        let mut candidates: Vec<(u32, BlockId)> = self.victim_candidates(dev, eligible).collect();
        candidates.sort_unstable();
        candidates.truncate(k);
        candidates.into_iter().map(|(_, b)| b).collect()
    }
}

/// Flash-resident validity stores write their pages through the block
/// manager like everything else.
impl MetaSink for BlockManager {
    fn append_meta(
        &mut self,
        dev: &mut FlashDevice,
        kind: MetaKind,
        tag: MetaTag,
        data: PageData,
        purpose: IoPurpose,
    ) -> Ppn {
        self.append(
            dev,
            BlockGroup::Meta(kind),
            data,
            SpareInfo::Meta { kind, tag },
            purpose,
        )
    }

    fn meta_page_obsolete(&mut self, dev: &mut FlashDevice, ppn: Ppn) {
        self.page_obsolete(dev, ppn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::Lpn;

    fn setup() -> (FlashDevice, BlockManager) {
        let geo = Geometry::tiny();
        (FlashDevice::new(geo), BlockManager::new(geo))
    }

    fn user_page(lpn: u32) -> (PageData, SpareInfo) {
        (
            PageData::User {
                lpn: Lpn(lpn),
                version: 0,
            },
            SpareInfo::User {
                lpn: Lpn(lpn),
                before: None,
            },
        )
    }

    #[test]
    fn appends_stay_in_group_active_block() {
        let (mut dev, mut bm) = setup();
        let (d1, s1) = user_page(1);
        let p1 = bm.append(&mut dev, BlockGroup::User, d1, s1, IoPurpose::UserWrite);
        let (d2, s2) = user_page(2);
        let p2 = bm.append(&mut dev, BlockGroup::User, d2, s2, IoPurpose::UserWrite);
        assert_eq!(dev.geometry().block_of(p1), dev.geometry().block_of(p2));
        assert_eq!(bm.valid_pages(dev.geometry().block_of(p1)), 2);
        assert_eq!(
            bm.group_of(dev.geometry().block_of(p1)),
            Some(BlockGroup::User)
        );
    }

    #[test]
    fn groups_use_distinct_blocks() {
        let (mut dev, mut bm) = setup();
        let (d, s) = user_page(1);
        let pu = bm.append(&mut dev, BlockGroup::User, d, s, IoPurpose::UserWrite);
        let pt = bm.append(
            &mut dev,
            BlockGroup::Translation,
            PageData::blob_of(0u32),
            SpareInfo::Translation { tpage: 0 },
            IoPurpose::TranslationSync,
        );
        assert_ne!(dev.geometry().block_of(pu), dev.geometry().block_of(pt));
    }

    #[test]
    fn full_active_block_rolls_over() {
        let (mut dev, mut bm) = setup();
        let per_block = dev.geometry().pages_per_block;
        let mut first_block = None;
        for i in 0..=per_block {
            let (d, s) = user_page(i);
            let p = bm.append(&mut dev, BlockGroup::User, d, s, IoPurpose::UserWrite);
            let b = dev.geometry().block_of(p);
            match first_block {
                None => first_block = Some(b),
                Some(fb) if i < per_block => assert_eq!(b, fb),
                Some(fb) => assert_ne!(b, fb, "rollover expected after {per_block} pages"),
            }
        }
    }

    #[test]
    fn metadata_block_erased_when_fully_invalid() {
        let (mut dev, mut bm) = setup();
        let per_block = dev.geometry().pages_per_block;
        // Fill one gecko block and roll into a second so the first seals.
        let mut pages = Vec::new();
        for i in 0..=per_block {
            let p = bm.append_meta(
                &mut dev,
                MetaKind::GeckoRun,
                MetaTag::Id(i as u64),
                PageData::blob_of(i),
                IoPurpose::ValidityUpdate,
            );
            pages.push(p);
        }
        let first = dev.geometry().block_of(pages[0]);
        let free_before = bm.free_blocks();
        for p in &pages[..per_block as usize] {
            bm.meta_page_obsolete(&mut dev, *p);
        }
        assert_eq!(
            bm.group_of(first),
            None,
            "fully-invalid metadata block must be erased"
        );
        assert_eq!(bm.free_blocks(), free_before + 1);
        assert_eq!(dev.erase_count(first), 1);
    }

    #[test]
    fn metadata_erase_when_empty_can_be_disabled() {
        let (mut dev, mut bm) = setup();
        bm.erase_empty_metadata = false;
        let per_block = dev.geometry().pages_per_block;
        let mut pages = Vec::new();
        for i in 0..=per_block {
            pages.push(bm.append_meta(
                &mut dev,
                MetaKind::Pvb,
                MetaTag::Id(i as u64),
                PageData::blob_of(i),
                IoPurpose::ValidityUpdate,
            ));
        }
        let first = dev.geometry().block_of(pages[0]);
        for p in &pages[..per_block as usize] {
            bm.meta_page_obsolete(&mut dev, *p);
        }
        assert_eq!(bm.group_of(first), Some(BlockGroup::Meta(MetaKind::Pvb)));
        assert_eq!(dev.erase_count(first), 0);
    }

    #[test]
    fn greedy_victim_is_min_valid_full_block() {
        let (mut dev, mut bm) = setup();
        let per_block = dev.geometry().pages_per_block;
        // Fill three user blocks.
        let mut pages = Vec::new();
        for i in 0..3 * per_block {
            let (d, s) = user_page(i);
            pages.push(bm.append(&mut dev, BlockGroup::User, d, s, IoPurpose::UserWrite));
        }
        let b0 = dev.geometry().block_of(pages[0]);
        let b1 = dev.geometry().block_of(pages[per_block as usize]);
        // Invalidate 2 pages in b0 and 5 in b1.
        for p in &pages[..2] {
            bm.page_obsolete(&mut dev, *p);
        }
        for p in &pages[per_block as usize..per_block as usize + 5] {
            bm.page_obsolete(&mut dev, *p);
        }
        assert_eq!(bm.pick_victim(&dev, |_| true), Some(b1));
        // Fully-valid or active blocks are never chosen.
        assert_ne!(
            bm.pick_victim(&dev, |_| true),
            Some(b0.min(b1).min(BlockId(2)))
        );
    }

    #[test]
    fn pick_victims_is_the_first_k_of_the_sorted_scan() {
        let (mut dev, mut bm) = setup();
        let per_block = dev.geometry().pages_per_block;
        // Fill 8 user blocks; the 8th stays the active block.
        let mut pages = Vec::new();
        for i in 0..8 * per_block {
            let (d, s) = user_page(i);
            pages.push(bm.append(&mut dev, BlockGroup::User, d, s, IoPurpose::UserWrite));
        }
        let obsolete = |bm: &mut BlockManager, dev: &mut FlashDevice, blk: u32, n: u32| {
            for p in &pages[(blk * per_block) as usize..][..n as usize] {
                bm.page_obsolete(dev, *p);
            }
        };
        // Block 1 is strictly best (8 invalid); blocks 0, 3, 4, 5 tie at 4
        // invalid and rank by block id.
        obsolete(&mut bm, &mut dev, 1, 8);
        for blk in [0u32, 3, 4, 5] {
            obsolete(&mut bm, &mut dev, blk, 4);
        }
        let user = |g| g == BlockGroup::User;
        let mut scan: Vec<(u32, BlockId)> = bm.victim_candidates(&dev, user).collect();
        scan.sort_unstable();
        let ranked: Vec<BlockId> = scan.into_iter().map(|(_, b)| b).collect();
        assert_eq!(ranked, [1, 0, 3, 4, 5].map(BlockId));
        // Including k = 0 and more victims than exist.
        for k in 0..=ranked.len() + 2 {
            let victims = bm.pick_victims(&dev, k, user);
            assert_eq!(victims, ranked[..k.min(ranked.len())], "k = {k}");
        }
        assert_eq!(bm.pick_victim(&dev, user), ranked.first().copied());
    }

    #[test]
    fn append_retries_on_program_failure() {
        let (mut dev, mut bm) = setup();
        let (d, s) = user_page(1);
        let p1 = bm.append(&mut dev, BlockGroup::User, d, s, IoPurpose::UserWrite);
        let b1 = dev.geometry().block_of(p1);
        // Fail the next program attempt: the active block goes bad and the
        // write must land on a fresh block, invisibly to the caller.
        dev.set_fault_plan(
            flash_sim::FaultPlan::new()
                .on_write(dev.write_attempts(), flash_sim::WriteFault::ProgramFail),
        );
        let (d, s) = user_page(2);
        let p2 = bm.append(&mut dev, BlockGroup::User, d, s, IoPurpose::UserWrite);
        let b2 = dev.geometry().block_of(p2);
        assert_ne!(b1, b2, "retry must move to a fresh block");
        assert!(dev.is_bad(b1));
        assert_eq!(bm.valid_pages(b1), 1, "pre-fault page stays valid");
        assert_eq!(bm.valid_pages(b2), 1);
        // The bad half-written block counts as sealed: GC can drain it.
        assert!(bm.is_victim_eligible(&dev, b1, |g| g == BlockGroup::User));
    }

    #[test]
    fn failed_erase_retires_block() {
        let (mut dev, mut bm) = setup();
        let per_block = dev.geometry().pages_per_block;
        let mut pages = Vec::new();
        for i in 0..=per_block {
            let (d, s) = user_page(i);
            pages.push(bm.append(&mut dev, BlockGroup::User, d, s, IoPurpose::UserWrite));
        }
        let first = dev.geometry().block_of(pages[0]);
        for p in &pages[..per_block as usize] {
            bm.page_obsolete(&mut dev, *p);
        }
        let free_before = bm.free_blocks();
        dev.set_fault_plan(
            flash_sim::FaultPlan::new().on_erase(dev.erase_attempts(), flash_sim::EraseFault::Fail),
        );
        bm.erase_and_free(&mut dev, first, IoPurpose::GcMigrateUser);
        assert!(bm.is_retired(first));
        assert_eq!(bm.retired_blocks(), 1);
        assert_eq!(bm.free_blocks(), free_before, "retired ≠ freed");
        assert_eq!(bm.valid_pages(first), 0);
        assert_eq!(bm.group_of(first), Some(BlockGroup::User), "stays InUse");
        // Never a victim again: no GC livelock on the unreclaimable block.
        assert!(!bm.is_victim_eligible(&dev, first, |_| true));
        assert_eq!(bm.pick_victim(&dev, |_| true), None);
    }

    #[test]
    fn recovered_free_pool_excludes_bad_blocks() {
        let (mut dev, bm) = setup();
        drop(bm);
        dev.mark_bad(BlockId(3));
        let geo = dev.geometry();
        let state = vec![BlockState::Free; geo.blocks as usize];
        let bvc = vec![0u32; geo.blocks as usize];
        let bm = BlockManager::from_recovered(&dev, geo, state, bvc, true);
        assert_eq!(bm.free_blocks(), geo.blocks as usize - 1);
    }

    /// One fixed scenario on a device of `blocks` blocks: how many blocks a
    /// user-only pick evaluated, and the bound the index promises.
    fn pick_work(blocks: u32) -> (usize, usize) {
        let geo = Geometry::new(blocks, 8, 4096, 0.7);
        let (mut dev, mut bm) = (FlashDevice::new(geo), BlockManager::new(geo));
        bm.erase_empty_metadata = false; // keep emptied translation blocks filed
        let mut fill = |bm: &mut BlockManager, group, pages: u32| -> Vec<Ppn> {
            (0..pages)
                .map(|i| {
                    let (data, info) = match group {
                        BlockGroup::User => user_page(i),
                        _ => (PageData::blob_of(i), SpareInfo::Translation { tpage: i }),
                    };
                    bm.append(&mut dev, group, data, info, IoPurpose::UserWrite)
                })
                .collect()
        };
        // Four sealed user blocks and an active one holding two pages; two
        // sealed translation blocks and an active one holding one page.
        let user = fill(&mut bm, BlockGroup::User, 4 * 8 + 2);
        let tran = fill(&mut bm, BlockGroup::Translation, 2 * 8 + 1);
        let mut obsolete = |bm: &mut BlockManager, pages: &[Ppn]| {
            for &p in pages {
                bm.page_obsolete(&mut dev, p);
            }
        };
        obsolete(&mut bm, &user[..8]); // user block 0: BVC 0, protected below
        obsolete(&mut bm, &user[8..12]); // user block 1: BVC 4 — the victim
        obsolete(&mut bm, &user[16..18]); // user block 2: BVC 6
        obsolete(&mut bm, &tran[..7]); // translation block 0: BVC 1
        obsolete(&mut bm, &tran[8..14]); // translation block 1: BVC 2
        bm.protect(Some(geo.block_of(user[0])), 0);
        let user_only = |g| g == BlockGroup::User;

        PICK_EVALUATIONS.with(|n| n.set(0));
        assert_eq!(bm.pick_victim(&dev, user_only), Some(geo.block_of(user[8])));
        let evaluated = PICK_EVALUATIONS.with(|n| n.get());
        let active = bm.active.iter().flatten().count();
        let filtered_out = bm.blocks_of_group(BlockGroup::Translation).count();
        (evaluated, active + bm.protected_count() + filtered_out + 1)
    }

    #[test]
    fn pick_work_is_bounded_and_independent_of_device_size() {
        let (small, bound) = pick_work(1024);
        let (large, _) = pick_work(16_384);
        assert!(small <= bound, "evaluated {small} blocks, bound {bound}");
        assert_eq!(small, 6, "protected, 3 translation, active user, victim");
        assert_eq!(large, small, "work must not grow with the device");
    }

    #[test]
    fn release_through_drops_only_stamps_it_has_passed() {
        let (mut dev, mut bm) = setup();
        let protected = |bm: &BlockManager| [4, 7, 9].map(|b| bm.is_protected(BlockId(b)));
        bm.protect(Some(BlockId(9)), 30);
        bm.protect(Some(BlockId(4)), 10);
        bm.protect(Some(BlockId(7)), 20);
        bm.protect(Some(BlockId(4)), 40); // re-protected: the newer stamp holds
        bm.protect(Some(BlockId(9)), 5); // an older stamp never shortens one
        bm.protect(None, 25); // a page's first version protects nothing
        assert_eq!((bm.chain_len(), bm.protected_count()), (6, 3));
        bm.release_through(&mut dev, 9);
        assert_eq!(protected(&bm), [true; 3]);
        assert_eq!(bm.chain_len(), 5, "only the link stamped 5 is released");
        bm.release_through(&mut dev, 30);
        assert_eq!(protected(&bm), [true, false, false]);
        assert_eq!(bm.chain_len(), 1);
        bm.release_through(&mut dev, u64::MAX);
        assert_eq!(protected(&bm), [false; 3]);
        assert_eq!((bm.chain_len(), bm.protected_count()), (0, 0));
    }

    #[test]
    fn release_through_erases_an_emptied_protected_block() {
        let (mut dev, mut bm) = setup();
        let per_block = dev.geometry().pages_per_block;
        // Fill one translation block and roll into a second so the first
        // seals, then protect it and supersede every page on it.
        let pages: Vec<Ppn> = (0..=per_block)
            .map(|i| {
                bm.append(
                    &mut dev,
                    BlockGroup::Translation,
                    PageData::blob_of(i),
                    SpareInfo::Translation { tpage: i },
                    IoPurpose::TranslationSync,
                )
            })
            .collect();
        let first = dev.geometry().block_of(pages[0]);
        bm.protect(Some(first), 7);
        for p in &pages[..per_block as usize] {
            bm.page_obsolete(&mut dev, *p);
        }
        assert_eq!(bm.group_of(first), Some(BlockGroup::Translation), "kept");
        bm.release_through(&mut dev, 6);
        assert_eq!(dev.erase_count(first), 0, "the stamp is not passed yet");
        bm.release_through(&mut dev, 7);
        assert_eq!(bm.group_of(first), None, "erased on release");
        assert_eq!(dev.erase_count(first), 1);
    }

    #[test]
    fn victim_selection_respects_group_filter() {
        let (mut dev, mut bm) = setup();
        let per_block = dev.geometry().pages_per_block;
        let mut pages = Vec::new();
        for i in 0..=per_block {
            pages.push(bm.append_meta(
                &mut dev,
                MetaKind::Pvb,
                MetaTag::Id(i as u64),
                PageData::blob_of(i),
                IoPurpose::ValidityUpdate,
            ));
        }
        bm.meta_page_obsolete(&mut dev, pages[0]);
        assert!(bm.pick_victim(&dev, |g| g == BlockGroup::User).is_none());
        assert!(bm.pick_victim(&dev, |g| g.is_metadata()).is_some());
    }
}
