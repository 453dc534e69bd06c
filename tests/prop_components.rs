//! Property tests for the engine's supporting components: the LRU mapping
//! cache against an ordered-map reference model, the flash-resident
//! translation table against a plain map under arbitrary synchronization
//! sequences, and the block manager's victim index against the linear scan.

use geckoftl::flash_sim::{
    BlockId, EraseFault, FaultPlan, FlashDevice, Geometry, IoPurpose, Lpn, MetaKind, MetaTag,
    PageData, Ppn, SpareInfo, WriteFault,
};
use geckoftl::geckoftl_core::cache::{CacheEntry, MappingCache};
use geckoftl::geckoftl_core::ftl::{BlockGroup, BlockManager, BlockState};
use geckoftl::geckoftl_core::translation::TranslationTable;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Insert(u32, u32, bool),
    Promote(u32),
    Remove(u32),
    PopLru,
    SetDirty(u32, bool),
}

/// 64 LPNs spread over `[0, 2584)`: the cache's LPN → slot table grows in
/// 1024-LPN steps, so a sequence grows it up to three times, in any order.
const LPN_STRIDE: u32 = 41;
const LPN_END: u32 = 64 * LPN_STRIDE;

fn cache_lpn() -> impl Strategy<Value = u32> {
    (0u32..64).prop_map(|i| i * LPN_STRIDE)
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        4 => (cache_lpn(), 0u32..1000, any::<bool>()).prop_map(|(l, p, d)| CacheOp::Insert(l, p, d)),
        2 => cache_lpn().prop_map(CacheOp::Promote),
        1 => cache_lpn().prop_map(CacheOp::Remove),
        1 => Just(CacheOp::PopLru),
        2 => (cache_lpn(), any::<bool>()).prop_map(|(l, d)| CacheOp::SetDirty(l, d)),
    ]
}

/// Reference model: a Vec in LRU order (front = LRU) plus an ordered map of
/// entry data — the tree of the paper's footnote 6.
#[derive(Default)]
struct LruModel {
    order: Vec<u32>,
    data: BTreeMap<u32, (u32, bool)>, // lpn -> (ppn, dirty)
}

impl LruModel {
    fn touch(&mut self, lpn: u32) {
        self.order.retain(|l| *l != lpn);
        self.order.push(lpn);
    }
}

/// One step of a block-manager history. `pick` fields choose among whatever
/// blocks or pages exist when the step runs (modulo their number).
#[derive(Clone, Copy, Debug)]
enum BmOp {
    /// Append `pages` pages to group `BlockGroup::ALL[group]`; with
    /// `program_fail`, the first program attempt fails (the active block
    /// goes bad and the write retries on a fresh block).
    Append {
        group: usize,
        pages: u32,
        program_fail: bool,
    },
    Obsolete {
        pick: usize,
    },
    /// Add a version-chain link stamped `stamp`, protecting a block or, one
    /// pick in `blocks + 1`, none (a translation page's first version).
    Protect {
        pick: usize,
        stamp: u64,
    },
    /// Release every link stamped at or before `seq`, erasing each released
    /// block that is empty.
    ReleaseThrough {
        seq: u64,
    },
    /// `erase_and_free` a non-active block; with `fail`, the erase fails and
    /// the block is retired.
    Erase {
        pick: usize,
        fail: bool,
    },
    MarkBad {
        pick: usize,
    },
    /// Rebuild the manager with `from_recovered` from its own public state.
    Recover,
}

fn bm_op() -> impl Strategy<Value = BmOp> {
    prop_oneof![
        8 => (0usize..5, 1u32..24, 0u32..12).prop_map(|(group, pages, f)| BmOp::Append {
            group,
            pages,
            program_fail: f == 0,
        }),
        12 => (0usize..4096).prop_map(|pick| BmOp::Obsolete { pick }),
        2 => (0usize..64, 0u64..16).prop_map(|(pick, stamp)| BmOp::Protect { pick, stamp }),
        1 => (0u64..16).prop_map(|seq| BmOp::ReleaseThrough { seq }),
        4 => (0usize..64, 0u32..4).prop_map(|(pick, f)| BmOp::Erase { pick, fail: f == 0 }),
        1 => (0usize..64).prop_map(|pick| BmOp::MarkBad { pick }),
        1 => Just(BmOp::Recover),
    ]
}

/// The linear scan `pick_victim` must agree with, from public parts only:
/// the eligible block with the fewest valid pages, lowest id among equals.
fn scan_oracle(
    bm: &BlockManager,
    dev: &FlashDevice,
    eligible: impl Fn(BlockGroup) -> bool,
) -> Option<BlockId> {
    dev.geometry()
        .iter_blocks()
        .filter(|&b| bm.is_victim_eligible(dev, b, &eligible))
        .min_by_key(|&b| (bm.valid_pages(b), b))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn victim_index_matches_linear_scan(ops in prop::collection::vec(bm_op(), 1..250)) {
        // Few, small blocks: histories seal blocks quickly and cycle the
        // free pool, so freed blocks are allocated again.
        let geo = Geometry::new(24, 8, 4096, 0.7);
        let mut dev = FlashDevice::new(geo);
        let mut bm = BlockManager::new(geo);
        // Pages written and not yet reported obsolete, in write order.
        let mut live: Vec<Ppn> = Vec::new();
        // Stamps of the version-chain links not yet released.
        let mut chain: Vec<u64> = Vec::new();
        let in_use = |bm: &BlockManager| -> Vec<BlockId> {
            geo.iter_blocks().filter(|&b| bm.group_of(b).is_some()).collect()
        };

        for op in ops {
            match op {
                BmOp::Append { group, pages, program_fail } => {
                    let group = BlockGroup::ALL[group];
                    if program_fail {
                        let next = dev.write_attempts();
                        dev.set_fault_plan(FaultPlan::new().on_write(next, WriteFault::ProgramFail));
                    }
                    for i in 0..pages {
                        if bm.free_blocks() < 2 {
                            break; // no GC here: keep a reserve for the retry
                        }
                        let info = match group {
                            BlockGroup::User => SpareInfo::User { lpn: Lpn(i), before: None },
                            BlockGroup::Translation => SpareInfo::Translation { tpage: i, before: None },
                            BlockGroup::Meta(kind) => SpareInfo::Meta { kind, tag: MetaTag::Id(i as u64) },
                        };
                        live.push(bm.append(&mut dev, group, PageData::blob_of(i), info, IoPurpose::UserWrite));
                    }
                }
                BmOp::Obsolete { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let ppn = live.swap_remove(pick % live.len());
                    if bm.valid_pages(geo.block_of(ppn)) > 0 {
                        bm.page_obsolete(&mut dev, ppn);
                    }
                }
                BmOp::Protect { pick, stamp } => {
                    let blocks = in_use(&bm);
                    bm.protect(blocks.get(pick % (blocks.len() + 1)).copied(), stamp);
                    chain.push(stamp);
                }
                BmOp::ReleaseThrough { seq } => {
                    bm.release_through(&mut dev, seq);
                    chain.retain(|&stamp| stamp > seq);
                }
                BmOp::Erase { pick, fail } => {
                    let blocks: Vec<BlockId> = in_use(&bm)
                        .into_iter()
                        .filter(|&b| !bm.is_active(b) && !bm.is_retired(b))
                        .collect();
                    if blocks.is_empty() {
                        continue;
                    }
                    if fail {
                        let next = dev.erase_attempts();
                        dev.set_fault_plan(FaultPlan::new().on_erase(next, EraseFault::Fail));
                    }
                    let block = blocks[pick % blocks.len()];
                    let freed = bm.erase_and_free(&mut dev, block, IoPurpose::GcMigrateUser);
                    prop_assert_eq!(freed, !bm.is_retired(block));
                }
                BmOp::MarkBad { pick } => {
                    // Only allocated blocks: the free pool never holds a bad one.
                    let blocks = in_use(&bm);
                    if !blocks.is_empty() {
                        dev.mark_bad(blocks[pick % blocks.len()]);
                    }
                }
                BmOp::Recover => {
                    let state: Vec<BlockState> = geo
                        .iter_blocks()
                        .map(|b| bm.group_of(b).map_or(BlockState::Free, BlockState::InUse))
                        .collect();
                    let bvc: Vec<u32> = geo.iter_blocks().map(|b| bm.valid_pages(b)).collect();
                    let mut recovered =
                        BlockManager::from_recovered(&dev, geo, state, bvc, bm.erase_empty_metadata);
                    // As GeckoRec does with the half-full blocks it finds.
                    for b in in_use(&bm) {
                        if bm.is_active(b) && !dev.block_is_full(b) && !dev.is_bad(b) {
                            recovered.adopt_active(b, bm.group_of(b).expect("in use"));
                        }
                    }
                    bm = recovered;
                    chain.clear();
                }
            }
            // Pages of blocks freed (or retired) by this step are gone.
            live.retain(|&p| {
                let b = geo.block_of(p);
                bm.group_of(b).is_some() && !bm.is_retired(b) && dev.is_written(p)
            });

            prop_assert_eq!(bm.chain_len(), chain.len());
            prop_assert_eq!(bm.pick_victim(&dev, |_| true), scan_oracle(&bm, &dev, |_| true));
            let user_only = |g| g == BlockGroup::User;
            prop_assert_eq!(bm.pick_victim(&dev, user_only), scan_oracle(&bm, &dev, user_only));
            // `GcPolicy::GreedyAll` with a flash-resident PVB as the store.
            let greedy_all = |g| match g {
                BlockGroup::User | BlockGroup::Translation => true,
                BlockGroup::Meta(kind) => kind == MetaKind::Pvb,
            };
            prop_assert_eq!(bm.pick_victim(&dev, greedy_all), scan_oracle(&bm, &dev, greedy_all));
        }
    }

    #[test]
    fn mapping_cache_matches_lru_model(ops in prop::collection::vec(cache_op(), 1..300)) {
        let capacity = 16;
        let mut cache = MappingCache::new(capacity);
        let mut model = LruModel::default();
        // Reused across queries: each one must replace the last one's rows.
        let mut got_range: Vec<(Lpn, Ppn)> = Vec::new();

        for op in ops {
            match op {
                CacheOp::Insert(lpn, ppn, dirty) => {
                    if model.data.contains_key(&lpn) {
                        continue; // cache forbids duplicate inserts
                    }
                    if model.data.len() == capacity {
                        // evict LRU in both
                        let victim = model.order.remove(0);
                        model.data.remove(&victim);
                        let popped = cache.pop_lru().expect("full cache pops");
                        prop_assert_eq!(popped.lpn, Lpn(victim));
                    }
                    cache.insert(CacheEntry {
                        lpn: Lpn(lpn),
                        ppn: Ppn(ppn),
                        dirty,
                        uip: false,
                        uncertain: false,
                        written_epoch: 0,
                    });
                    model.data.insert(lpn, (ppn, dirty));
                    model.touch(lpn);
                }
                CacheOp::Promote(lpn) => {
                    cache.promote(Lpn(lpn));
                    if model.data.contains_key(&lpn) {
                        model.touch(lpn);
                    }
                }
                CacheOp::Remove(lpn) => {
                    let got = cache.remove(Lpn(lpn));
                    let want = model.data.remove(&lpn);
                    model.order.retain(|l| *l != lpn);
                    prop_assert_eq!(got.map(|e| (e.ppn.0, e.dirty)), want);
                }
                CacheOp::PopLru => {
                    let got = cache.pop_lru();
                    if model.order.is_empty() {
                        prop_assert!(got.is_none());
                    } else {
                        let victim = model.order.remove(0);
                        model.data.remove(&victim);
                        prop_assert_eq!(got.expect("nonempty").lpn, Lpn(victim));
                    }
                }
                CacheOp::SetDirty(lpn, dirty) => {
                    cache.update_entry(Lpn(lpn), |e| e.dirty = dirty);
                    if let Some(v) = model.data.get_mut(&lpn) {
                        v.1 = dirty;
                    }
                }
            }
            // Invariants after every op.
            prop_assert_eq!(cache.len(), model.data.len());
            let dirty_model = model.data.values().filter(|(_, d)| *d).count();
            prop_assert_eq!(cache.dirty_count(), dirty_model);
            let order: Vec<u32> = cache.iter_lru_order().map(|e| e.lpn.0).collect();
            prop_assert_eq!(&order, &model.order);
            // Point lookups agree on every LPN of the domain, on the
            // never-inserted LPNs between them, and beyond the table's end.
            let domain = (0..LPN_END).step_by(LPN_STRIDE as usize);
            for lpn in domain.flat_map(|l| [l, l + 1]).chain([LPN_END + 5000, u32::MAX]) {
                let got = cache.lookup(Lpn(lpn)).map(|e| (e.ppn.0, e.dirty));
                prop_assert_eq!(got, model.data.get(&lpn).copied(), "lookup of {}", lpn);
            }
            // The range query (served by the per-LPN dirty bits) returns
            // what the ordered map's range would, in LPN order: translation
            // pages, ranges that split a 64-bit word or a 1 024-LPN growth
            // step at either end, ranges that start inside the table and end
            // beyond it or lie wholly beyond it, and empty ranges.
            for (lo, hi) in [
                (0, 1024),
                (1024, 2048),
                (2048, 3072),
                (500, 1500),
                (0, u32::MAX),
                (37, 1000),
                (41, 42),
                (63, 65),
                (64, 128),
                (1000, 1100),
                (2009, 5000),
                (LPN_END + 5000, u32::MAX),
                (700, 700),
                (0, 0),
            ] {
                let want: Vec<(Lpn, Ppn)> = model
                    .data
                    .range(lo..hi)
                    .filter(|(_, (_, dirty))| *dirty)
                    .map(|(l, (p, _))| (Lpn(*l), Ppn(*p)))
                    .collect();
                cache.dirty_in_range(Lpn(lo), Lpn(hi), &mut got_range);
                prop_assert_eq!(&got_range, &want, "dirty entries of [{}, {})", lo, hi);
            }
        }
    }

    /// The clean-first pick (`MappingCache::clean_victim`: an intrusive list
    /// of the window's clean entries, the entries a sync cleaned merged into
    /// it by stamp, and a pointer to the window's edge) names the entry a
    /// walk of the window from the LRU end finds, after every op of random
    /// sequences that insert (evicting by the pick), promote, remove, dirty
    /// and clean entries, at capacities 1 to 40, so windows of 1 to 20.
    #[test]
    fn clean_first_pick_matches_the_window_scan(
        capacity in 1usize..40,
        ops in prop::collection::vec((cache_op(), any::<bool>()), 1..400),
    ) {
        let mut cache = MappingCache::new(capacity);
        for (op, then_evict) in ops {
            match op {
                CacheOp::Insert(lpn, ppn, dirty) => {
                    if cache.lookup(Lpn(lpn)).is_some() {
                        continue;
                    }
                    if cache.is_full() {
                        let victim = cache
                            .clean_victim()
                            .unwrap_or_else(|| cache.peek_lru().expect("full").lpn);
                        cache.remove(victim);
                    }
                    cache.insert(CacheEntry {
                        lpn: Lpn(lpn),
                        ppn: Ppn(ppn),
                        dirty,
                        uip: false,
                        uncertain: false,
                        written_epoch: 0,
                    });
                }
                CacheOp::Promote(lpn) => cache.promote(Lpn(lpn)),
                CacheOp::Remove(lpn) => drop(cache.remove(Lpn(lpn))),
                CacheOp::PopLru => drop(cache.pop_lru()),
                CacheOp::SetDirty(lpn, dirty) => {
                    cache.update_entry(Lpn(lpn), |e| e.dirty = dirty);
                }
            }
            if then_evict {
                if let Some(victim) = cache.clean_victim() {
                    cache.remove(victim);
                }
            }
            let scan = cache.clean_victim_by_scan();
            prop_assert_eq!(cache.clean_victim(), scan);
        }
    }

    #[test]
    fn translation_table_matches_map_model(
        batches in prop::collection::vec(
            prop::collection::vec((0u32..716, 1u32..100_000), 1..12),
            1..40,
        ),
    ) {
        let geo = Geometry::tiny();
        let mut dev = FlashDevice::new(geo);
        let mut bm = BlockManager::new(geo);
        let mut tt = TranslationTable::new(geo);
        tt.format(&mut dev, &mut bm);
        let mut model: HashMap<u32, u32> = HashMap::new();

        for batch in batches {
            // Deduplicate lpns within a batch (a sync has one value per lpn)
            // and skip no-op updates (engine never syncs an unchanged value).
            let mut updates: Vec<(Lpn, Ppn)> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (lpn, ppn) in batch {
                if seen.insert(lpn) && model.get(&lpn) != Some(&ppn) {
                    updates.push((Lpn(lpn), Ppn(ppn)));
                }
            }
            if updates.is_empty() {
                continue;
            }
            let before: Vec<Option<u32>> =
                updates.iter().map(|(l, _)| model.get(&l.0).copied()).collect();
            let outcome = tt.synchronize(&mut dev, &mut bm, 0, &updates);
            // Before-images reported by the table equal the model's priors.
            prop_assert_eq!(outcome.before_images.len(), updates.len());
            for (((lpn, new), (got_lpn, got_before)), want_before) in
                updates.iter().zip(&outcome.before_images).zip(before)
            {
                prop_assert_eq!(lpn, got_lpn);
                prop_assert_eq!(got_before.map(|p| p.0), want_before);
                model.insert(lpn.0, new.0);
            }
        }
        // Final lookups agree with the model for every lpn.
        for lpn in 0..716u32 {
            let got = tt.lookup(&mut dev, Lpn(lpn), IoPurpose::TranslationFetch);
            prop_assert_eq!(got.map(|p| p.0), model.get(&lpn).copied());
        }
    }
}
