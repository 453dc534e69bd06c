//! Property-based tests (proptest) for Logarithmic Gecko: for *any*
//! sequence of invalidations and erases, under *any* tuning, the structure
//! answers GC queries exactly like a plain RAM bitmap (docs/DESIGN.md
//! invariant 1), and its structural invariants hold. The RAM buffer's
//! position index is checked against the ordered map it replaced.

use geckoftl::flash_sim::{BlockId, FlashDevice, Geometry, IoPurpose, Ppn};
use geckoftl::geckoftl_core::gecko::{
    GeckoConfig, GeckoKey, GeckoPagePayload, LogGecko, ShardedGecko,
};
use geckoftl::geckoftl_core::validity::{FlatMetaSink, ValidityStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Abstract operations over the user blocks 0..32 of the tiny geometry.
#[derive(Clone, Copy, Debug)]
enum Op {
    Invalidate(u32), // page in 0..512 (32 blocks × 16 pages)
    Erase(u32),      // block in 0..32
    Query(u32),      // block in 0..32
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..512).prop_map(Op::Invalidate),
        1 => (0u32..32).prop_map(Op::Erase),
        1 => (0u32..32).prop_map(Op::Query),
    ]
}

/// Reference model: exact per-block invalid flags.
#[derive(Default)]
struct Model {
    invalid: std::collections::HashMap<u32, Vec<bool>>,
}

fn check_all_blocks(gecko: &mut LogGecko, dev: &mut FlashDevice, model: &Model, geo: &Geometry) {
    for b in 0..32u32 {
        let got = gecko.gc_query(dev, BlockId(b));
        let want = model.invalid.get(&b);
        for i in 0..geo.pages_per_block {
            let w = want.is_some_and(|v| v[i as usize]);
            assert_eq!(got.get(i), w, "block {b} bit {i}");
        }
    }
}

/// `pump_budget`: `None` runs the synchronous A/B mode (merges complete
/// inside the update path, so every op observes a settled structure);
/// `Some(n)` runs the incremental scheduler, pumping `n` page-IOs per op —
/// mid-flight a level may legally hold both (still queryable) participants
/// of a pending merge, so the one-run-per-level invariant is checked only
/// once the scheduler drains.
fn run_case(
    ops: &[Op],
    size_ratio: u32,
    partitions: u32,
    multiway: bool,
    header: u32,
    pump_budget: Option<u64>,
) {
    let geo = Geometry::tiny();
    let mut dev = FlashDevice::new(geo);
    let mut sink = FlatMetaSink::new((32..64).map(BlockId).collect());
    let cfg = GeckoConfig {
        size_ratio,
        partitions,
        multiway_merge: multiway,
        page_header_bytes: header,
        sync_merge: pump_budget.is_none(),
        ..GeckoConfig::default()
    };
    let mut gecko = LogGecko::new(geo, cfg);
    let mut model = Model::default();
    let b = geo.pages_per_block as usize;

    for op in ops {
        match *op {
            Op::Invalidate(p) => {
                gecko.mark_invalid(&mut dev, &mut sink, Ppn(p));
                model
                    .invalid
                    .entry(p / 16)
                    .or_insert_with(|| vec![false; b])[(p % 16) as usize] = true;
            }
            Op::Erase(blk) => {
                gecko.note_erase(&mut dev, &mut sink, BlockId(blk));
                model.invalid.insert(blk, vec![false; b]);
            }
            Op::Query(blk) => {
                let got = gecko.gc_query(&mut dev, BlockId(blk));
                let want = model.invalid.get(&blk);
                for i in 0..geo.pages_per_block {
                    let w = want.is_some_and(|v| v[i as usize]);
                    assert_eq!(got.get(i), w, "mid-run query: block {blk} bit {i}");
                }
            }
        }
        if let Some(budget) = pump_budget {
            gecko.pump_merges(&mut dev, &mut sink, budget);
        }
        // Structural invariant: each level holds at most one settled run
        // (plus, mid-merge, the ≤ 2 participants of the pending job).
        let cap = if pump_budget.is_some() { 2 } else { 1 };
        for (lvl, count) in
            gecko
                .runs_newest_first()
                .fold(std::collections::HashMap::new(), |mut m, r| {
                    *m.entry(r.meta.level).or_insert(0u32) += 1;
                    m
                })
        {
            assert!(count <= cap, "level {lvl} holds {count} runs");
        }
    }
    gecko.drain_merges(&mut dev, &mut sink);
    for (lvl, count) in
        gecko
            .runs_newest_first()
            .fold(std::collections::HashMap::new(), |mut m, r| {
                *m.entry(r.meta.level).or_insert(0u32) += 1;
                m
            })
    {
        assert!(count <= 1, "settled level {lvl} holds {count} runs");
    }
    check_all_blocks(&mut gecko, &mut dev, &model, &geo);

    // Space bound: live entries never exceed ~2× the key universe + slack.
    let max_live = 32 * partitions as u64;
    assert!(
        gecko.total_run_entries() <= 3 * max_live + 64,
        "space amplification blown: {} entries for {} keys",
        gecko.total_run_entries(),
        max_live
    );
}

/// Operations on the RAM buffer, over the user blocks 0..32 of the tiny
/// geometry.
#[derive(Clone, Debug)]
enum BufferOp {
    Invalidate(u32),
    /// One synchronization's reports: all buffered before any flush check.
    Batch(Vec<u32>),
    Erase(u32),
    Flush,
}

fn buffer_op_strategy() -> impl Strategy<Value = BufferOp> {
    prop_oneof![
        6 => (0u32..512).prop_map(BufferOp::Invalidate),
        3 => prop::collection::vec(0u32..512, 1..24).prop_map(BufferOp::Batch),
        3 => (0u32..32).prop_map(BufferOp::Erase),
        1 => Just(BufferOp::Flush),
    ]
}

/// What the buffer was before it became a vector behind a position index:
/// an ordered map from key to `(bits, erase flag)`.
type BufferModel = BTreeMap<GeckoKey, (u32, bool)>;

/// One tree of a `shards`-way store with the ordered-map model of its buffer.
struct ModelledTree {
    tree: LogGecko,
    buffer: BufferModel,
}

/// The `shards` trees of a store, driven one by one over a shared device the
/// way [`ShardedGecko`] drives them, so each can be checked against its
/// model and asked for naive queries; `twin` is the real [`ShardedGecko`] fed
/// the same operations on a device of its own, which must end up with the
/// same runs on the same pages.
struct BufferHarness {
    geo: Geometry,
    cfg: GeckoConfig,
    dev: FlashDevice,
    sink: FlatMetaSink,
    trees: Vec<ModelledTree>,
    /// Exact per-page invalid flags: the query oracle.
    invalid: Vec<bool>,
    twin: ShardedGecko,
    twin_dev: FlashDevice,
    twin_sink: FlatMetaSink,
}

impl BufferHarness {
    fn new(cfg: GeckoConfig) -> Self {
        let geo = Geometry::tiny();
        let trees = (0..cfg.shards)
            .map(|_| ModelledTree {
                tree: LogGecko::new(geo, cfg),
                buffer: BufferModel::new(),
            })
            .collect();
        BufferHarness {
            geo,
            cfg,
            dev: FlashDevice::new(geo),
            sink: FlatMetaSink::new((32..64).map(BlockId).collect()),
            trees,
            invalid: vec![false; 32 * geo.pages_per_block as usize],
            twin: ShardedGecko::new(geo, cfg),
            twin_dev: FlashDevice::new(geo),
            twin_sink: FlatMetaSink::new((32..64).map(BlockId).collect()),
        }
    }

    fn shard_of(&self, block: u32) -> usize {
        (block % self.cfg.shards) as usize
    }

    fn model_invalidate(&mut self, page: u32) {
        let (b, sub) = (self.geo.pages_per_block, self.cfg.sub_bits(&self.geo));
        let (block, off) = (page / b, page % b);
        let key = GeckoKey {
            block: BlockId(block),
            part: (off / sub) as u16,
        };
        let shard = self.shard_of(block);
        self.trees[shard].buffer.entry(key).or_insert((0, false)).0 |= 1 << (off % sub);
        self.invalid[page as usize] = true;
    }

    /// Everything a flush of `shard` must have done, given the device
    /// sequence just before the operation that tripped it: one run holding
    /// the model's entries in key order, V to a page, at the level its page
    /// count calls for, certifying its own creation time. Empties the model.
    fn check_flush(&mut self, shard: usize, seq_before: u64) {
        let v = self.cfg.entries_per_page(&self.geo) as usize;
        let sub = self.cfg.sub_bits(&self.geo);
        let ModelledTree { tree, buffer } = &mut self.trees[shard];
        let want: Vec<(GeckoKey, (u32, bool))> = std::mem::take(buffer).into_iter().collect();
        assert_eq!(tree.buffer_len(), 0, "a flush empties the buffer");
        let flushed: Vec<_> = tree
            .runs_newest_first()
            // A flush run's span is its creation time; a merge output's is its
            // inputs'.
            .filter(|r| r.meta.span() == (r.meta.id.0, r.meta.id.0))
            .filter(|r| r.meta.id.0 >= seq_before)
            .collect();
        let [run] = flushed[..] else {
            panic!("shard {shard}: {} runs for one flush", flushed.len());
        };
        assert_eq!(run.pages.len(), want.len().div_ceil(v), "V entries a page");
        assert_eq!(run.meta.level, self.cfg.level_for(run.num_pages()));
        assert_eq!(tree.last_flush_seq(), run.meta.id.0, "its own watermark");
        for (i, (page, chunk)) in run.pages.iter().zip(want.chunks(v)).enumerate() {
            let data = self
                .dev
                .read_page(page.ppn, IoPurpose::ValidityQuery)
                .unwrap();
            let payload = data.blob::<GeckoPagePayload>().unwrap();
            let got: Vec<(GeckoKey, (u32, bool))> = payload
                .entries
                .iter()
                .map(|e| {
                    assert_eq!(e.bitmap.len(), sub);
                    let bits = e.bitmap.iter_ones().fold(0u32, |m, bit| m | 1 << bit);
                    (e.key, (bits, e.erase_flag))
                })
                .collect();
            assert_eq!(got, chunk, "page {i} of shard {shard}");
            assert_eq!(
                (page.first, page.last),
                (chunk[0].0, chunk[chunk.len() - 1].0)
            );
        }
        // Settle, so the next flush's runs are the only unmerged ones and
        // merge debt never reaches the flush's backpressure valve.
        tree.drain_merges(&mut self.dev, &mut self.sink);
    }

    /// Apply `op` to the trees, the models and the twin; `touched` shards
    /// check their flush threshold the way the store does.
    fn apply(&mut self, op: &BufferOp) {
        let v = self.cfg.entries_per_page(&self.geo) as usize;
        let seq_before = self.dev.now_seq();
        let mut flush_expected = vec![false; self.trees.len()];
        match op {
            BufferOp::Invalidate(page) => {
                let shard = self.shard_of(page / self.geo.pages_per_block);
                self.trees[shard]
                    .tree
                    .mark_invalid(&mut self.dev, &mut self.sink, Ppn(*page));
                self.twin
                    .mark_invalid(&mut self.twin_dev, &mut self.twin_sink, Ppn(*page));
                self.model_invalidate(*page);
                flush_expected[shard] = self.trees[shard].buffer.len() >= v;
            }
            BufferOp::Batch(pages) => {
                let ppns: Vec<Ppn> = pages.iter().map(|p| Ppn(*p)).collect();
                let (b, shards) = (self.geo.pages_per_block, self.cfg.shards);
                for (shard, t) in (0..shards).zip(&mut self.trees) {
                    let mine = ppns.iter().copied().filter(|p| p.0 / b % shards == shard);
                    flush_expected[shard as usize] = mine.clone().next().is_some();
                    t.tree
                        .mark_invalid_batch(&mut self.dev, &mut self.sink, mine);
                }
                self.twin
                    .mark_invalid_batch(&mut self.twin_dev, &mut self.twin_sink, &ppns);
                for page in pages {
                    self.model_invalidate(*page);
                }
                for (shard, expected) in flush_expected.iter_mut().enumerate() {
                    *expected &= self.trees[shard].buffer.len() >= v;
                }
            }
            BufferOp::Erase(block) => {
                let shard = self.shard_of(*block);
                self.trees[shard]
                    .tree
                    .note_erase(&mut self.dev, &mut self.sink, BlockId(*block));
                self.twin
                    .note_erase(&mut self.twin_dev, &mut self.twin_sink, BlockId(*block));
                // The marker replaces whatever was buffered for the key.
                for part in 0..self.cfg.partitions as u16 {
                    let key = GeckoKey {
                        block: BlockId(*block),
                        part,
                    };
                    self.trees[shard].buffer.insert(key, (0, true));
                }
                let b = self.geo.pages_per_block as usize;
                self.invalid[*block as usize * b..][..b].fill(false);
                flush_expected[shard] = self.trees[shard].buffer.len() >= v;
            }
            BufferOp::Flush => {
                for (shard, t) in self.trees.iter_mut().enumerate() {
                    t.tree.flush(&mut self.dev, &mut self.sink);
                    flush_expected[shard] = !t.buffer.is_empty();
                }
                self.twin.flush(&mut self.twin_dev, &mut self.twin_sink);
            }
        }
        for (shard, flushed) in flush_expected.into_iter().enumerate() {
            if flushed {
                self.check_flush(shard, seq_before);
            } else {
                let t = &self.trees[shard];
                assert_eq!(t.tree.buffer_len(), t.buffer.len(), "shard {shard} buffer");
            }
        }
        self.twin
            .drain_merges(&mut self.twin_dev, &mut self.twin_sink);
        let buffered: usize = self.trees.iter().map(|t| t.buffer.len()).sum();
        assert_eq!(self.twin.buffer_len(), buffered);
    }

    /// Fast path, naive oracle and exact model agree on `block`.
    fn check_query(&mut self, block: u32) {
        let shard = self.shard_of(block);
        let tree = &mut self.trees[shard].tree;
        let fast = tree.gc_query(&mut self.dev, BlockId(block));
        let naive = tree.gc_query_naive(&mut self.dev, BlockId(block));
        assert_eq!(fast, naive, "fast vs naive, block {block}");
        let twin = self
            .twin
            .gc_query(&mut self.twin_dev, &mut self.twin_sink, BlockId(block));
        assert_eq!(fast, twin);
        let b = self.geo.pages_per_block;
        for i in 0..b {
            assert_eq!(
                fast.get(i),
                self.invalid[(block * b + i) as usize],
                "block {block} bit {i}"
            );
        }
    }
}

fn run_buffer_case(ops: &[BufferOp], partitions: u32, shards: u32, v: u32) {
    let geo = Geometry::tiny();
    let mut cfg = GeckoConfig {
        partitions,
        shards,
        ..GeckoConfig::default()
    };
    // The header that leaves room for exactly `v` entries and a half.
    cfg.page_header_bytes = geo.page_bytes - (2 * v + 1) * cfg.bits_per_entry(&geo) / 16;
    assert_eq!(cfg.entries_per_page(&geo), v);
    let mut h = BufferHarness::new(cfg);

    for (step, op) in ops.iter().enumerate() {
        h.apply(op);
        // After every step: the block the op touched, and one that rotates.
        let touched = match op {
            BufferOp::Invalidate(page) => page / geo.pages_per_block,
            BufferOp::Batch(pages) => pages[0] / geo.pages_per_block,
            BufferOp::Erase(block) => *block,
            BufferOp::Flush => 0,
        };
        h.check_query(touched);
        h.check_query(step as u32 % 32);
    }

    // The stand-alone trees and the real store wrote the same runs to the
    // same pages.
    let ours = h.trees.iter().flat_map(|t| t.tree.runs_newest_first());
    let ours: Vec<_> = ours.map(|r| (r.meta.clone(), r.pages.clone())).collect();
    let twins: Vec<_> = h
        .twin
        .all_runs()
        .map(|r| (r.meta.clone(), r.pages.clone()))
        .collect();
    assert_eq!(ours, twins);

    // Recovery round trip: rebuild every tree from its runs and refill its
    // buffer from what the model says was lost with RAM (App. C.2).
    for shard in 0..h.trees.len() {
        let runs = h.trees[shard].tree.runs_newest_first().cloned().collect();
        let mut rebuilt = LogGecko::from_recovered(geo, cfg, runs);
        let sub = cfg.sub_bits(&geo);
        let lost = h.trees[shard].buffer.clone();
        for (key, (_, erased)) in &lost {
            if *erased && key.part == 0 {
                rebuilt.recover_erase_marker(key.block);
            }
        }
        for (key, (bits, _)) in &lost {
            for bit in (0..sub).filter(|bit| bits >> bit & 1 == 1) {
                let offset = key.part as u32 * sub + bit;
                rebuilt.recover_invalidation(Ppn(key.block.0 * geo.pages_per_block + offset));
            }
        }
        assert_eq!(rebuilt.buffer_len(), lost.len());
        h.trees[shard].tree = rebuilt;
    }
    for block in 0..32 {
        h.check_query(block);
    }
    // ... and the refilled buffers flush exactly what the models hold.
    h.apply(&BufferOp::Flush);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn gecko_matches_bitmap_model_default_tuning(ops in prop::collection::vec(op_strategy(), 1..600)) {
        // Small pages (large header) so flushes and merges actually happen.
        run_case(&ops, 2, 1, true, 4096 - 64, None);
    }

    #[test]
    fn gecko_matches_bitmap_model_any_tuning(
        ops in prop::collection::vec(op_strategy(), 1..400),
        t in 2u32..6,
        s_pow in 0u32..5,      // S ∈ {1,2,4,8,16}, all divide B=16
        multiway in any::<bool>(),
    ) {
        let s = 1 << s_pow;
        run_case(&ops, t, s.min(16), multiway, 4096 - 96, None);
    }

    #[test]
    fn gecko_incremental_scheduler_matches_bitmap_model(
        ops in prop::collection::vec(op_strategy(), 1..400),
        t in 2u32..4,
        multiway in any::<bool>(),
        budget in 1u64..8,     // merge step budget, incl. the minimal 1
    ) {
        run_case(&ops, t, 1, multiway, 4096 - 64, Some(budget));
    }

    #[test]
    fn recovered_runs_answer_like_the_original(
        ops in prop::collection::vec(op_strategy(), 50..400),
    ) {
        let geo = Geometry::tiny();
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((32..64).map(BlockId).collect());
        let cfg = GeckoConfig {
            size_ratio: 2,
            partitions: 1,
            multiway_merge: true,
            page_header_bytes: 4096 - 64,
            ..GeckoConfig::default()
        };
        let mut gecko = LogGecko::new(geo, cfg);
        let mut model = Model::default();
        let b = geo.pages_per_block as usize;
        for op in &ops {
            match *op {
                Op::Invalidate(p) => {
                    gecko.mark_invalid(&mut dev, &mut sink, Ppn(p));
                    model.invalid.entry(p / 16).or_insert_with(|| vec![false; b])[(p % 16) as usize] = true;
                }
                Op::Erase(blk) => {
                    gecko.note_erase(&mut dev, &mut sink, BlockId(blk));
                    model.invalid.insert(blk, vec![false; b]);
                }
                Op::Query(_) => {}
            }
        }
        // Persist the buffer, rebuild from the recovered run set, compare.
        gecko.flush(&mut dev, &mut sink);
        let runs: Vec<_> = gecko.runs_newest_first().cloned().collect();
        let mut rebuilt = LogGecko::from_recovered(geo, cfg, runs);
        check_all_blocks(&mut rebuilt, &mut dev, &model, &geo);
    }

    /// The buffer's arrival-order vector and dense position index behave
    /// like the ordered map they replaced: same entries, the same flush run
    /// in key order with its own watermark, same query answers, at
    /// both shard counts and partitionings and with erase markers and
    /// batches overshooting `V`.
    #[test]
    fn gecko_buffer_matches_ordered_map(
        ops in prop::collection::vec(buffer_op_strategy(), 1..300),
        partitioned in any::<bool>(),
        sharded in any::<bool>(),
        large_pages in any::<bool>(),
    ) {
        let partitions = if partitioned { 4 } else { 1 };
        let shards = if sharded { 4 } else { 1 };
        run_buffer_case(&ops, partitions, shards, if large_pages { 31 } else { 6 });
    }

    /// Bloom-filtered queries must return byte-identical bitmaps to (a) the
    /// probe-every-run naive oracle and (b) a Bloom-off twin running the
    /// same op sequence — across randomized update/erase/merge histories
    /// and tunings.
    #[test]
    fn bloom_on_off_and_naive_queries_agree(
        ops in prop::collection::vec(op_strategy(), 1..500),
        s_pow in 0u32..5,          // S ∈ {1,2,4,8,16}, all divide B=16
        bloom_bits in 1u32..13,
        header_slack in 0u32..3,   // vary entries-per-page => merge shapes
    ) {
        let geo = Geometry::tiny();
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((32..64).map(BlockId).collect());
        let on_cfg = GeckoConfig {
            partitions: 1 << s_pow,
            page_header_bytes: 4096 - 64 - 32 * header_slack,
            bloom_bits_per_key: bloom_bits,
            ..GeckoConfig::default()
        };
        let off_cfg = GeckoConfig { bloom_bits_per_key: 0, ..on_cfg };
        let mut on = LogGecko::new(geo, on_cfg);
        // The Bloom-off twin gets its own device and sink pool so the two
        // structures stay independent.
        let mut off_dev = FlashDevice::new(geo);
        let mut off_sink = FlatMetaSink::new((32..64).map(BlockId).collect());
        let mut off = LogGecko::new(geo, off_cfg);

        for op in &ops {
            match *op {
                Op::Invalidate(p) => {
                    on.mark_invalid(&mut dev, &mut sink, Ppn(p));
                    off.mark_invalid(&mut off_dev, &mut off_sink, Ppn(p));
                }
                Op::Erase(blk) => {
                    on.note_erase(&mut dev, &mut sink, BlockId(blk));
                    off.note_erase(&mut off_dev, &mut off_sink, BlockId(blk));
                }
                Op::Query(blk) => {
                    let via_on = on.gc_query(&mut dev, BlockId(blk));
                    let via_naive = on.gc_query_naive(&mut dev, BlockId(blk));
                    prop_assert_eq!(&via_on, &via_naive, "bloom-on vs naive mid-run, block {}", blk);
                }
            }
        }

        // Every block: bloom-on == naive == bloom-off twin.
        for blk in (0..32).map(BlockId) {
            let via_on = on.gc_query(&mut dev, blk);
            let via_naive = on.gc_query_naive(&mut dev, blk);
            let via_off = off.gc_query(&mut off_dev, blk);
            prop_assert_eq!(&via_on, &via_naive, "bloom-on vs naive, block {:?}", blk);
            prop_assert_eq!(&via_on, &via_off, "bloom-on vs bloom-off twin, block {:?}", blk);
        }
    }
}
