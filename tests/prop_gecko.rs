//! Property-based tests (proptest) for Logarithmic Gecko: for *any*
//! sequence of invalidations and erases, under *any* tuning, the structure
//! answers GC queries exactly like a plain RAM bitmap (docs/DESIGN.md
//! invariant 1), and its structural invariants hold.

use geckoftl::flash_sim::{BlockId, FlashDevice, Geometry, Ppn};
use geckoftl::geckoftl_core::gecko::{GeckoConfig, LogGecko};
use geckoftl::geckoftl_core::validity::FlatMetaSink;
use proptest::prelude::*;

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

    /// Bloom-filtered queries must return byte-identical bitmaps to (a) the
    /// probe-every-run naive oracle, (b) a Bloom-off twin running the same
    /// op sequence, and (c) the batched query API — across randomized
    /// update/erase/merge histories and tunings.
    #[test]
    fn bloom_on_off_batch_and_naive_queries_agree(
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

        // Every block: bloom-on == naive == bloom-off twin, and batch == singles.
        let all_blocks: Vec<BlockId> = (0..32).map(BlockId).collect();
        let batch = on.gc_query_batch(&mut dev, &all_blocks);
        let off_batch = off.gc_query_batch(&mut off_dev, &all_blocks);
        for (i, &blk) in all_blocks.iter().enumerate() {
            let via_on = on.gc_query(&mut dev, blk);
            let via_naive = on.gc_query_naive(&mut dev, blk);
            let via_off = off.gc_query(&mut off_dev, blk);
            prop_assert_eq!(&via_on, &via_naive, "bloom-on vs naive, block {:?}", blk);
            prop_assert_eq!(&via_on, &via_off, "bloom-on vs bloom-off twin, block {:?}", blk);
            prop_assert_eq!(&batch[i], &via_on, "batch vs single, block {:?}", blk);
            prop_assert_eq!(&off_batch[i], &via_on, "bloom-off batch vs single, block {:?}", blk);
        }

        // Duplicate + unsorted request orders answer consistently too.
        let shuffled = [BlockId(9), BlockId(3), BlockId(9), BlockId(31), BlockId(0), BlockId(3)];
        let dup = on.gc_query_batch(&mut dev, &shuffled);
        for (i, &blk) in shuffled.iter().enumerate() {
            prop_assert_eq!(&dup[i], &on.gc_query(&mut dev, blk), "dup batch, slot {}", i);
        }
    }
}
