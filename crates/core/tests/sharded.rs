//! Property tests of the channel-sharded validity store: `shards = 1`
//! must be byte-identical to a bare [`LogGecko`] tree (same code path,
//! same operation order, same device), and `shards = N` must be
//! *logically* identical to `shards = 1` — every GC query answers the same
//! bits, mid-stream and settled — across plain runs and mixed crash
//! workloads with per-shard recovery. Physical layout legitimately differs
//! across shard counts (each shard flushes and merges on its own cadence),
//! which is the same reason the merge-scheduler suite compares cadences
//! logically rather than byte-wise.

use flash_sim::{BlockId, FlashDevice, Geometry, Ppn};
use ftl_workloads::Oracle;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::{GeckoConfig, LogGecko, ShardedGecko};
use geckoftl_core::validity::{FlatMetaSink, ValidityStore};

mod common;
use common::{crash_and_recover, run_workload, verify_all, Lcg};

/// Small pages so flushes and multi-level merges happen at test scale.
fn small_page_cfg(shards: u32) -> GeckoConfig {
    GeckoConfig {
        page_header_bytes: 4096 - 40, // ≈6 entries per page
        shards,
        ..GeckoConfig::default()
    }
}

fn harness(channels: u32) -> (FlashDevice, FlatMetaSink) {
    let geo = Geometry::tiny().with_channels(channels);
    let dev = FlashDevice::new(geo);
    let sink = FlatMetaSink::new((32..64).map(BlockId).collect());
    (dev, sink)
}

/// One pseudo-random update/erase operation against any Gecko-family tree,
/// expressed through closures so the same stream drives both layouts.
fn op_stream(seed: u64, ops: u64, mut apply: impl FnMut(OpKind)) {
    let mut rng = Lcg(seed);
    for _ in 0..ops {
        let x = rng.next();
        if x.is_multiple_of(23) {
            apply(OpKind::Erase(BlockId((x >> 8) as u32 % 32)));
        } else {
            let page = (x >> 8) % (32 * 16);
            apply(OpKind::Invalidate(Ppn(page as u32)));
        }
    }
}

enum OpKind {
    Erase(BlockId),
    Invalidate(Ppn),
}

/// `shards = 1` routes every operation to shard 0 in identical order on an
/// identical device, so the layouts must agree *byte for byte*: same runs
/// (identity, level, span, lineage, page directory), same buffer, same
/// watermark — not merely the same query answers.
#[test]
fn one_shard_is_byte_identical_to_single_tree() {
    let cfg = small_page_cfg(1);
    let (mut adev, mut asink) = harness(1);
    let mut single = LogGecko::new(adev.geometry(), cfg);
    let (mut bdev, mut bsink) = harness(1);
    let mut sharded = ShardedGecko::new(bdev.geometry(), cfg);

    op_stream(0xA11CE, 2500, |op| match op {
        OpKind::Erase(b) => {
            single.note_erase(&mut adev, &mut asink, b);
            sharded.note_erase(&mut bdev, &mut bsink, b);
        }
        OpKind::Invalidate(p) => {
            single.mark_invalid(&mut adev, &mut asink, p);
            sharded.mark_invalid(&mut bdev, &mut bsink, p);
        }
    });
    // Interleave pumping exactly as the op stream does not: pump both once
    // per 100 ops worth at the end, then quiesce both.
    single.flush(&mut adev, &mut asink);
    single.drain_merges(&mut adev, &mut asink);
    sharded.flush(&mut bdev, &mut bsink);
    sharded.drain_merges(&mut bdev, &mut bsink);

    let snap_single: Vec<_> = single
        .runs_newest_first()
        .map(|r| (r.meta.clone(), r.pages.clone()))
        .collect();
    let snap_sharded: Vec<_> = sharded
        .all_runs()
        .map(|r| (r.meta.clone(), r.pages.clone()))
        .collect();
    assert_eq!(
        snap_single, snap_sharded,
        "shards=1 must replicate the single tree exactly"
    );
    assert_eq!(single.buffer_len(), sharded.buffer_len());
    assert_eq!(single.last_flush_seq(), sharded.last_flush_seq());
    assert_eq!(single.stats, sharded.stats());
}

/// The tentpole property: a 4-way sharded store answers every GC query
/// with exactly the bits the single tree answers, mid-stream (shard merges
/// in flight) and settled, and each shard independently satisfies the
/// settled-shape invariants.
#[test]
fn sharded_store_matches_single_tree_logically() {
    for shards in [2u32, 4] {
        let (mut adev, mut asink) = harness(1);
        let mut single = LogGecko::new(adev.geometry(), small_page_cfg(1));
        let (mut bdev, mut bsink) = harness(shards);
        let mut sharded = ShardedGecko::new(bdev.geometry(), small_page_cfg(shards));

        let mut since_check = 0u32;
        op_stream(0xBEEF ^ u64::from(shards), 3000, |op| {
            match op {
                OpKind::Erase(b) => {
                    single.note_erase(&mut adev, &mut asink, b);
                    sharded.note_erase(&mut bdev, &mut bsink, b);
                }
                OpKind::Invalidate(p) => {
                    single.mark_invalid(&mut adev, &mut asink, p);
                    sharded.mark_invalid(&mut bdev, &mut bsink, p);
                }
            }
            single.pump_merges(&mut adev, &mut asink, 2);
            sharded.pump_merges(&mut bdev, &mut bsink, 2);
            // Periodic mid-stream agreement (merges in flight on both).
            since_check += 1;
            if since_check == 500 {
                since_check = 0;
                for blk in 0..32 {
                    let want = single.gc_query(&mut adev, BlockId(blk));
                    let got = sharded.gc_query(&mut bdev, &mut bsink, BlockId(blk));
                    for i in 0..16 {
                        assert_eq!(
                            want.get(i),
                            got.get(i),
                            "shards={shards}: mid-stream bit {blk}:{i}"
                        );
                    }
                }
            }
        });

        single.flush(&mut adev, &mut asink);
        single.drain_merges(&mut adev, &mut asink);
        sharded.flush(&mut bdev, &mut bsink);
        sharded.drain_merges(&mut bdev, &mut bsink);
        assert_eq!(sharded.merge_jobs_pending(), 0);
        assert_eq!(sharded.merge_backlog_pages(), 0);
        for blk in 0..32 {
            let want = single.gc_query(&mut adev, BlockId(blk));
            let got = sharded.gc_query(&mut bdev, &mut bsink, BlockId(blk));
            for i in 0..16 {
                assert_eq!(
                    want.get(i),
                    got.get(i),
                    "shards={shards}: settled bit {blk}:{i}"
                );
            }
        }
        // Per-shard settled shape: every shard tree is drained and holds at
        // most one run per level.
        for (s, tree) in sharded.shard_trees().iter().enumerate() {
            assert_eq!(tree.merge_jobs_pending(), 0, "shard {s} drained");
            for (lvl, count) in tree.runs_per_level().iter().enumerate() {
                assert!(*count <= 1, "shard {s} level {lvl} holds {count} runs");
            }
        }
    }
}

fn engine_with_shards(shards: u32) -> FtlEngine {
    let geo = Geometry::tiny().with_channels(shards.max(1));
    let cfg = FtlConfig {
        cache_entries: 64,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko_cfg = GeckoConfig {
        page_header_bytes: geo.page_bytes - 64,
        sync_merge: false,
        merge_step_pages: 2,
        shards,
        ..GeckoConfig::paper_default(&geo)
    };
    FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko_cfg))
}

/// Mixed crash workload at the engine level: a 4-shard engine and a
/// 1-shard engine run the same host trace, both crash at the same op
/// counts, recover (the sharded one through per-shard candidate assembly),
/// and must both serve every acknowledged write — after each recovery and
/// at the end.
#[test]
fn sharded_engine_survives_mixed_crash_workload_like_single() {
    for shards in [1u32, 4] {
        let mut rng = Lcg(0x5EED ^ u64::from(shards));
        let mut engine = engine_with_shards(shards);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        for round in 0..4u64 {
            run_workload(&mut engine, &mut oracle, &mut rng, 900 + 217 * round, false);
            engine = crash_and_recover(engine).0;
            assert_eq!(
                engine.backend().gecko().expect("gecko").num_shards(),
                shards as usize,
                "recovery must reassemble the sharded layout"
            );
            verify_all(&mut engine, &oracle);
        }
        run_workload(&mut engine, &mut oracle, &mut rng, 800, false);
        engine.shutdown_clean();
        verify_all(&mut engine, &oracle);
        assert_eq!(engine.backend().gecko().unwrap().merge_jobs_pending(), 0);
    }
}

/// Per-shard recovery reassembles the same installed state the whole
/// device held at the crash: every run installed in any shard survives
/// into the same shard's recovered tree, and — as in the single-tree
/// crash suite — any extra runs are level-0 flushes of recovery's
/// re-derived buffer, newer than that shard's crash-time watermark.
#[test]
fn per_shard_recovery_preserves_every_installed_run() {
    let shards = 4u32;
    let mut rng = Lcg(0xD15C);
    let mut engine = engine_with_shards(shards);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    run_workload(&mut engine, &mut oracle, &mut rng, 2500, false);
    // Stop at a settled moment (no merge in flight in any shard) so the
    // installed run set is the whole story — recovery legitimately
    // reshapes in-flight merge state (discarding unsealed outputs).
    for _ in 0..40_000 {
        if engine.backend().gecko().unwrap().merge_jobs_pending() == 0 {
            break;
        }
        run_workload(&mut engine, &mut oracle, &mut rng, 1, false);
    }
    assert_eq!(
        engine.backend().gecko().unwrap().merge_jobs_pending(),
        0,
        "failed to settle"
    );

    let snapshot = |s: &ShardedGecko| -> Vec<Vec<_>> {
        s.shard_trees()
            .iter()
            .map(|t| {
                let mut runs: Vec<_> = t
                    .runs_newest_first()
                    .map(|r| (r.meta.id, r.meta.level, r.meta.span(), r.pages.clone()))
                    .collect();
                runs.sort_by_key(|(id, ..)| *id);
                runs
            })
            .collect()
    };
    let store = engine.backend().gecko().expect("gecko backend");
    let before = snapshot(store);
    let watermarks = store.shard_flush_seqs();
    assert!(
        before.iter().filter(|runs| !runs.is_empty()).count() >= 2,
        "workload must populate several shards for the test to bite"
    );

    let (mut recovered, _report) = crash_and_recover(engine);
    let after = snapshot(recovered.backend().gecko().expect("gecko recovered"));
    for (s, runs_before) in before.iter().enumerate() {
        for run in runs_before {
            assert!(
                after[s].contains(run),
                "shard {s}: installed run {:?} lost by recovery",
                run.0
            );
        }
        for extra in after[s].iter().filter(|r| !runs_before.contains(r)) {
            let (id, level, (since, _), _) = extra;
            assert_eq!(
                *level, 0,
                "shard {s}: unexpected non-flush run {id:?} materialized"
            );
            assert!(
                *since > watermarks[s],
                "shard {s}: extra run {id:?} must stem from re-derived buffer state"
            );
        }
    }
    verify_all(&mut recovered, &oracle);
    run_workload(&mut recovered, &mut oracle, &mut rng, 1000, false);
    verify_all(&mut recovered, &oracle);
}

/// The durable watermark the engine releases protections against (DESIGN.md
/// invariant 6): a shard with an empty buffer counts as flushed at the
/// newest seq, so an idle shard never holds it back, while one buffered
/// report holds it at its own shard's last flush. The persisted MIN, which
/// recovery keeps, does not see buffers and stays at the idle shard's.
#[test]
fn durable_watermark_counts_an_empty_shard_as_flushed_now() {
    let (mut dev, mut sink) = harness(1);
    let geo = dev.geometry();
    let mut g = ShardedGecko::new(geo, small_page_cfg(2));
    // Block 1 belongs to shard 1, block 2 to shard 0.
    let (in_shard_1, in_shard_0) = (Ppn(geo.pages_per_block), Ppn(2 * geo.pages_per_block));
    assert_eq!(g.durable_watermark(41), 41, "no report anywhere");

    g.mark_invalid(&mut dev, &mut sink, in_shard_1);
    assert_eq!(g.durable_watermark(41), 0, "shard 1 never flushed");

    g.flush(&mut dev, &mut sink);
    let newest = dev.now_seq() - 1;
    assert_eq!(g.durable_watermark(newest), newest, "both buffers empty");
    assert_eq!(g.last_flush_seq(), 0, "shard 0 has never flushed");

    g.mark_invalid(&mut dev, &mut sink, in_shard_1);
    let shard_1_flush = g.shard_flush_seqs()[1];
    assert!(shard_1_flush > 0);
    assert_eq!(g.durable_watermark(dev.now_seq()), shard_1_flush);

    g.mark_invalid(&mut dev, &mut sink, in_shard_0);
    assert_eq!(
        g.durable_watermark(dev.now_seq()),
        0,
        "shard 0 never flushed"
    );
}
