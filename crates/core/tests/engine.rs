//! End-to-end tests of the FTL engine running GeckoFTL on a simulated
//! device: data integrity under garbage-collection pressure, crash recovery
//! with GeckoRec, and the §4.3 recovery-cost bounds.

use flash_sim::{
    FlashDevice, Geometry, IoCounts, IoOp, IoPurpose, LatencyModel, Lpn, MetaTag, PageOffset,
    SpanKind, SpareInfo, TraceEvent,
};
use ftl_workloads::Oracle;
use geckoftl_core::ftl::{
    BlockGroup, FtlConfig, FtlEngine, FtlError, GcPolicy, HostOp, HostOpKind, RecoveryPolicy,
    ValidityBackend, MAX_UNFLUSHED_VERSIONS,
};
use geckoftl_core::gecko::GeckoConfig;
use geckoftl_core::recovery::{gecko_recover, RecoveryReport, RecoveryStep, StepCost};
use std::collections::{HashMap, HashSet};

mod common;
use common::{crash_and_recover, run_workload, verify_all, Lcg};

fn small_engine(seed_cache: usize) -> FtlEngine {
    // 64 blocks × 16 pages, 716 logical pages
    small_engine_on(Geometry::tiny(), seed_cache, 1)
}

fn small_engine_on(geo: Geometry, seed_cache: usize, shards: u32) -> FtlEngine {
    let cfg = FtlConfig {
        cache_entries: seed_cache,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = ValidityBackend::gecko_for(
        geo,
        GeckoConfig {
            // Small pages so Gecko actually flushes/merges at this scale.
            page_header_bytes: geo.page_bytes - 64,
            shards,
            ..GeckoConfig::paper_default(&geo)
        },
    );
    FtlEngine::format(geo, cfg, gecko)
}

/// Everything simulated about an engine's IO so far: per-purpose counts,
/// the logical op counts and the clock.
fn io_state(engine: &FtlEngine) -> (Vec<IoCounts>, u64, u64, f64) {
    let stats = engine.device().stats();
    (
        IoPurpose::ALL.iter().map(|&p| stats.counts(p)).collect(),
        stats.logical_writes,
        stats.logical_reads,
        engine.device().clock().now_us(),
    )
}

/// The cost of one GeckoRec step in `report`.
fn step_cost(report: &RecoveryReport, step: RecoveryStep) -> StepCost {
    report
        .steps
        .iter()
        .find(|(s, _)| *s == step)
        .map(|(_, c)| *c)
        .expect("step present")
}

#[test]
fn read_your_writes_under_gc_pressure() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(0xDEADBEEF);
    run_workload(&mut engine, &mut oracle, &mut rng, 6000, true);
    assert!(
        engine.counters.gc_operations > 20,
        "workload must trigger GC"
    );
    assert!(engine.counters.checkpoints > 0, "workload must checkpoint");
    verify_all(&mut engine, &oracle);
}

#[test]
fn sequential_overwrites_and_sparse_space() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    // Hammer a small hot set so the same translation page syncs repeatedly.
    for round in 0..400u64 {
        for lpn in 0..8u32 {
            engine.write(Lpn(lpn), round * 10 + lpn as u64);
            oracle.ack_write(Lpn(lpn), round * 10 + lpn as u64);
        }
    }
    // Unwritten pages, L8 to the end, read as None.
    verify_all(&mut engine, &oracle);
}

#[test]
fn crash_and_recover_preserves_all_data() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(42);
    run_workload(&mut engine, &mut oracle, &mut rng, 5000, true);
    let (mut recovered, report) = crash_and_recover(engine);

    assert!(
        report.recovered_entries > 0,
        "recent writes must be rediscovered"
    );
    verify_all(&mut recovered, &oracle);

    // The device keeps operating correctly after recovery, including the
    // App. C.3 flag-correction paths and further GC.
    run_workload(&mut recovered, &mut oracle, &mut rng, 5000, true);
    verify_all(&mut recovered, &oracle);
}

#[test]
fn repeated_crashes_do_not_lose_data() {
    let mut engine = small_engine(48);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(7);
    for round in 0..4 {
        run_workload(&mut engine, &mut oracle, &mut rng, 1500 + 700 * round, true);
        let (rec, _) = crash_and_recover(engine);
        engine = rec;
        verify_all(&mut engine, &oracle);
    }
}

/// The user pages on `engine`'s device whose seq is at least `from`.
fn user_pages_since(engine: &FtlEngine, from: u64) -> u64 {
    let geo = engine.geometry();
    let dev = engine.device();
    geo.iter_blocks()
        .flat_map(|b| (0..dev.written_pages(b)).map(move |off| geo.ppn(b, PageOffset(off))))
        .filter(|&ppn| {
            dev.peek_spare(ppn)
                .is_some_and(|s| s.seq >= from && matches!(s.info, SpareInfo::User { .. }))
        })
        .count() as u64
}

/// GeckoRec step 6 walks back to the checkpoint horizon — the start of the
/// epoch before the current one — or to the last Gecko flush, whichever is
/// older, one spare read per page, plus the one page that stops it: 55 spare
/// reads here, where the paper's `2·C`-page window (with its `4·B` cushion)
/// read 129. Twelve translation pages, so step 4b reads versions that carry
/// the horizon.
///
/// Mutations this fails on: a step 6 that ignores the horizon (129 reads),
/// and, with `dirty_entries_stay_newer_than_the_checkpoint_horizon`, a
/// checkpoint that makes the *new* epoch's start the horizon (the scan stops
/// short of the previous epoch's dirty entries, and a write is lost).
#[test]
fn recovery_scan_is_bounded_by_checkpoints() {
    let mut engine = small_engine_on(Geometry::new(64, 16, 256, 0.7), 32, 1);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(99);
    run_workload(&mut engine, &mut oracle, &mut rng, 8000, true);
    let threshold = engine.backend().gecko().expect("gecko").last_flush_seq();
    let horizon = engine.translation().horizon();
    assert!(horizon > 0, "the run checkpoints");
    let walked = user_pages_since(&engine, horizon.min(threshold + 1));
    let (mut recovered, report) = crash_and_recover(engine);
    let dirty_step = step_cost(&report, RecoveryStep::DirtyEntries);
    assert_eq!(
        dirty_step.spare_reads,
        walked + 1,
        "one spare read per page since the horizon or the flush, and the one that stops the scan"
    );
    verify_all(&mut recovered, &oracle);
}

/// Every dirty cached entry points at a user page no older than the
/// checkpoint horizon the translation table stamps into each version it
/// writes (DESIGN.md invariant 15), after every op of a uniform run that
/// checkpoints every `C = 32` cache operations. Twelve translation pages, so
/// a checkpoint's syncs leave other pages' dirty entries behind.
///
/// Mutation this fails on: a checkpoint that makes the *new* epoch's start
/// the horizon (the entries the epoch it ends wrote are older).
#[test]
fn dirty_entries_stay_newer_than_the_checkpoint_horizon() {
    let geo = Geometry::new(64, 16, 256, 0.7);
    let mut engine = small_engine_on(geo, 32, 1);
    let logical = geo.logical_pages();
    let mut rng = Lcg(17);
    let mut horizons = 0;
    let mut last = 0;
    for i in 0..6000 {
        let lpn = Lpn((rng.next() % logical) as u32);
        if rng.next().is_multiple_of(4) {
            engine.read(lpn);
        } else {
            engine.write(lpn, i);
        }
        let horizon = engine.translation().horizon();
        for e in engine.cache().iter_lru_order().filter(|e| e.dirty) {
            let seq = engine.device().peek_spare(e.ppn).expect("written page").seq;
            assert!(
                seq >= horizon,
                "op {i}: dirty {:?} points at seq {seq}, below the horizon {horizon}",
                e.lpn
            );
        }
        if horizon > last {
            (horizons, last) = (horizons + 1, horizon);
        }
    }
    assert!(horizons > 100, "only {horizons} horizons in 6000 ops");
}

/// R1, `recover ∘ recover`: GeckoRec survives a crash of the engine it
/// produced, right away and after a few ops before that engine's first
/// checkpoint, with one Gecko tree and with four. Every acknowledged write
/// reads back. The recovered entries stay dirty until that checkpoint, so
/// the recovered table's horizon is the oldest page one was recreated from.
///
/// Mutation this fails on: the recovered table's horizon set to
/// `dev.now_seq()` (the second recovery stops short of the first one's
/// entries once a version carries it).
#[test]
fn recovering_a_recovered_engine_loses_no_write() {
    let geo = Geometry::new(64, 16, 256, 0.7);
    for shards in [1, 4] {
        for ops_between in [0, 6] {
            let mut engine = small_engine_on(geo, 32, shards);
            let mut oracle = Oracle::new(engine.geometry().logical_pages());
            let mut rng = Lcg(31 + shards as u64);
            run_workload(&mut engine, &mut oracle, &mut rng, 3000, true);
            let (mut once, first) = crash_and_recover(engine);
            assert!(first.recovered_entries > 0);
            run_workload(&mut once, &mut oracle, &mut rng, ops_between, true);
            assert_eq!(once.counters.checkpoints, 0, "no checkpoint since recovery");
            let (mut twice, _) = crash_and_recover(once);
            verify_all(&mut twice, &oracle);
        }
    }
}

#[test]
fn clean_shutdown_leaves_no_dirty_state() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(5);
    run_workload(&mut engine, &mut oracle, &mut rng, 3000, true);
    engine.shutdown_clean();
    assert_eq!(engine.cache().dirty_count(), 0);
    assert_eq!(
        engine.backend().gecko().expect("gecko").buffer_len(),
        0,
        "gecko buffer persisted on shutdown"
    );
    verify_all(&mut engine, &oracle);
}

#[test]
fn recovery_after_clean_shutdown_is_cheap_on_corrections() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(11);
    run_workload(&mut engine, &mut oracle, &mut rng, 3000, true);
    engine.shutdown_clean();
    let (mut recovered, _) = crash_and_recover(engine);
    verify_all(&mut recovered, &oracle);
    // Everything recovered as "uncertain" should resolve to clean: syncing
    // all dirty entries must abort most synchronization operations.
    recovered.sync_all_dirty();
    assert!(
        recovered.counters.syncs_aborted > 0,
        "clean-shutdown recovery should produce C.3.1 false alarms"
    );
    verify_all(&mut recovered, &oracle);
}

#[test]
fn greedy_policy_also_preserves_data() {
    let geo = Geometry::tiny();
    let cfg = FtlConfig {
        cache_entries: 64,
        gc_policy: GcPolicy::GreedyAll,
        recovery: RecoveryPolicy::CheckpointDeferred,
        qos_headroom_blocks: 0,
    };
    let gecko = ValidityBackend::gecko_for(
        geo,
        GeckoConfig {
            page_header_bytes: geo.page_bytes - 64,
            ..GeckoConfig::paper_default(&geo)
        },
    );
    let mut engine = FtlEngine::format(geo, cfg, gecko);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(1234);
    run_workload(&mut engine, &mut oracle, &mut rng, 6000, true);
    verify_all(&mut engine, &oracle);
}

#[test]
fn wa_accounting_covers_the_write_path() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(3);
    // Precondition, then measure an interval.
    run_workload(&mut engine, &mut oracle, &mut rng, 4000, true);
    let snap = engine.device().stats().clone();
    run_workload(&mut engine, &mut oracle, &mut rng, 2000, true);
    let delta = engine.device().stats().since(&snap);
    let wa = delta.wa_breakdown(LatencyModel::paper().delta());
    // The user category includes the application write itself.
    assert!(wa.user >= 1.0, "user WA = {}", wa.user);
    assert!(wa.total() < 10.0, "absurd WA = {}", wa.total());
    assert!(wa.validity > 0.0, "gecko IO must be attributed");
    assert!(wa.translation > 0.0, "sync IO must be attributed");
    // Recovery/fill purposes are excluded from WA.
    assert_eq!(delta.counts(IoPurpose::Recovery).page_reads, 0);
}

#[test]
fn restricted_dirty_policy_bounds_dirty_entries() {
    let geo = Geometry::tiny();
    let cfg = FtlConfig {
        cache_entries: 64,
        gc_policy: GcPolicy::GreedyAll,
        recovery: RecoveryPolicy::RestrictedDirty,
        qos_headroom_blocks: 0,
    };
    let gecko = ValidityBackend::gecko_for(
        geo,
        GeckoConfig {
            page_header_bytes: geo.page_bytes - 64,
            ..GeckoConfig::paper_default(&geo)
        },
    );
    let mut engine = FtlEngine::format(geo, cfg, gecko);
    let mut rng = Lcg(21);
    let logical = geo.logical_pages() as u32;
    for _ in 0..3000 {
        let lpn = (rng.next() % logical as u64) as u32;
        engine.write(Lpn(lpn), rng.next());
        assert!(
            engine.cache().dirty_count() <= 7,
            "dirty entries exceed 10% of C: {}",
            engine.cache().dirty_count()
        );
    }
}

#[test]
fn current_mapping_agrees_with_read_path() {
    let mut engine = small_engine(64);
    let mut rng = Lcg(13);
    for i in 0..2000u64 {
        let lpn = (rng.next() % 716) as u32;
        engine.write(Lpn(lpn), i);
        let mapped = engine.current_mapping(Lpn(lpn)).expect("just written");
        let (l, v) = engine
            .device()
            .peek_page(mapped)
            .expect("mapped page written")
            .as_user()
            .expect("user page");
        assert_eq!((l, v), (Lpn(lpn), i));
    }
}

#[test]
fn recovery_of_a_fresh_device_is_trivial() {
    // Crash right after format: nothing to recover, and the device must be
    // fully usable afterwards.
    let engine = small_engine(64);
    let (mut recovered, report) = crash_and_recover(engine);
    assert_eq!(report.recovered_entries, 0);
    assert_eq!(report.recovered_invalidations, 0);
    assert_eq!(recovered.read(Lpn(0)), None);
    recovered.write(Lpn(0), 1);
    assert_eq!(recovered.read(Lpn(0)), Some(1));
}

#[test]
fn crash_immediately_after_single_write() {
    let mut engine = small_engine(64);
    engine.write(Lpn(5), 42);
    let (mut recovered, report) = crash_and_recover(engine);
    assert_eq!(
        report.recovered_entries, 1,
        "the lone dirty write must be found"
    );
    assert_eq!(recovered.read(Lpn(5)), Some(42));
    assert_eq!(recovered.read(Lpn(6)), None);
}

/// GeckoRec step 4b reads the base and each of the k translation-page
/// versions written since the last flush once — k + 1 page reads — and
/// decides every changed mapping from the persisted erase timestamp, with no
/// spare read (DESIGN.md invariant 12). Its debug assertion checks each
/// decision against the spare area.
///
/// Mutations this fails on: restoring the pairwise `chain.windows(2)` loop
/// (2k page reads), and reporting every candidate without the timestamp
/// check (the debug assertion fires).
#[test]
fn buffer_step_reads_each_version_once_and_no_spare_area() {
    const K: u64 = 3;
    let mut engine = small_engine(64);
    let flush_seq = |e: &FtlEngine| e.backend().gecko().expect("gecko").last_flush_seq();
    let watermark = flush_seq(&engine);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    for round in 0..K {
        for lpn in 0..4u32 {
            let version = round * 100 + lpn as u64;
            engine.write(Lpn(lpn), version);
            oracle.ack_write(Lpn(lpn), version);
        }
        engine.sync_all_dirty();
    }
    assert_eq!(flush_seq(&engine), watermark, "no Gecko flush since format");
    let (mut recovered, report) = crash_and_recover(engine);
    let buffer = step_cost(&report, RecoveryStep::Buffer);
    assert_eq!(
        buffer.page_reads,
        K + 1,
        "the format version plus K versions"
    );
    assert_eq!(buffer.spare_reads, 0);
    // Step 4b's 8 re-derived reports (two overwrite rounds of 4 LPNs) plus
    // step 6's 8 before-pointers: what the pairwise, spare-checked loop
    // reported on the same image.
    assert_eq!(report.recovered_invalidations, 16);
    verify_all(&mut recovered, &oracle);
}

/// The distinct Gecko runs with a page on `dev`, live or merged away.
fn run_groups_on_flash(dev: &FlashDevice) -> usize {
    let geo = dev.geometry();
    let ids: HashSet<u64> = geo
        .iter_blocks()
        .flat_map(|b| (0..dev.written_pages(b)).map(move |off| geo.ppn(b, PageOffset(off))))
        .filter_map(|ppn| match dev.peek_spare(ppn)?.info {
            SpareInfo::Meta {
                tag: MetaTag::Run { id, .. },
                ..
            } => Some(id),
            _ => None,
        })
        .collect();
    ids.len()
}

/// GeckoRec step 3 judges run liveness from the spare areas it scans and
/// reads only the runs it keeps: the postamble of each, plus the preamble of a
/// multi-page one, plus the last page of each merge output still being
/// written (a partial run, discarded; at most one per tree). Step 5 reads only
/// the kept runs' other pages, so steps 3 and 5 together read each live run
/// page once. Four trees on a deep-tree geometry with 64-page blocks, where
/// the merged-away runs still on flash outnumber the live ones more than four
/// to one (219 to 39 over the six instants).
///
/// Mutations this fails on: dropping the span-containment skip (step 3 reads
/// the leftovers no kept run names in `merged_from`), and step 5 reading again
/// the pages step 3 read.
#[test]
fn run_directory_step_reads_each_live_run_page_once() {
    let geo = Geometry::new(64, 64, 256, 0.7);
    let mut engine = small_engine_on(geo, 32, 4);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(77);
    let (mut kept, mut leftovers) = (0, 0);
    for _ in 0..6 {
        run_workload(&mut engine, &mut oracle, &mut rng, 700, true);
        let gecko = engine.backend().gecko().expect("gecko");
        let runs = gecko.all_runs().count();
        let reads: u64 = gecko
            .all_runs()
            .map(|r| 1 + u64::from(r.num_pages() > 1))
            .sum();
        let pages: u64 = gecko.all_runs().map(|r| r.num_pages()).sum();
        let partial = gecko
            .shard_trees()
            .iter()
            .filter(|t| t.unsealed_merge_pages() > 0)
            .count();
        let cfg = engine.config();
        let gecko_cfg = gecko.config();
        let (_, report) = gecko_recover(engine.device().clone(), cfg, gecko_cfg);
        let dirs = step_cost(&report, RecoveryStep::RunDirectories);
        let bvc = step_cost(&report, RecoveryStep::Bvc);
        assert_eq!(dirs.page_reads, reads + partial as u64, "step 3");
        assert_eq!(
            dirs.page_reads + bvc.page_reads,
            pages + partial as u64,
            "steps 3 and 5"
        );
        kept += runs;
        leftovers += run_groups_on_flash(engine.device()) - runs - partial;
    }
    assert!(
        leftovers > 4 * kept,
        "{leftovers} merged-away runs on flash against {kept} live"
    );
    verify_all(&mut engine, &oracle);
}

/// Recovery is a function of the crash image: recovering one image twice
/// gives equal reports, equal run lists per tree (ids, spans, directories)
/// and equal GC-query answers for every block, with one tree and with four.
/// Step 3 walks its run groups newest first by id, so the order in which it
/// reads pages never matters.
#[test]
fn recovering_one_image_twice_gives_the_same_engine() {
    let geo = Geometry::new(64, 16, 256, 0.7);
    for shards in [1, 4] {
        let mut engine = small_engine_on(geo, 32, shards);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        let mut rng = Lcg(53 + shards as u64);
        run_workload(&mut engine, &mut oracle, &mut rng, 3000, true);
        let cfg = engine.config();
        let gecko_cfg = engine.backend().gecko().expect("gecko").config();
        let image = engine.crash();
        let recover = || {
            let (mut engine, report) = gecko_recover(image.clone(), cfg, gecko_cfg);
            let runs: Vec<Vec<_>> = engine
                .backend()
                .gecko()
                .expect("gecko")
                .shard_trees()
                .iter()
                .map(|t| {
                    t.runs_newest_first()
                        .map(|r| (r.meta.clone(), r.pages.clone()))
                        .collect()
                })
                .collect();
            let queries: Vec<_> = geo
                .iter_blocks()
                .map(|b| engine.debug_validity(b))
                .collect();
            (report, runs, queries)
        };
        let (first, second) = (recover(), recover());
        assert_eq!(first.0, second.0, "shards {shards}: reports");
        assert_eq!(first.1, second.1, "shards {shards}: run lists");
        assert_eq!(first.2, second.2, "shards {shards}: GC queries");
        assert!(first.1.iter().all(|t| !t.is_empty()), "every tree has runs");
    }
}

/// GeckoRec step 6 charges one spare read per page its backwards scan walks:
/// none per before-pointer, which the erase-timestamp filter decides
/// (DESIGN.md invariant 12), and none per user block, which step 1's
/// first-page seq orders. With no Gecko flush since format the scan walks
/// every user page written.
///
/// Mutations this fails on: reading the before-pointer's spare area again
/// (24 extra reads here), and ordering blocks by a spare read of their
/// newest page (3 extra).
#[test]
fn dirty_entry_step_reads_one_spare_area_per_walked_page() {
    const ROUNDS: u64 = 3;
    const LPNS: u32 = 12;
    let mut engine = small_engine(64);
    let flush_seq = |e: &FtlEngine| e.backend().gecko().expect("gecko").last_flush_seq();
    let watermark = flush_seq(&engine);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    for round in 0..ROUNDS {
        for lpn in 0..LPNS {
            let version = round * 100 + lpn as u64;
            engine.write(Lpn(lpn), version);
            oracle.ack_write(Lpn(lpn), version);
        }
        // The last round stays dirty in the cache.
        if round + 1 < ROUNDS {
            engine.sync_all_dirty();
        }
    }
    assert_eq!(flush_seq(&engine), watermark, "no Gecko flush since format");
    let (mut recovered, report) = crash_and_recover(engine);
    let dirty = step_cost(&report, RecoveryStep::DirtyEntries);
    assert_eq!(dirty.spare_reads, ROUNDS * LPNS as u64, "one per user page");
    assert_eq!(dirty.page_reads, 0);
    // What the step reported when it read every before-pointer's spare
    // area and one spare area per block (63 spare reads) on the same image:
    // step 4b's 12 re-derived reports (the second sync) plus step 6's 24
    // before-pointers (rounds 2 and 3), and one entry per LPN.
    assert_eq!(report.recovered_invalidations, 36);
    assert_eq!(report.recovered_entries, LPNS as usize);
    verify_all(&mut recovered, &oracle);
    // The invalid bitmaps kept for the recovered entries' re-reports
    // (DESIGN.md invariant 13) are charged while held and dropped once every
    // entry has synced.
    assert!(recovered.ram_report().recovery > 0);
    recovered.sync_all_dirty();
    assert_eq!(recovered.ram_report().recovery, 0);
}

/// Recovery recreates more entries than the cache holds; the overflow is
/// synced one entry at a time right after resume. The first one's eviction
/// syncs every cached recovered entry of its translation page, so the cache
/// holds no uncertain entry while overflow entries still wait. The last of
/// them re-reports a before-image step 5 counted already (its invalidation
/// was flushed before the crash), which must change no BVC (DESIGN.md
/// invariant 13).
///
/// Mutation this fails on: dropping the invalid bitmaps as soon as the cache
/// holds no uncertain entry (x's first block ends one below its live count).
#[test]
fn overflow_entries_do_not_recount_step_5_invalidations() {
    const C: usize = 8;
    // 64 entries per translation page, so x (page 0) and the ys (page 1)
    // sync apart.
    let geo = Geometry::new(64, 16, 256, 0.7);
    let cfg = FtlConfig {
        cache_entries: C,
        // No checkpoint syncs x behind the test's back, and the recovery
        // scan recreates every LPN written.
        recovery: RecoveryPolicy::Battery,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = ValidityBackend::gecko_for(
        geo,
        GeckoConfig {
            page_header_bytes: geo.page_bytes - 64,
            shards: 1,
            ..GeckoConfig::paper_default(&geo)
        },
    );
    let mut engine = FtlEngine::format(geo, cfg, gecko);
    let flush_seq = |e: &FtlEngine| e.backend().gecko().expect("gecko").last_flush_seq();
    let x = Lpn(0);
    let mut oracle = Oracle::new(geo.logical_pages());
    oracle.ack_write(x, 2);
    engine.write(x, 1);
    // Translation page 0 now maps x to its first copy.
    engine.shutdown_clean();
    // A cache hit on a clean entry: the first copy is reported at once and
    // x stays dirty.
    engine.write(x, 2);
    let watermark = flush_seq(&engine);
    // More ys than the cache holds: each eviction syncs page 1 only, and
    // reading x keeps its entry cached.
    let ys = 64..64 + C as u32 + 2;
    for round in 0..16 {
        for y in ys.clone() {
            engine.write(Lpn(y), round);
            oracle.ack_write(Lpn(y), round);
            assert_eq!(engine.read(x), Some(2));
        }
    }
    assert!(
        flush_seq(&engine) > watermark,
        "x's first copy counted durably"
    );
    assert!(engine.cache().lookup(x).is_some_and(|e| e.dirty));
    let (mut recovered, report) = crash_and_recover(engine);
    assert_eq!(report.recovered_entries, ys.len() + 1, "x plus every y");
    recovered.sync_all_dirty();
    let mut live: HashMap<u32, u32> = HashMap::new();
    for lpn in [x].into_iter().chain(ys.map(Lpn)) {
        let ppn = recovered.current_mapping(lpn).expect("mapped");
        *live.entry(geo.block_of(ppn).0).or_default() += 1;
    }
    let bm = recovered.block_manager();
    for b in bm.blocks_of_group(BlockGroup::User) {
        assert_eq!(
            bm.valid_pages(b),
            live.get(&b.0).copied().unwrap_or(0),
            "BVC of {b:?}"
        );
    }
    verify_all(&mut recovered, &oracle);
}

/// The GC victim-sequence A/B pin: Bloom filters must not change *which*
/// blocks GC collects, only how many run pages each query reads. From
/// identical workloads the Bloom-on and Bloom-off engines must produce the
/// identical victim sequence — read off the telemetry `GcCollect` spans,
/// whose argument is the victim block id — and therefore identical GC
/// operation counts.
#[test]
fn bloom_on_and_off_gc_collect_identical_victim_sequences() {
    let build = |bloom_bits_per_key: u32| {
        let geo = Geometry::tiny();
        let cfg = FtlConfig {
            cache_entries: 64,
            ..FtlConfig::geckoftl(&geo)
        };
        let gecko = ValidityBackend::gecko_for(
            geo,
            GeckoConfig {
                page_header_bytes: geo.page_bytes - 64,
                bloom_bits_per_key,
                ..GeckoConfig::paper_default(&geo)
            },
        );
        let mut engine = FtlEngine::format(geo, cfg, gecko);
        engine.telemetry_mut().enable(1 << 19);
        engine
    };
    let victims = |engine: &FtlEngine| -> Vec<u32> {
        assert_eq!(engine.telemetry().dropped_events(), 0, "ring too small");
        engine
            .telemetry()
            .events()
            .filter_map(|ev| match *ev {
                TraceEvent::Span {
                    kind: SpanKind::GcCollect,
                    arg,
                    ..
                } => Some(arg),
                _ => None,
            })
            .collect()
    };
    let mut on = build(8);
    let mut off = build(0);
    let mut on_oracle = Oracle::new(on.geometry().logical_pages());
    let mut off_oracle = Oracle::new(off.geometry().logical_pages());
    let mut rng_on = Lcg(0x6C);
    let mut rng_off = Lcg(0x6C);
    run_workload(&mut on, &mut on_oracle, &mut rng_on, 8000, true);
    run_workload(&mut off, &mut off_oracle, &mut rng_off, 8000, true);
    assert!(
        on.counters.gc_operations > 50,
        "GC must run enough to expose ordering divergence"
    );
    assert_eq!(victims(&on).len() as u64, on.counters.gc_operations);
    assert_eq!(
        victims(&on),
        victims(&off),
        "Bloom filters must not change the victim sequence"
    );
    assert_eq!(on.counters.gc_operations, off.counters.gc_operations);
    assert_eq!(on.counters.gc_migrations, off.counters.gc_migrations);
    assert!(
        on.device()
            .stats()
            .counts(IoPurpose::ValidityQuery)
            .page_reads
            < off
                .device()
                .stats()
                .counts(IoPurpose::ValidityQuery)
                .page_reads,
        "the filters must actually skip run probes"
    );
    verify_all(&mut on, &on_oracle);
    verify_all(&mut off, &off_oracle);
}

/// The GC contract (§3–§4.2): one validity query per collected user block
/// that still holds valid pages — never a batched one — and no GC state that
/// outlives a collection.
#[test]
fn gc_asks_one_query_per_victim_and_keeps_no_state_between_collections() {
    for shards in [1u32, 4] {
        let geo = Geometry::tiny().with_channels(shards);
        let mut engine = small_engine_on(geo, 64, shards);
        engine.telemetry_mut().enable(1 << 19);
        let logical = geo.logical_pages();
        let mut rng = Lcg(0x6C0 + shards as u64);
        for i in 0..8_000u64 {
            let lpn = Lpn((rng.next() % logical) as u32);
            match rng.next() % 8 {
                0 => drop(engine.trim(lpn)),
                1 => drop(engine.read(lpn)),
                _ => engine.write(lpn, i),
            }
            assert_eq!(engine.gc_victim(), None, "GC state outlived op {i}");
        }
        assert_eq!(engine.telemetry().dropped_events(), 0, "ring too small");

        // One host span per host op, each kind on its own lane.
        let c = engine.counters;
        for (kind, ops) in [
            (SpanKind::HostWrite, c.writes),
            (SpanKind::HostRead, c.reads),
            (SpanKind::HostTrim, c.trims),
        ] {
            let lane = engine.telemetry().span_hist(kind).expect("enabled");
            assert_eq!(lane.count(), ops, "shards={shards}: {kind:?} spans");
        }

        // A collection's IO events precede its closing span in the ring. A
        // victim with valid pages reads at least one spare area (§4.1's UIP
        // check); a fully-invalid one is only erased, and needs no query.
        let mut reads_since_span = 0u32;
        let (mut collections, mut queried_collections) = (0u64, 0u64);
        for ev in engine.telemetry().events() {
            match *ev {
                TraceEvent::Io {
                    purpose,
                    op: IoOp::SpareRead,
                    ..
                } if purpose as usize == IoPurpose::GcMigrateUser.index() => reads_since_span += 1,
                TraceEvent::Span {
                    kind: SpanKind::GcCollect,
                    ..
                } => {
                    collections += 1;
                    queried_collections += (reads_since_span > 0) as u64;
                    reads_since_span = 0;
                }
                _ => {}
            }
        }
        assert_eq!(collections, engine.counters.gc_operations);
        assert!(
            queried_collections > 100,
            "shards={shards}: the run must be GC-heavy, saw {queried_collections}"
        );
        let stats = engine.backend().gecko_stats().expect("gecko backend");
        assert_eq!(
            stats.queries, queried_collections,
            "shards={shards}: exactly one gc_query per victim with valid pages"
        );
    }
}

/// Single-lane time (DESIGN.md invariant 7): the simulated clock is the
/// serial sum of every IO's latency, on a multi-channel device with a
/// sharded store too — no IO class gets to overlap another.
#[test]
fn simulated_clock_is_the_serial_sum_of_io_latencies() {
    let geo = Geometry::tiny().with_channels(4);
    let mut engine = small_engine_on(geo, 64, 4);
    let logical = geo.logical_pages();
    let mut rng = Lcg(0x51AE);
    for i in 0..8_000u64 {
        let lpn = Lpn((rng.next() % logical) as u32);
        match rng.next() % 16 {
            0 => drop(engine.trim(lpn)),
            1 | 2 => drop(engine.read(lpn)),
            3 => drop(engine.idle_tick()),
            _ => engine.write(lpn, i),
        }
    }
    let stats = engine.device().stats();
    assert!(
        stats.counts(IoPurpose::ValidityMerge).page_writes > 100,
        "the run must merge, or there is nothing that could have overlapped"
    );
    let busy = stats.total_busy_us();
    let now = engine.device().clock().now_us();
    assert!(
        (now - busy).abs() <= 1e-9 * busy,
        "clock {now} µs vs Σ busy_us {busy} µs"
    );
}

// ---------------------------------------------------------------------------
// TRIM
// ---------------------------------------------------------------------------

#[test]
fn trim_unmaps_and_allows_rewrite() {
    let mut engine = small_engine(64);
    engine.write(Lpn(7), 70);
    engine.write(Lpn(8), 80);
    assert!(engine.trim(Lpn(7)), "trim of a live mapping reports true");
    assert_eq!(engine.read(Lpn(7)), None, "trimmed page reads as unmapped");
    assert_eq!(engine.read(Lpn(8)), Some(80), "neighbours are untouched");
    assert!(
        !engine.trim(Lpn(7)),
        "re-trim of an unmapped page is a no-op"
    );
    assert!(
        !engine.trim(Lpn(9)),
        "trim of a never-written page is a no-op"
    );
    engine.write(Lpn(7), 700);
    assert_eq!(engine.read(Lpn(7)), Some(700), "write-after-trim works");
    assert_eq!(engine.counters.trims, 3, "every trim attempt is counted");
}

#[test]
fn trim_heavy_workload_stays_consistent_under_gc() {
    let mut engine = small_engine(48);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(0xF00D);
    let logical = engine.geometry().logical_pages() as u32;
    for i in 0..6_000u64 {
        let lpn = (rng.next() % logical as u64) as u32;
        match rng.next() % 5 {
            0 => {
                let had = engine.trim(Lpn(lpn));
                assert_eq!(had, oracle.expected(Lpn(lpn)).is_some(), "trim L{lpn}");
                oracle.ack_trim(Lpn(lpn));
            }
            _ => {
                engine.write(Lpn(lpn), i + 1);
                oracle.ack_write(Lpn(lpn), i + 1);
            }
        }
        if rng.next().is_multiple_of(7) {
            let probe = (rng.next() % logical as u64) as u32;
            assert_eq!(engine.read(Lpn(probe)), oracle.expected(Lpn(probe)));
        }
    }
    verify_all(&mut engine, &oracle);
}

#[test]
fn trim_survives_crash_and_recovery() {
    // Write a batch, trim part of it, keep writing (so the trims are mixed
    // into normal traffic), crash, recover: trimmed-and-not-rewritten pages
    // must NOT be resurrected by the backwards scan (§C.3 + the recovery
    // step-6 invalid_maps guard), while everything else survives.
    let mut engine = small_engine(48);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(0xBEEF);
    run_workload(&mut engine, &mut oracle, &mut rng, 3_000, true);

    let logical = engine.geometry().logical_pages() as u32;
    let mut trimmed = Vec::new();
    for k in 0..40u32 {
        let lpn = (rng.next() % logical as u64) as u32;
        if engine.trim(Lpn(lpn)) {
            oracle.ack_trim(Lpn(lpn));
            trimmed.push(lpn);
        }
        // Interleave writes so trims sit inside live traffic, not at the
        // tail where nothing would scan past them.
        let w = (rng.next() % logical as u64) as u32;
        if !trimmed.contains(&w) {
            engine.write(Lpn(w), 7_000_000 + k as u64);
            oracle.ack_write(Lpn(w), 7_000_000 + k as u64);
        }
    }
    assert!(!trimmed.is_empty(), "workload must actually trim something");

    let (mut recovered, _report) = crash_and_recover(engine);
    verify_all(&mut recovered, &oracle);
}

#[test]
fn trim_survives_clean_restart() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(0xCAFE);
    run_workload(&mut engine, &mut oracle, &mut rng, 2_000, true);
    let logical = engine.geometry().logical_pages() as u32;
    let victims = (0..logical)
        .map(Lpn)
        .filter(|&l| oracle.expected(l).is_some());
    for lpn in victims.take(10).collect::<Vec<_>>() {
        assert!(engine.trim(lpn));
        oracle.ack_trim(lpn);
    }
    engine.shutdown_clean();
    let (mut restarted, _) = crash_and_recover(engine);
    verify_all(&mut restarted, &oracle);
}

#[test]
fn tenant_accounting_tracks_ops_and_gc_debt() {
    let mut engine = small_engine(64);
    let logical = engine.geometry().logical_pages() as u32;
    // Tenant 1: light. Tenant 2: overwrite storm (drives all the GC).
    let mut submit = |tenant, kind, lpn| {
        let tenant = Some(tenant);
        engine
            .submit(HostOp { kind, lpn, tenant })
            .expect("in range");
    };
    for i in 0..200u64 {
        let version = i + 1;
        submit(1, HostOpKind::Write { version }, Lpn((i % 50) as u32));
    }
    for i in 0..8_000u64 {
        let lpn = Lpn((i % (logical as u64 / 4)) as u32 + 100);
        let version = i + 1;
        submit(2, HostOpKind::Write { version }, lpn);
    }
    submit(1, HostOpKind::Read, Lpn(3));
    submit(1, HostOpKind::Trim, Lpn(3));
    let t = engine.tenant_stats();
    let t1 = &t[&1];
    let t2 = &t[&2];
    assert_eq!(t1.writes, 200);
    assert_eq!(t1.reads, 1);
    assert_eq!(t1.trims, 1);
    assert_eq!(t2.writes, 8_000);
    assert_eq!(
        t1.writes + t2.writes,
        engine.counters.writes,
        "tenant writes partition the engine total"
    );
    assert!(t2.gc_operations > 0, "the storm must trigger GC");
    assert!(
        t2.gc_debt_us > t1.gc_debt_us,
        "GC debt lands on the tenant whose writes triggered it"
    );
    assert!(t2.write_lat.count() == 8_000 && t1.write_lat.count() == 200);
    assert_eq!(engine.counters.trims, 1);
}

/// How [`qos_headroom_is_byte_identical_when_disabled_and_prepays_when_on`]
/// hands its op sequence to the engine.
#[derive(Clone, Copy, PartialEq)]
enum Via {
    /// `write` / `read` / `trim`.
    Wrappers,
    /// `submit` with `tenant: None`.
    SubmitUntagged,
    /// `submit` with the op's tenant.
    SubmitTagged,
}

#[test]
fn qos_headroom_is_byte_identical_when_disabled_and_prepays_when_on() {
    // qos_headroom_blocks = 0 must not change behaviour at all (same device
    // IO for the same op sequence), whichever way the ops enter the engine
    // and whether or not they name a tenant; with headroom on, a heavy
    // tenant is made to prepay GC so its debt share rises.
    //
    // Returns the engine and Σ `Completion::sim_us` (submit variants only).
    let run = |headroom: usize, via: Via| {
        let geo = Geometry::tiny();
        let cfg = FtlConfig {
            cache_entries: 64,
            qos_headroom_blocks: headroom,
            ..FtlConfig::geckoftl(&geo)
        };
        let gecko = ValidityBackend::gecko_for(
            geo,
            GeckoConfig {
                page_header_bytes: geo.page_bytes - 64,
                ..GeckoConfig::paper_default(&geo)
            },
        );
        let mut e = FtlEngine::format(geo, cfg, gecko);
        let logical = geo.logical_pages() as u32;
        let t_start = e.device().clock().now_us();
        let mut sim_us = 0.0;
        for i in 0..9_000u64 {
            let heavy = i % 4 != 0;
            let tenant = Some(if heavy { 2 } else { 1 });
            let lpn = Lpn(if heavy {
                (i % (logical as u64 / 8)) as u32
            } else {
                (logical / 2) + (i % 64) as u32
            });
            // A write per step; every 8th step also reads the page back
            // and every 32nd trims it.
            let version = i + 1;
            let mut kinds = vec![HostOpKind::Write { version }];
            if i % 8 == 0 {
                kinds.push(HostOpKind::Read);
            }
            if i % 32 == 0 {
                kinds.push(HostOpKind::Trim);
            }
            for kind in kinds {
                let tenant = match via {
                    Via::Wrappers => {
                        match kind {
                            HostOpKind::Write { version } => e.write(lpn, version),
                            HostOpKind::Read => assert_eq!(e.read(lpn), Some(version)),
                            HostOpKind::Trim => assert!(e.trim(lpn)),
                        }
                        continue;
                    }
                    Via::SubmitUntagged => None,
                    Via::SubmitTagged => tenant,
                };
                sim_us += e.submit(HostOp { kind, lpn, tenant }).unwrap().sim_us;
            }
        }
        if via != Via::Wrappers {
            assert_eq!(
                sim_us,
                e.device().clock().now_us() - t_start,
                "completions partition the simulated time (no idle ticks ran)"
            );
        }
        e
    };
    let mut a = run(0, Via::SubmitTagged);
    let mut b = run(0, Via::Wrappers);
    let mut c = run(0, Via::SubmitUntagged);
    assert_eq!(io_state(&a), io_state(&b), "tagged submit vs wrappers");
    assert_eq!(io_state(&a), io_state(&c), "tagged vs untagged submit");
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.counters, c.counters);
    assert!(b.tenant_stats().is_empty() && c.tenant_stats().is_empty());
    for lpn in (0..Geometry::tiny().logical_pages() as u32).map(Lpn) {
        let want = a.read(lpn);
        assert_eq!(b.read(lpn), want, "read-back of {lpn:?}");
        assert_eq!(c.read(lpn), want, "read-back of {lpn:?}");
    }
    let q = run(4, Via::SubmitTagged);
    let qa = q.tenant_stats();
    let base = a.tenant_stats();
    assert!(
        qa[&2].gc_debt_us >= base[&2].gc_debt_us * 0.5,
        "heavy tenant still carries its debt under QoS"
    );
    // The light tenant's worst-case write latency must not get worse under
    // QoS: prepaid GC runs on the heavy tenant's clock.
    assert!(qa[&1].write_lat.max() <= base[&1].write_lat.max() * 1.5 + 1.0);
}

#[test]
fn out_of_range_lpn_is_refused_before_anything_is_charged() {
    let mut engine = small_engine(64);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    run_workload(&mut engine, &mut oracle, &mut Lcg(5), 500, true);
    let beyond = Lpn(engine.geometry().logical_pages() as u32);
    let before = (io_state(&engine), engine.counters);
    for kind in [
        HostOpKind::Write { version: 1 },
        HostOpKind::Read,
        HostOpKind::Trim,
    ] {
        let op = HostOp {
            kind,
            lpn: beyond,
            tenant: Some(7),
        };
        assert_eq!(engine.submit(op), Err(FtlError::LpnOutOfRange(op)));
        assert_eq!((io_state(&engine), engine.counters), before);
        assert!(engine.tenant_stats().is_empty());
    }
    // The unwrapping forms keep their panic messages.
    let panic_of = |f: fn(&mut FtlEngine, Lpn)| {
        let mut engine = small_engine(64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(&mut engine, beyond);
        }));
        *caught
            .expect_err("must panic")
            .downcast::<String>()
            .expect("formatted message")
    };
    assert_eq!(
        panic_of(|e, l| e.write(l, 1)),
        format!("write outside logical space: {beyond:?}")
    );
    assert_eq!(
        panic_of(|e, l| {
            e.read(l);
        }),
        format!("read outside logical space: {beyond:?}")
    );
    assert_eq!(
        panic_of(|e, l| {
            e.trim(l);
        }),
        format!("trim outside logical space: {beyond:?}")
    );
}

/// Write `lpns` (version = LPN) and push every mapping to flash.
fn write_and_sync(engine: &mut FtlEngine, lpns: impl Iterator<Item = u32>) {
    for lpn in lpns {
        engine.write(Lpn(lpn), lpn as u64);
    }
    engine.sync_all_dirty();
    while engine.idle_tick() {}
}

/// The stale-successor hazard of sequential read-ahead. The demand entry's
/// eviction synchronizes a dirty entry of the *same* translation page and
/// drops it from the cache, so the version the read fetched a moment ago
/// holds that LPN's superseded address — and the LPN, now uncached, is one of
/// the successors about to be installed.
///
/// Mutation this fails on: `read_inner` installing the successors without
/// comparing `tpage_location` across `make_room` (L13 then reads its old
/// version, 13, from the stale clean entry).
#[test]
fn read_ahead_drops_successors_its_own_eviction_superseded() {
    let mut engine = small_engine(3);
    write_and_sync(&mut engine, 10..20);
    engine.write(Lpn(13), 1300);
    // LRU → MRU: L13 (dirty), L10, L11.
    assert_eq!(engine.read(Lpn(10)), Some(10));
    assert_eq!(engine.read(Lpn(11)), Some(11));
    let lru = engine.cache().peek_lru().copied().unwrap();
    assert!(lru.lpn == Lpn(13) && lru.dirty && engine.cache().is_full());

    // The third read of the run misses; making room for it syncs L13.
    let syncs = engine.counters.syncs;
    assert_eq!(engine.read(Lpn(12)), Some(12));
    assert_eq!(engine.counters.syncs, syncs + 1, "the eviction synced");
    assert_eq!(engine.read(Lpn(13)), Some(1300), "newest version of L13");
    assert_eq!(engine.read(Lpn(14)), Some(14));
}

/// An engine whose translation page 0 (L0..L1023) is written and whose
/// 600-entry cache holds clean entries of page 1 only: cold for page 0.
fn engine_cold_for_tpage_0() -> FtlEngine {
    // 2 867 logical pages: translation pages 0 and 1 whole, 2 in part.
    let geo = Geometry::new(256, 16, 1 << 12, 0.7);
    let mut engine = small_engine_on(geo, 600, 1);
    write_and_sync(&mut engine, 0..1024);
    write_and_sync(&mut engine, 1024..1624);
    engine
}

/// The cached LPNs, least recently used first.
fn lru_order(engine: &FtlEngine) -> Vec<u32> {
    engine.cache().iter_lru_order().map(|e| e.lpn.0).collect()
}

fn translation_fetches(engine: &FtlEngine) -> u64 {
    let stats = engine.device().stats();
    stats.counts(IoPurpose::TranslationFetch).page_reads
}

/// What read-ahead buys: a sequential pass over one translation page pays a
/// fetch per doubling of the window, not one per read.
#[test]
fn a_sequential_pass_over_a_translation_page_fetches_it_once_per_doubling() {
    let mut engine = engine_cold_for_tpage_0();
    let before = translation_fetches(&engine);
    for lpn in 0..1024 {
        assert_eq!(engine.read(Lpn(lpn)), Some(lpn as u64));
    }
    // Misses at reads 1, 2, 3, 6, 12, 24, …, 768 of the run: 11 fetches,
    // against 1 024 at the parent.
    let fetches = translation_fetches(&engine) - before;
    assert!(fetches <= 12, "{fetches} fetches for 1 024 reads");
}

/// What read-ahead leaves alone: reads that form no run cost what a
/// demand-filled LRU cache costs, one fetch per miss.
#[test]
fn uniform_reads_fetch_once_per_miss_of_a_demand_filled_lru() {
    let mut engine = engine_cold_for_tpage_0();
    let mut model = lru_order(&engine);
    let mut rng = Lcg(0x5CA7);
    let (before, mut misses) = (translation_fetches(&engine), 0);
    for _ in 0..4000 {
        let lpn = (rng.next() % 1624) as u32;
        match model.iter().position(|&l| l == lpn) {
            Some(at) => drop(model.remove(at)),
            None => {
                misses += 1;
                model.remove(0);
            }
        }
        model.push(lpn);
        assert_eq!(engine.read(Lpn(lpn)), Some(lpn as u64));
    }
    assert_eq!(translation_fetches(&engine) - before, misses);
    assert_eq!(misses, 2549, "as measured at the parent of read-ahead");
    assert_eq!(lru_order(&engine), model);
}

/// A read with read-ahead charges one translation fetch and one user read —
/// plus whatever the *demand* entry's eviction costs, here nothing: the
/// successors take the place of clean LRU entries only, and a dirty entry at
/// the LRU end stops the install instead of being synchronized.
#[test]
fn read_ahead_issues_no_io_and_stops_at_a_dirty_lru_entry() {
    let mut engine = small_engine(8);
    write_and_sync(&mut engine, (0..40).chain([100, 200, 300, 400, 410, 420]));
    // LRU → MRU: L100, L200, L300 (dirty), L400, L410, L420, L10, L11.
    engine.read(Lpn(100));
    engine.read(Lpn(200));
    engine.write(Lpn(300), 3000);
    for lpn in [400, 410, 420, 10, 11] {
        engine.read(Lpn(lpn));
    }
    while engine.idle_tick() {}
    assert_eq!(lru_order(&engine), [100, 200, 300, 400, 410, 420, 10, 11]);
    assert_eq!(engine.cache().dirty_count(), 1);

    // Third read of the run: L100 makes room for L12, L200 for L13, and
    // L300 — dirty — is where read-ahead stops: L14 is not installed.
    let before = engine.device().stats().clone();
    let counters = engine.counters;
    assert_eq!(engine.read(Lpn(12)), Some(12));
    let delta = engine.device().stats().since(&before);
    let one_read = IoCounts {
        page_reads: 1,
        ..IoCounts::default()
    };
    for purpose in IoPurpose::ALL {
        let expected = match purpose {
            IoPurpose::TranslationFetch | IoPurpose::UserRead => one_read,
            _ => IoCounts::default(),
        };
        assert_eq!(delta.counts(purpose), expected, "{purpose:?}");
    }
    assert_eq!(engine.counters.syncs, counters.syncs);
    assert_eq!(lru_order(&engine), [300, 400, 410, 420, 10, 11, 12, 13]);
    assert!(engine.cache().lookup(Lpn(300)).unwrap().dirty);

    // The installed successor is a hit: no fetch.
    assert_eq!(engine.read(Lpn(13)), Some(13));
    let delta = engine.device().stats().since(&before);
    assert_eq!(delta.counts(IoPurpose::TranslationFetch), one_read);
}

/// The version cap flushes Gecko when `MAX_UNFLUSHED_VERSIONS` translation
/// versions are newer than the durable watermark, and a flush leaves an
/// empty shard's last flush where it was. Were an empty shard not counted as
/// flushed now (DESIGN.md invariant 6), a shard that never receives a report
/// would hold the watermark behind the cap for good, and every write would
/// flush the other shard again: a flush per report instead of one per `K`
/// synchronizations.
#[test]
fn gecko_flushes_stay_bounded_while_a_shard_buffer_stays_empty() {
    let geo = Geometry::new(512, 16, 1 << 12, 0.7);
    let cfg = FtlConfig {
        cache_entries: 16,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = GeckoConfig {
        shards: 2,
        ..GeckoConfig::paper_default(&geo)
    };
    let mut engine = FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko));
    let logical = geo.logical_pages() as u32;
    // First writes, in a scattered order, have no before-image: their syncs
    // report nothing. Every fourth op overwrites one of them that landed in
    // an even block instead, so every report goes to shard 0.
    let mut even = Vec::new();
    let mut reports = 0u64;
    for i in 0..4_000u32 {
        if i % 4 == 3 && reports < even.len() as u64 {
            engine.write(Lpn(even[reports as usize]), 1);
            reports += 1;
        } else {
            let lpn = Lpn(i.wrapping_mul(2_357) % logical);
            engine.write(lpn, 0);
            let ppn = engine.current_mapping(lpn).expect("just written");
            if geo.block_of(ppn).0.is_multiple_of(2) {
                even.push(lpn.0);
            }
        }
        let shards = engine.backend().gecko().expect("gecko").shard_trees();
        assert_eq!(
            shards[1].buffer_len(),
            0,
            "op {i}: shard 1 received a report"
        );
    }
    let syncs = engine.counters.syncs;
    let flushes = engine.backend().gecko_stats().expect("gecko").flushes;
    assert!(
        reports > 500 && syncs > 1_000,
        "{reports} reports, {syncs} syncs"
    );
    // One forced flush per `K` syncs at most, plus shard 0 filling its
    // buffer of `V` entries.
    let v = gecko.entries_per_page(&geo) as u64;
    assert!(
        flushes <= syncs / MAX_UNFLUSHED_VERSIONS as u64 + reports / v + 1,
        "{flushes} Gecko flushes for {syncs} syncs and {reports} reports"
    );
}
