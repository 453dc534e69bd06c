//! End-to-end tests of the FTL engine running GeckoFTL on a simulated
//! device: data integrity under garbage-collection pressure, crash recovery
//! with GeckoRec, and the §4.3 recovery-cost bounds.

use flash_sim::{
    BlockId, FaultPlan, FlashDevice, Geometry, IoCounts, IoOp, IoPurpose, LatencyModel, Lpn,
    MetaTag, PageOffset, Ppn, SpanKind, SpareInfo, TraceEvent, WriteFault,
};
use ftl_workloads::Oracle;
use geckoftl_core::cache::EVICTION_WINDOW_DIVISOR;
use geckoftl_core::ftl::{
    BlockGroup, FtlConfig, FtlEngine, FtlError, GcPolicy, HostOp, HostOpKind, RecoveryPolicy,
    ValidityBackend, MAX_UNFLUSHED_VERSIONS,
};
use geckoftl_core::gecko::GeckoConfig;
use geckoftl_core::recovery::{gecko_recover, RecoveryReport, RecoveryStep, StepCost};
use geckoftl_core::translation::TranslationPagePayload;
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

/// The user pages on `dev` as `(seq, block)`, newest first.
fn user_pages_newest_first(dev: &FlashDevice) -> Vec<(u64, u32)> {
    let geo = dev.geometry();
    let mut pages: Vec<(u64, u32)> = geo
        .iter_blocks()
        .flat_map(|b| (0..dev.written_pages(b)).map(move |off| (b, geo.ppn(b, PageOffset(off)))))
        .filter_map(|(b, ppn)| {
            let spare = dev.peek_spare(ppn)?;
            matches!(spare.info, SpareInfo::User { .. }).then_some((spare.seq, b.0))
        })
        .collect();
    pages.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    pages
}

/// GeckoRec step 6's spare reads on `dev` (no torn page) when its walk,
/// newest user page first, stops at the newest page older than `from`, as
/// `(pages walked, reads)`. The walked pages include the one that stops the
/// walk. Each costs one spare read, except each block's newest page, whose
/// spare area step 1 read; and each block the walk opened, other than the
/// stopping page's, that still holds an older page costs the one it read
/// ahead.
fn dirty_step_reads(dev: &FlashDevice, from: u64) -> (u64, u64) {
    let pages = user_pages_newest_first(dev);
    let stop = pages.iter().position(|&(seq, _)| seq < from);
    let (walked, rest) = pages.split_at(stop.map_or(pages.len(), |i| i + 1));
    let opened: HashSet<u32> = walked.iter().map(|&(_, b)| b).collect();
    let stopped_in = stop.map(|i| pages[i].1);
    let read_ahead = opened
        .iter()
        .filter(|&&b| Some(b) != stopped_in && rest.iter().any(|&(_, r)| r == b))
        .count();
    let walked = walked.len() as u64;
    (walked, walked - opened.len() as u64 + read_ahead as u64)
}

/// GeckoRec step 6 walks back to the checkpoint horizon — the start of the
/// epoch before the current one — or to the last Gecko flush, whichever is
/// older, plus the one page that stops it: 45 pages here, where the paper's
/// `2·C`-page window (with its `4·B` cushion) walks 129. It reads one spare
/// area per page walked but each block's newest, which step 1 read, plus
/// one page read ahead per other block still open when the walk stops: 41
/// spare reads here ([`dirty_step_reads`]). The run stops at the first
/// write after 8 000 whose checkpoint's last sync a flush followed, so that sync
/// alone carries the horizon to flash and step 4b diffs no version newer
/// than the flush: recovery reads the newest version for its horizon.
///
/// Mutations this fails on: a step 6 that ignores the horizon (120 spare
/// reads), one that reads each block's newest page again (38), a step 4b
/// that reads no version for its horizon but those it diffs (120), a
/// checkpoint whose syncs all precede the horizon's rise (64), and, with
/// `dirty_entries_stay_newer_than_the_checkpoint_horizon`, a checkpoint that
/// makes the *new* epoch's start the horizon (the scan stops short of the
/// previous epoch's dirty entries, and a write is lost).
#[test]
fn recovery_scan_is_bounded_by_checkpoints() {
    let mut engine = small_engine_on(Geometry::new(64, 16, 256, 0.7), 32, 1);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(99);
    run_workload(&mut engine, &mut oracle, &mut rng, 8000, true);
    let flushed = |e: &FtlEngine| e.backend().gecko().expect("gecko").last_flush_seq();
    let newest_version = |e: &FtlEngine| {
        let tt = e.translation();
        (0..tt.num_tpages())
            .filter_map(|t| e.device().peek_spare(tt.tpage_location(t)?))
            .map(|s| s.seq)
            .max()
            .expect("translation pages are on flash")
    };
    let logical = engine.geometry().logical_pages();
    for version in 1u64 << 40.. {
        let checkpoints = engine.counters.checkpoints;
        let lpn = Lpn((rng.next() % logical) as u32);
        engine.write(lpn, version);
        oracle.ack_write(lpn, version);
        if engine.counters.checkpoints > checkpoints && newest_version(&engine) < flushed(&engine) {
            break;
        }
        assert!(
            version < (1 << 40) + 4000,
            "no checkpoint's last sync was followed by a flush"
        );
    }
    let horizon = engine.translation().horizon();
    assert!(horizon > 0, "the run checkpoints");
    let (walked, reads) = dirty_step_reads(engine.device(), horizon.min(flushed(&engine) + 1));
    let (mut recovered, report) = crash_and_recover(engine);
    let dirty_step = step_cost(&report, RecoveryStep::DirtyEntries);
    assert_eq!((walked, reads), (45, 41));
    assert_eq!(
        dirty_step.spare_reads, reads,
        "one spare read per page since the horizon or the flush, and the one that stops the \
         scan, but each block's newest"
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

/// 64-page blocks, so a host block spans more than the checkpoint window of
/// a 32-entry cache.
fn frontier_engine(shards: u32) -> FtlEngine {
    small_engine_on(Geometry::new(64, 64, 256, 0.7), 32, shards)
}

/// The LPN [`frontier_engine`]'s op stream writes `version` to: every LPN
/// once, then three writes in four to the hot eighth, so GC victims hold
/// cold pages to copy.
fn frontier_lpn(version: u64, logical: u64, rng: &mut Lcg) -> Lpn {
    match version {
        v if v <= logical => Lpn(v as u32 - 1),
        _ if rng.next().is_multiple_of(4) => Lpn((rng.next() % logical) as u32),
        _ => Lpn((rng.next() % (logical / 8)) as u32),
    }
}

/// The two user frontiers' open blocks at the first op boundary where one
/// of them, opened before the other, holds the newest copy of an LPN whose
/// cached entry is dirty, while the other's first page is older than the
/// checkpoint horizon and the last flush: so a step 6 that walked whole
/// blocks newest first by their first page would stop inside the later
/// block and never reach that copy. Returns the ops run, as `(LPN,
/// version)`, and `(earlier block, later block, LPN)`.
fn interleaved_frontiers(shards: u32) -> (Vec<(Lpn, u64)>, (u32, u32, Lpn)) {
    let mut engine = frontier_engine(shards);
    let geo = engine.geometry();
    let mut rng = Lcg(5);
    let mut ops = Vec::new();
    let logical = geo.logical_pages();
    for version in 1..=20_000 {
        let lpn = frontier_lpn(version, logical, &mut rng);
        engine.write(lpn, version);
        ops.push((lpn, version));
        let dev = engine.device();
        let first = |b: u32| {
            dev.peek_spare(geo.ppn(BlockId(b), PageOffset(0)))
                .map(|s| s.seq)
        };
        // The host write just landed at the host frontier's open block.
        let host = geo
            .block_of(engine.current_mapping(lpn).expect("written"))
            .0;
        let bm = engine.block_manager();
        let Some(copies) = bm
            .blocks_of_group(BlockGroup::User)
            .map(|b| b.0)
            .find(|&b| b != host && bm.is_active(BlockId(b)) && first(b) < first(host))
        else {
            continue;
        };
        let stop = engine
            .translation()
            .horizon()
            .min(engine.backend().gecko().expect("gecko").last_flush_seq() + 1);
        let held = engine.cache().iter_lru_order().find(|e| {
            e.dirty
                && geo.block_of(e.ppn).0 == copies
                && dev.peek_spare(e.ppn).is_some_and(|s| s.seq >= stop)
        });
        if let Some(e) = held.filter(|_| first(host).is_some_and(|s| s < stop)) {
            return (ops, (copies, host, e.lpn));
        }
    }
    panic!("no interleaved frontiers in 20 000 writes");
}

/// GeckoRec step 6 walks user pages newest first across blocks, not block
/// by block: a crash where one user frontier's open block — here the
/// relocation frontier's, which GC copies fill slowly — started before the
/// other's and holds the newest copy of a dirty LPN ([`interleaved_frontiers`])
/// recovers every acknowledged write, at one tree and at four.
///
/// Mutation this fails on: a step 6 that walks whole blocks, newest first by
/// their first page (it stops inside the host frontier's block, and a read
/// follows the LPN's flash mapping to an erased page).
#[test]
fn recovery_walks_interleaved_frontiers_page_by_page() {
    for shards in [1, 4] {
        let (ops, (copies, host, lpn)) = interleaved_frontiers(shards);
        let mut engine = frontier_engine(shards);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        for &(lpn, version) in &ops {
            engine.write(lpn, version);
            oracle.ack_write(lpn, version);
        }
        let at = format!("shards {shards}, B{copies} before B{host}, {lpn:?}");
        let (mut recovered, _) = crash_and_recover(engine);
        assert_eq!(oracle.verify(|lpn| recovered.read(lpn)), Ok(()), "{at}");
    }
}

/// Where [`frontier_engine`]'s op stream first copies a page onto the
/// relocation frontier's open block while that block's newest page is older
/// than the checkpoint horizon and the last flush: the op, the write attempt
/// that programs the copy, the block and the copy's offset.
fn stale_relocation_copy(shards: u32) -> (u64, u64, BlockId, u32) {
    let mut engine = frontier_engine(shards);
    let geo = engine.geometry();
    let logical = geo.logical_pages();
    let mut rng = Lcg(5);
    let mut host = None;
    for version in 1..=20_000 {
        let lpn = frontier_lpn(version, logical, &mut rng);
        let dev = engine.device();
        let newest = |b: BlockId| {
            let written = dev.written_pages(b);
            dev.peek_spare(geo.ppn(b, PageOffset(written - 1)))
                .expect("a readable page")
                .seq
        };
        let stop = engine
            .translation()
            .horizon()
            .min(engine.backend().gecko().expect("gecko").last_flush_seq() + 1);
        let bm = engine.block_manager();
        let relocation = bm.blocks_of_group(BlockGroup::User).find(|&b| {
            Some(b) != host && bm.is_active(b) && !dev.block_is_full(b) && newest(b) < stop
        });
        let at = relocation.map(|b| (b, dev.written_pages(b)));
        let (attempts, seq) = (dev.write_attempts(), dev.now_seq());
        engine.write(lpn, version);
        host = engine.current_mapping(lpn).map(|p| geo.block_of(p));
        let dev = engine.device();
        if let Some((b, off)) = at.filter(|&(b, off)| dev.written_pages(b) > off) {
            // Without a failed program every write attempt takes one seq.
            let copy = dev
                .peek_spare(geo.ppn(b, PageOffset(off)))
                .expect("a copy")
                .seq;
            return (version, attempts + (copy - seq), b, off);
        }
    }
    panic!("no copy onto a stale relocation block in 20 000 writes");
}

/// A power cut that tears the spare area of a GC copy on the relocation
/// frontier's open block, whose readable pages are all older than the
/// checkpoint horizon and the last flush ([`stale_relocation_copy`]). The
/// torn page is the newest write, so step 6 walks it first: it reports the
/// page invalid and takes it off the block's BVC. Writes go on until GC has
/// collected that block, and every acknowledged write reads back, at one
/// tree and at four.
///
/// Mutation this fails on: a torn last page walked at the seq of the
/// readable page below it (the scan stops at an older page first, and the
/// collection that finds the torn page valid panics on its spare area).
#[test]
fn a_torn_relocation_copy_below_the_scan_horizon_is_reported() {
    for shards in [1, 4] {
        let (op, attempt, block, off) = stale_relocation_copy(shards);
        let mut engine = frontier_engine(shards);
        let geo = engine.geometry();
        let logical = geo.logical_pages();
        let mut oracle = Oracle::new(logical);
        let mut rng = Lcg(5);
        for version in 1..op {
            let lpn = frontier_lpn(version, logical, &mut rng);
            engine.write(lpn, version);
            oracle.ack_write(lpn, version);
        }
        let plan = FaultPlan::new().on_write(attempt, WriteFault::TornSpare);
        engine.with_raw_parts(|dev, _| dev.set_fault_plan(plan));
        let lpn = frontier_lpn(op, logical, &mut rng);
        oracle.in_flight(lpn, Some(op));
        engine.write(lpn, op);
        let image = engine.with_raw_parts(|dev, _| dev.take_crash_image());
        let image = image.expect("a torn write cuts the power");
        let at = format!("shards {shards}, {block:?} page {off}");
        assert_eq!(
            image.written_pages(block),
            off + 1,
            "{at}: the copy is torn"
        );
        assert!(
            image.peek_spare(geo.ppn(block, PageOffset(off))).is_none(),
            "{at}"
        );
        let erases = image.erase_count(block);
        let (cfg, gecko_cfg) = (engine.config(), engine.backend().gecko_config().unwrap());
        let (mut recovered, _) = gecko_recover(image, cfg, gecko_cfg);
        assert_eq!(oracle.verify(|lpn| recovered.read(lpn)), Ok(()), "{at}");
        let mut version = op;
        while recovered.device().erase_count(block) == erases {
            version += 1;
            assert!(version < op + 20_000, "{at}: the block is never collected");
            let lpn = frontier_lpn(version, logical, &mut rng);
            recovered.write(lpn, version);
            oracle.ack_write(lpn, version);
        }
        assert_eq!(oracle.verify(|lpn| recovered.read(lpn)), Ok(()), "{at}");
    }
}

/// R1, `recover ∘ recover`: GeckoRec survives a crash of the engine it
/// produced, right away and after a few ops (writes with read-back) before
/// that engine's first checkpoint, with one Gecko tree and with four. Every
/// acknowledged write reads back. The recovered entries stay dirty until that
/// checkpoint, so the recovered table's horizon is the oldest page one was
/// recreated from. A write's GC burst ticks the checkpoint clock, so the
/// second crash comes before the op that takes the first checkpoint: the
/// engine is deterministic, and the longest prefix of the six ops that takes
/// none is replayed. That prefix must include a collection, so the test
/// takes the first of eight op streams whose prefix does (at four trees the
/// first stream takes its first checkpoint before its first collection).
///
/// Mutation this fails on: the recovered table's horizon set to
/// `dev.now_seq()` (the second recovery stops short of the first one's
/// entries once a version carries it).
#[test]
fn recovering_a_recovered_engine_loses_no_write() {
    let geo = Geometry::new(64, 16, 256, 0.7);
    // The engine once recovered, after `ops` more ops of the same stream.
    let recovered_then = |shards: u32, seed: u64, ops: u64| {
        let mut engine = small_engine_on(geo, 32, shards);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        let mut rng = Lcg(seed);
        run_workload(&mut engine, &mut oracle, &mut rng, 3000, true);
        let (mut once, first) = crash_and_recover(engine);
        assert!(first.recovered_entries > 0);
        run_workload(&mut once, &mut oracle, &mut rng, ops, true);
        (once, oracle)
    };
    for shards in [1, 4] {
        for ops_between in [0, 6] {
            // The first stream whose longest checkpoint-free prefix
            // collects, from seed 31 + shards on.
            let seeds = (31 + shards as u64..).take(8);
            let (once, oracle) = seeds
                .filter_map(|seed| {
                    (0..=ops_between)
                        .rev()
                        .map(|ops| recovered_then(shards, seed, ops))
                        .find(|(once, _)| once.counters.checkpoints == 0)
                })
                .find(|(once, _)| ops_between == 0 || once.counters.gc_operations > 0)
                .unwrap_or_else(|| panic!("shards {shards}: no collection before a checkpoint"));
            let (mut twice, _) = crash_and_recover(once);
            verify_all(&mut twice, &oracle);
        }
    }
}

/// Whether step 4b's erase-timestamp rule (DESIGN.md invariant 12) and the
/// spare area agree on every page every translation-page version on `dev`
/// that holds its payload maps: a page whose block is unerased since the
/// version's mappings were current is a user page written before then. The
/// first mapping on which they disagree, as `(mapped_at, page)`.
fn a_version_maps_a_page_erased_before_it(dev: &FlashDevice) -> Option<(u64, Ppn)> {
    let geo = dev.geometry();
    let written = |b| (0..dev.written_pages(b)).map(move |o| geo.ppn(b, PageOffset(o)));
    let versions = geo.iter_blocks().flat_map(written).filter_map(|ppn| {
        let spare = dev.peek_spare(ppn)?;
        let SpareInfo::Translation { .. } = spare.info else {
            return None;
        };
        if dev.is_reclaimed(ppn) {
            return None; // no recovery reads it (invariant 17)
        }
        let page = dev.peek_page(ppn)?;
        let payload = page.blob::<TranslationPagePayload>()?;
        Some((payload.mapped_at, payload.entries.clone()))
    });
    for (seq, entries) in versions.collect::<Vec<_>>() {
        for ppn in entries.into_iter().filter(|&p| p != u32::MAX).map(Ppn) {
            let unerased = dev.erase_seq(geo.block_of(ppn)) < seq;
            let holds = dev
                .peek_spare(ppn)
                .is_some_and(|s| s.seq < seq && matches!(s.info, SpareInfo::User { .. }));
            if unerased != holds {
                return Some((seq, ppn));
            }
        }
    }
    None
}

/// A recovered engine verifies the recreated entries that do not fit its
/// cache with one sync per translation page. A sync per entry wrote, for
/// the first entries of a page, versions that still carried the others'
/// mappings from the crash image, and such a mapping can name a page whose
/// block GC erased before the crash: the entry's newer copy is what recovery
/// recreated. The next recovery would then report that page invalid in the
/// block's new life, because the version naming it postdates the erase.
/// Here every version on flash after the recovery of a `C = 32` engine,
/// which leaves dozens of entries over, maps only pages the rule judges
/// right, at one tree and at four. A sync per entry fails this on three of
/// the eight runs (seeds 0 and 1 at four trees, 3 at one).
///
/// Mutation this fails on: `resolve_recovered_overflow` syncing one entry
/// at a time.
#[test]
fn overflow_entries_are_verified_one_translation_page_at_a_time() {
    for (seed, shards) in (0..4).flat_map(|seed| [(seed, 1), (seed, 4)]) {
        let geo = Geometry::new(64, 16, 256, 0.7);
        let mut engine = small_engine_on(geo, 32, shards);
        let mut oracle = Oracle::new(geo.logical_pages());
        run_workload(&mut engine, &mut oracle, &mut Lcg(seed), 3_000, true);
        let at = format!("seed {seed}, {shards} trees");
        let found = a_version_maps_a_page_erased_before_it(engine.device());
        assert_eq!(found, None, "{at}, before the crash: (version seq, page)");
        let (mut recovered, report) = crash_and_recover(engine);
        assert!(report.recovered_entries > 32, "{at}: no overflow");
        let found = a_version_maps_a_page_erased_before_it(recovered.device());
        assert_eq!(found, None, "{at}: (version seq, page)");
        verify_all(&mut recovered, &oracle);
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

/// A link of the version chain stands for a translation-page version, which
/// `MAX_UNFLUSHED_VERSIONS` counts: a sync that aborts as all false alarms
/// (App. C.3.1) and a trim of an unmapped LPN write none, and leave the chain
/// as they found it.
///
/// Mutation this fails on: `sync_tpage_with` or `trim_inner` keeping the link
/// `protect_tpage_version` took before it knew whether a version follows.
#[test]
fn a_sync_or_trim_that_writes_no_version_leaves_the_chain_alone() {
    let chain = |e: &FtlEngine| e.block_manager().chain_len();
    // Fewer writes than C, so no checkpoint: recovery recreates an uncertain
    // entry for each, and all of them fit into the cache.
    let mut engine = small_engine(64);
    write_and_sync(&mut engine, 0..40);
    engine.shutdown_clean();
    let (mut recovered, _) = crash_and_recover(engine);
    assert_eq!(recovered.cache().uncertain_count(), 40);
    let (links, syncs) = (chain(&recovered), recovered.counters.syncs);
    recovered.sync_all_dirty();
    assert!(recovered.counters.syncs > syncs);
    assert_eq!(
        recovered.counters.syncs, recovered.counters.syncs_aborted,
        "every sync is a C.3.1 false alarm"
    );
    assert_eq!(chain(&recovered), links, "aborted syncs wrote no version");

    let mut engine = small_engine(64);
    // The rewrites' reports sit in the Gecko buffer and hold their links.
    write_and_sync(&mut engine, 0..10);
    write_and_sync(&mut engine, 0..10);
    let links = chain(&engine);
    assert!(links > 0);
    assert!(!engine.trim(Lpn(500)), "L500 was never written");
    assert_eq!(chain(&engine), links, "a no-op trim wrote no version");
    assert!(engine.trim(Lpn(5)));
    assert_eq!(chain(&engine), links + 1, "a trim that unmaps writes one");
}

/// `n` writes (version `i + 1`) of uniformly random LPNs from `Lcg(seed)`,
/// acknowledged in `oracle`, until a torn program has captured a crash
/// image; the image, if one was.
fn write_until_power_cut(
    engine: &mut FtlEngine,
    oracle: &mut Oracle,
    seed: u64,
    n: u64,
) -> Option<FlashDevice> {
    let logical = engine.geometry().logical_pages();
    let mut rng = Lcg(seed);
    for version in 1..=n {
        let lpn = Lpn((rng.next() % logical) as u32);
        engine.write(lpn, version);
        if engine.device().crash_image_ready() {
            oracle.in_flight(lpn, Some(version));
            return engine.with_raw_parts(|dev, _| dev.take_crash_image());
        }
        oracle.ack_write(lpn, version);
    }
    None
}

/// The program attempts of `events` (indices from `first`) that follow, in
/// one collection, a translation sync and then a whole Gecko flush run: the
/// first such program per collection.
fn programs_after_a_sync_and_a_flush_in_gc(events: &[TraceEvent], first: u64) -> Vec<u64> {
    let is = |p: u8, purpose: IoPurpose| p as usize == purpose.index();
    let programs: Vec<(f64, u8)> = events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Io {
                purpose,
                op: IoOp::PageWrite,
                start_us,
                ..
            } => Some((start_us, purpose)),
            _ => None,
        })
        .collect();
    let mut found = Vec::new();
    for ev in events {
        let TraceEvent::Span {
            kind: SpanKind::GcCollect,
            start_us,
            dur_us,
            ..
        } = *ev
        else {
            continue;
        };
        let end = start_us + dur_us as f64;
        let (mut synced, mut flushed) = (false, false);
        for (i, &(at, purpose)) in programs.iter().enumerate() {
            if at < start_us || at >= end {
                continue;
            }
            let flush = is(purpose, IoPurpose::ValidityUpdate);
            if flushed && !flush {
                found.push(first + i as u64);
                break;
            }
            synced |= is(purpose, IoPurpose::TranslationSync);
            flushed |= synced && flush;
        }
    }
    found
}

/// GC's UIP skip (§4.1) leaves the entry's UIP flag set until the victim's
/// erase marker exists, so a sync of the entry during the collection still
/// reports the skipped page. With the flag cleared at the skip, that sync
/// reports nothing, a Gecko flush after it moves recovery's diff horizon
/// (App. C.2.2) past the sync, and a power cut before the erase leaves the
/// page valid in the store with no trail: the auditor sees a store-valid
/// page that is not its LPN's target, and a later GC would migrate it.
///
/// A dry run finds each collection in which a translation sync and then a
/// whole flush run happen; a replay per collection tears the next program.
/// With the flag cleared at the skip, 1, 1 and 2 of those cuts fail on
/// seeds 1, 4 and 20 (of 24 seeds, 7 fail).
///
/// Mutation this fails on: `collect_user_block` clearing the UIP flag at
/// the skip.
#[test]
fn a_uip_skip_survives_a_sync_a_flush_and_a_power_cut_before_the_erase() {
    let fresh = || small_engine(16);
    let (cfg, gecko_cfg) = (fresh().config(), fresh().backend().gecko_config().unwrap());
    let ops = 3_000;
    for seed in [1, 4, 20] {
        let mut dry = fresh();
        let first = dry.device().write_attempts();
        dry.telemetry_mut().enable(1 << 20);
        let mut oracle = Oracle::new(dry.geometry().logical_pages());
        assert!(write_until_power_cut(&mut dry, &mut oracle, seed, ops).is_none());
        assert_eq!(dry.telemetry().dropped_events(), 0, "ring too small");
        let events: Vec<TraceEvent> = dry.telemetry().events().copied().collect();
        let cuts = programs_after_a_sync_and_a_flush_in_gc(&events, first);
        assert!(cuts.len() >= 5, "seed {seed}: {} cut points", cuts.len());
        for attempt in cuts {
            let mut engine = fresh();
            let plan = FaultPlan::new().on_write(attempt, WriteFault::TornData);
            engine.with_raw_parts(|dev, _| dev.set_fault_plan(plan));
            let mut oracle = Oracle::new(engine.geometry().logical_pages());
            let image = write_until_power_cut(&mut engine, &mut oracle, seed, ops);
            let (mut recovered, _) = gecko_recover(image.expect("cut"), cfg, gecko_cfg);
            let at = format!("seed {seed}, cut at program attempt {attempt}");
            assert_eq!(recovered.audit(), Ok(()), "{at}");
            assert_eq!(oracle.verify(|lpn| recovered.read(lpn)), Ok(()), "{at}");
        }
    }
}

#[test]
fn greedy_policy_also_preserves_data() {
    let geo = Geometry::tiny();
    let cfg = FtlConfig {
        cache_entries: 64,
        gc_policy: GcPolicy::GreedyAll,
        recovery: RecoveryPolicy::CheckpointDeferred,
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
/// spare read (DESIGN.md invariant 12); step 4a decides its erase markers
/// from the erase timestamps alone, so step 4 reads no spare area at all.
/// The recovery is checked against the reference GeckoRec, which decides
/// each mapping with a spare read; no block is erased here, so the crash
/// storms (`crash_storm.rs`) are what catch a wrong timestamp decision:
/// reporting every candidate without the timestamp check fails them there.
///
/// Mutation this fails on: restoring the pairwise `chain.windows(2)` loop
/// (2k page reads).
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
    assert_eq!(buffer.spare_reads, 0, "step 4 reads no spare area");
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

/// GeckoRec step 3 judges run liveness and builds every kept run's directory
/// from the spare areas it scans, and reads no page: not of a kept run, not
/// of a merged-away leftover, and not of a merge output still being written
/// (a partial run, fewer pages than its tags count, discarded; at most one
/// per tree). Step 5 reads each live run page once. Four trees on a
/// deep-tree geometry with 64-page blocks, where the merged-away runs still
/// on flash outnumber the live ones more than four to one (330 to 71 over
/// twelve instants 400 ops apart).
///
/// Mutations this fails on: step 3 reading a page, and step 5 reading a
/// page twice or skipping one.
#[test]
fn run_directory_step_reads_each_live_run_page_once() {
    let geo = Geometry::new(64, 64, 256, 0.7);
    let mut engine = small_engine_on(geo, 32, 4);
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut rng = Lcg(77);
    let (mut kept, mut leftovers) = (0, 0);
    for _ in 0..12 {
        run_workload(&mut engine, &mut oracle, &mut rng, 400, true);
        let gecko = engine.backend().gecko().expect("gecko");
        let runs = gecko.all_runs().count();
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
        assert_eq!(dirs.page_reads, 0, "step 3");
        assert_eq!(dirs.page_reads + bvc.page_reads, pages, "steps 3 and 5");
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

/// GeckoRec step 6 charges one spare read per page its backwards scan walks
/// but each user block's newest, whose spare area step 1 read: none per
/// before-pointer, which the erase-timestamp filter decides (DESIGN.md
/// invariant 12). With no Gecko flush since format the scan walks every
/// user page written, 36 on 3 blocks, so 33 reads ([`dirty_step_reads`]).
///
/// Mutations this fails on: reading the before-pointer's spare area again
/// (24 extra reads here), and reading each block's newest page again (3
/// extra).
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
    let (walked, reads) = dirty_step_reads(engine.device(), 0);
    assert_eq!(walked, ROUNDS * LPNS as u64, "every user page");
    let (mut recovered, report) = crash_and_recover(engine);
    let dirty = step_cost(&report, RecoveryStep::DirtyEntries);
    assert_eq!(reads, 33);
    assert_eq!(
        dirty.spare_reads, reads,
        "one per user page but each block's newest"
    );
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
/// that still holds valid pages — never a batched one — and a collection
/// paced over the host ops that follow its pick. Checked after every op: at
/// most one collection is in flight, and while the same victim stays in
/// flight across an op, that op asks no query, takes no checkpoint,
/// collects no other victim, and neither programs nor erases the victim;
/// a victim that leaves flight has been erased (or retired). The victim's
/// one query is counted off the telemetry spans at the end.
///
/// Mutations this fails on: `maybe_checkpoint` checkpointing with a victim
/// in flight, and a second `gc_query` per slice.
#[test]
fn gc_asks_one_query_per_victim_and_paces_one_collection_at_a_time() {
    for shards in [1u32, 4] {
        let geo = Geometry::tiny().with_channels(shards);
        let mut engine = small_engine_on(geo, 64, shards);
        engine.telemetry_mut().enable(1 << 19);
        let logical = geo.logical_pages();
        let mut rng = Lcg(0x6C0 + shards as u64);
        let queries = |e: &FtlEngine| e.backend().gecko_stats().expect("gecko").queries;
        let (mut ops_in_flight, mut paced_victims) = (0u64, 0u64);
        for i in 0..8_000u64 {
            let before = engine.gc_victim().map(|v| {
                let dev = engine.device();
                (v, dev.written_pages(v), dev.erase_count(v))
            });
            let counters = engine.counters;
            let asked = queries(&engine);
            let lpn = Lpn((rng.next() % logical) as u32);
            match rng.next() % 8 {
                0 => drop(engine.trim(lpn)),
                1 => drop(engine.read(lpn)),
                _ => engine.write(lpn, i),
            }
            let after = engine.gc_victim();
            let Some((victim, written, erases)) = before else {
                continue;
            };
            let dev = engine.device();
            if after == Some(victim) {
                ops_in_flight += 1;
                let at = format!("shards={shards}, op {i}, victim {victim:?}");
                assert_eq!(queries(&engine), asked, "{at}: a second query");
                assert_eq!(
                    engine.counters.checkpoints, counters.checkpoints,
                    "{at}: a checkpoint inside the collection"
                );
                assert_eq!(
                    engine.counters.gc_operations, counters.gc_operations,
                    "{at}: another victim collected meanwhile"
                );
                assert_eq!(dev.written_pages(victim), written, "{at}: programmed");
                assert_eq!(dev.erase_count(victim), erases, "{at}: erased");
            } else {
                paced_victims += 1;
                assert!(
                    dev.erase_count(victim) > erases || engine.block_manager().is_retired(victim),
                    "shards={shards}, op {i}: {victim:?} left flight unerased"
                );
            }
        }
        assert!(
            ops_in_flight > 1_000 && paced_victims > 100,
            "shards={shards}: {ops_in_flight} ops with a victim in flight, \
             {paced_victims} victims paced"
        );
        // A metadata block taken mid-collection can still drop the free
        // pages below the floor, and the next op then finishes the victim
        // inline (ROADMAP item 27): 60 of 586 collections with one tree, 45
        // of 643 with four. The fallback must stay the exception.
        let (fallbacks, collections) = (
            engine.counters.gc_floor_fallbacks,
            engine.counters.gc_operations,
        );
        assert!(
            8 * fallbacks < collections,
            "shards={shards}: {fallbacks} floor fallbacks in {collections} collections"
        );
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
        // The victim still in flight has had its query, but no span yet.
        let in_flight = engine.gc_victim().is_some() as u64;
        let stats = engine.backend().gecko_stats().expect("gecko backend");
        assert_eq!(
            stats.queries,
            queried_collections + in_flight,
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

/// How [`tagged_untagged_and_wrapper_ops_agree_and_completions_partition_time`]
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
fn tagged_untagged_and_wrapper_ops_agree_and_completions_partition_time() {
    // Naming a tenant is accounting only: the same op sequence does the
    // same device IO whichever way it enters the engine and whether or not
    // it names a tenant, and the submit variants' completions sum to the
    // simulated time that passed.
    let run = |via: Via| {
        let geo = Geometry::tiny();
        let cfg = FtlConfig {
            cache_entries: 64,
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
    let mut a = run(Via::SubmitTagged);
    let mut b = run(Via::Wrappers);
    let mut c = run(Via::SubmitUntagged);
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
/// successors take the place of clean entries of the eviction window only
/// (the `C / 2` least recently used), and a dirty entry there is skipped,
/// not synchronized.
#[test]
fn read_ahead_issues_no_io_and_skips_a_dirty_lru_entry() {
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
    assert_eq!(engine.cache().capacity() / EVICTION_WINDOW_DIVISOR, 4);

    // Third read of the run: L100 makes room for L12, L200 for L13, and
    // L400 — the oldest clean entry once L300, dirty, is the LRU one — for
    // L14.
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
    assert_eq!(lru_order(&engine), [300, 410, 420, 10, 11, 12, 13, 14]);
    assert!(engine.cache().lookup(Lpn(300)).unwrap().dirty);

    // The installed successors are hits: no fetch.
    assert_eq!(engine.read(Lpn(13)), Some(13));
    assert_eq!(engine.read(Lpn(14)), Some(14));
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
    for i in 0..5_000u32 {
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
