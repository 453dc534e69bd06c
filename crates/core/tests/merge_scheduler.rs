//! Property tests of the incremental merge scheduler: at every step budget
//! (including 1, and including never pumping at all) it must produce
//! **logically identical** Logarithmic Gecko state to synchronous merging —
//! every GC query answers the same bits, mid-stream and settled — and the
//! drained structure must satisfy the settled-shape invariants (≤ 1 run per
//! level, bounded space). Byte-identical *physical* state across cadences
//! stopped being the contract when merge planning was allowed to proceed
//! with jobs still in flight (plan-time run-id reservation + span-contiguous
//! plans): the merge tree now legitimately depends on pump cadence. Queries
//! must stay correct while a merge is in flight, and a crash mid-merge —
//! including mid-output-write, with orphan pages on flash — must recover
//! exactly.

use flash_sim::{BlockId, FlashDevice, Geometry, Ppn};
use ftl_workloads::Oracle;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::{GeckoConfig, LogGecko, ShardedGecko};
use geckoftl_core::validity::FlatMetaSink;

mod common;
use common::{crash_and_recover, run_workload, verify_all, Lcg};

/// Small pages so flushes and multi-level merges happen at test scale.
fn small_page_cfg(size_ratio: u32, multiway: bool) -> GeckoConfig {
    GeckoConfig {
        size_ratio,
        multiway_merge: multiway,
        page_header_bytes: 4096 - 40, // ≈6 entries per page
        ..GeckoConfig::default()
    }
}

fn harness(cfg: GeckoConfig) -> (FlashDevice, FlatMetaSink, LogGecko) {
    let geo = Geometry::tiny();
    let dev = FlashDevice::new(geo);
    let sink = FlatMetaSink::new((32..64).map(BlockId).collect());
    let gecko = LogGecko::new(geo, cfg);
    (dev, sink, gecko)
}

/// Drive one pseudo-random update/erase stream into a Gecko instance,
/// pumping the incremental scheduler with `step_pages` after every
/// operation (0 = never pump; merges then settle only via flush drains).
fn drive(
    gecko: &mut LogGecko,
    dev: &mut FlashDevice,
    sink: &mut FlatMetaSink,
    seed: u64,
    ops: u64,
    step_pages: u64,
) {
    let geo = dev.geometry();
    let mut rng = Lcg(seed);
    for _ in 0..ops {
        let x = rng.next();
        if x.is_multiple_of(23) {
            gecko.note_erase(dev, sink, BlockId((x >> 8) as u32 % 32));
        } else {
            let page = (x >> 8) % (32 * geo.pages_per_block as u64);
            gecko.mark_invalid(dev, sink, Ppn(page as u32));
        }
        if step_pages > 0 {
            gecko.pump_merges(dev, sink, step_pages);
        }
    }
}

/// Assert two Gecko instances hold logically identical state: every GC
/// query over the user area answers the same bits, and the drained
/// structure satisfies the settled-shape invariants (≤ 1 run per level, no
/// queued work). Physical layout (run ids, directories, lineage) may
/// differ: the merge tree depends on pump cadence once planning proceeds
/// with jobs in flight.
fn assert_state_equivalent(
    a: &mut LogGecko,
    adev: &mut FlashDevice,
    b: &mut LogGecko,
    bdev: &mut FlashDevice,
    label: &str,
) {
    for blk in 0..32 {
        let want = a.gc_query(adev, BlockId(blk));
        let got = b.gc_query(bdev, BlockId(blk));
        for i in 0..16 {
            assert_eq!(want.get(i), got.get(i), "{label}: query bit {blk}:{i}");
        }
    }
    assert_eq!(a.buffer_len(), b.buffer_len(), "{label}: buffer");
    assert_eq!(b.merge_jobs_pending(), 0, "{label}: jobs must be drained");
    assert_eq!(
        b.merge_backlog_pages(),
        0,
        "{label}: backlog must be drained"
    );
    for (lvl, count) in b.runs_per_level().iter().enumerate() {
        assert!(
            *count <= 1,
            "{label}: level {lvl} holds {count} settled runs"
        );
    }
}

/// The equivalence property: for several step budgets (including the
/// minimal 1-page step), interleaving bounded merge slices with the update
/// stream answers every GC query exactly as synchronous merging does —
/// both mid-stream (merge in flight) and after quiescing — and the drained
/// structure settles to at most one run per level.
#[test]
fn incremental_merges_match_sync_logically() {
    for (size_ratio, multiway) in [(2, true), (2, false), (3, true)] {
        let sync_cfg = GeckoConfig {
            sync_merge: true,
            ..small_page_cfg(size_ratio, multiway)
        };
        let (mut sdev, mut ssink, mut sync) = harness(sync_cfg);
        // The sync reference is driven without pumping (nothing to pump).
        drive(&mut sync, &mut sdev, &mut ssink, 0xFEED, 3000, 0);
        sync.flush(&mut sdev, &mut ssink);

        for step_pages in [1u64, 2, 3, 7, 64] {
            let inc_cfg = GeckoConfig {
                sync_merge: false,
                ..small_page_cfg(size_ratio, multiway)
            };
            let (mut idev, mut isink, mut inc) = harness(inc_cfg);
            drive(&mut inc, &mut idev, &mut isink, 0xFEED, 3000, step_pages);
            // Mid-stream the structures may differ transiently (a merge may
            // be in flight) but every query must already agree.
            for b in 0..32 {
                let want = sync.gc_query(&mut sdev, BlockId(b));
                let got = inc.gc_query(&mut idev, BlockId(b));
                for i in 0..16 {
                    assert_eq!(
                        want.get(i),
                        got.get(i),
                        "T={size_ratio} mw={multiway} step={step_pages}: \
                         mid-stream query bit {b}:{i}"
                    );
                }
            }
            // Quiesce: the drained structure must be logically identical
            // and settled.
            inc.flush(&mut idev, &mut isink);
            inc.drain_merges(&mut idev, &mut isink);
            assert_state_equivalent(
                &mut sync,
                &mut sdev,
                &mut inc,
                &mut idev,
                &format!("T={size_ratio} mw={multiway} step={step_pages}"),
            );
        }
    }
}

/// Never pumping at all is the pathological cadence. Flushes no longer
/// force-drain pending jobs (plan-time run-id reservation makes pushes
/// sound with work in flight), so the only inline merging left is the
/// flush backpressure valve, which caps the debt a pump-less caller can
/// accumulate. State must still match sync logically, the valve must be
/// visible in the stats, and debt must stay bounded throughout.
#[test]
fn unpumped_scheduler_settles_via_flush_drains() {
    let (mut sdev, mut ssink, mut sync) = harness(GeckoConfig {
        sync_merge: true,
        ..small_page_cfg(2, true)
    });
    drive(&mut sync, &mut sdev, &mut ssink, 31, 4000, 0);
    sync.flush(&mut sdev, &mut ssink);

    let cfg = small_page_cfg(2, true);
    let (mut idev, mut isink, mut inc) = harness(cfg);
    let geo = idev.geometry();
    // The valve's debt ceiling: 16 slice budgets per channel.
    let ceiling = 16 * cfg.merge_step_pages as u64 * geo.channels as u64;
    let mut rng = Lcg(31);
    let mut max_backlog = 0u64;
    for _ in 0..4000 {
        let x = rng.next();
        if x.is_multiple_of(23) {
            inc.note_erase(&mut idev, &mut isink, BlockId((x >> 8) as u32 % 32));
        } else {
            let page = (x >> 8) % (32 * geo.pages_per_block as u64);
            inc.mark_invalid(&mut idev, &mut isink, Ppn(page as u32));
        }
        max_backlog = max_backlog.max(inc.merge_backlog_pages());
    }
    inc.flush(&mut idev, &mut isink);
    inc.drain_merges(&mut idev, &mut isink);
    assert_state_equivalent(&mut sync, &mut sdev, &mut inc, &mut idev, "unpumped");
    assert!(
        inc.stats.merge_stall_drains > 0,
        "a pump-less caller must hit the backpressure valve"
    );
    assert!(
        max_backlog <= ceiling,
        "merge debt must stay bounded without pumping \
         (peak {max_backlog}, ceiling {ceiling})"
    );
    assert_eq!(sync.stats.merge_stall_drains, 0, "sync never stalls");
}

/// The run list *is* the query order. Under random invalidations, erases
/// and pumps — budgets {1, 3, 64}, `sync_merge` and `multiway_merge` on and
/// off, one `from_recovered` round trip in the middle — after every step
/// `runs_newest_first()` strictly descends in `data_age()`, live spans are
/// pairwise disjoint, and the filtered query answers every block exactly as
/// the probe-every-run oracle does. Under `sync_merge` no public call
/// returns with a merge job queued: `flush` ran every job it planned, which
/// is why nothing but `flush` needs to read the knob.
#[test]
fn runs_stay_newest_first() {
    fn check(g: &mut LogGecko, dev: &mut FlashDevice, label: &str) {
        let settled = |g: &LogGecko| {
            if g.config().sync_merge {
                assert_eq!(g.merge_jobs_pending(), 0, "{label}: job left queued");
            }
        };
        settled(g);
        let metas: Vec<_> = g.runs_newest_first().map(|r| r.meta.clone()).collect();
        for w in metas.windows(2) {
            assert!(
                w[0].data_age() > w[1].data_age(),
                "{label}: {:?} listed before {:?}",
                w[0].data_age(),
                w[1].data_age()
            );
            // Descending by span end, so pairwise disjoint iff each span
            // ends before its predecessor's begins.
            assert!(
                w[1].supersedes_upto < w[0].supersedes_since,
                "{label}: spans {:?} and {:?} overlap",
                w[0].span(),
                w[1].span()
            );
        }
        for blk in (0..32).map(BlockId) {
            assert_eq!(
                g.gc_query(dev, blk),
                g.gc_query_naive(dev, blk),
                "{label}: {blk:?}"
            );
        }
        settled(g);
    }

    for (sync_merge, multiway) in [(false, true), (false, false), (true, true), (true, false)] {
        for budget in [1u64, 3, 64] {
            let cfg = GeckoConfig {
                sync_merge,
                ..small_page_cfg(2, multiway)
            };
            let label = format!("sync {sync_merge}, multiway {multiway}, budget {budget}");
            let (mut dev, mut sink, mut gecko) = harness(cfg);
            let geo = dev.geometry();
            let mut rng = Lcg(0xA9E ^ budget);
            for step in 0..400 {
                if step == 250 {
                    // Persist the buffer, forget all RAM state (queued jobs
                    // included) and rebuild from the runs, handed over
                    // oldest first.
                    gecko.flush(&mut dev, &mut sink);
                    check(&mut gecko, &mut dev, &label);
                    let mut runs: Vec<_> = gecko.runs_newest_first().cloned().collect();
                    runs.reverse();
                    gecko = LogGecko::from_recovered(geo, cfg, runs);
                }
                let x = rng.next();
                match x % 8 {
                    0 => gecko.note_erase(&mut dev, &mut sink, BlockId((x >> 8) as u32 % 32)),
                    1 | 2 => {
                        gecko.pump_merges(&mut dev, &mut sink, budget);
                    }
                    _ => {
                        let page = (x >> 8) % (32 * geo.pages_per_block as u64);
                        gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
                    }
                }
                check(&mut gecko, &mut dev, &label);
            }
            assert!(gecko.stats.merges > 0, "{label}: must have merged");
        }
    }
}

fn incremental_engine(merge_step_pages: u32) -> FtlEngine {
    let geo = Geometry::tiny();
    let cfg = FtlConfig {
        cache_entries: 64,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = ValidityBackend::gecko_for(
        geo,
        GeckoConfig {
            page_header_bytes: geo.page_bytes - 64,
            sync_merge: false,
            merge_step_pages,
            ..GeckoConfig::paper_default(&geo)
        },
    );
    FtlEngine::format(geo, cfg, gecko)
}

/// Crash while a merge is in flight — including specifically while the
/// output run is partially written, leaving orphan pages on flash — and
/// recover with GeckoRec. No data may be lost, the orphan pages must be
/// discarded (the inputs stay live), and operation must continue cleanly.
#[test]
fn crash_mid_merge_recovers_exactly() {
    let mut rng = Lcg(0xC0FFEE);
    let mut crashed_mid_write = 0u32;
    let mut crashed_mid_merge = 0u32;
    for round in 0..6u64 {
        let mut engine = incremental_engine(1); // 1-page steps: maximal exposure
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        run_workload(
            &mut engine,
            &mut oracle,
            &mut rng,
            1200 + 311 * round,
            false,
        );
        // Keep writing until a merge is observably in flight, preferring a
        // partially written (unsealed) output run.
        for _ in 0..4000 {
            let g = engine.backend().gecko().expect("gecko backend");
            if g.unsealed_merge_pages() > 0 {
                crashed_mid_write += 1;
                break;
            }
            if g.merge_jobs_pending() > 0 && rng.next().is_multiple_of(7) {
                break;
            }
            run_workload(&mut engine, &mut oracle, &mut rng, 1, false);
        }
        if engine
            .backend()
            .gecko()
            .expect("gecko backend")
            .merge_jobs_pending()
            > 0
        {
            crashed_mid_merge += 1;
        }
        let (mut recovered, _) = crash_and_recover(engine);
        verify_all(&mut recovered, &oracle);
        // Satellite: recovery's step-5 scan rebuilds per-run Bloom filters
        // (and entry counts) at no extra IO, so recovered runs serve
        // filtered queries immediately.
        let g = recovered.backend().gecko().expect("gecko backend");
        for run in g.all_runs() {
            assert!(run.filter.is_some(), "recovered run must carry a filter");
            assert!(run.entry_count > 0, "recovered entry count must be real");
        }
        // The recovered engine keeps operating (and merging) correctly.
        run_workload(&mut recovered, &mut oracle, &mut rng, 1500, false);
        verify_all(&mut recovered, &oracle);
    }
    assert!(
        crashed_mid_merge >= 2,
        "rounds must actually crash mid-merge (got {crashed_mid_merge})"
    );
    assert!(
        crashed_mid_write >= 1,
        "at least one crash must hit a partially written output run"
    );
}

/// Regression: skipping the flush-time drain is only sound because merge
/// outputs take their identity at *plan* time and recovery judges
/// supersession by span containment. A flush that lands while a merge is
/// in flight creates runs *after* the output's identity was reserved; the
/// naive drain-skip — identity minted when the output starts writing, and
/// recovery killing every candidate whose `created_seq` falls inside an
/// output's [oldest-input, output-creation] window — treats exactly those
/// flush runs as merged away and loses their validity reports. Hunt the
/// window (flush watermark advances while a job stays pending), let the
/// output seal and install, crash, and require recovery to reproduce the
/// installed run set exactly.
#[test]
fn flush_landing_mid_merge_survives_crash() {
    let mut rng = Lcg(0x5EED5);
    let mut windows_hit = 0u32;
    for round in 0..10u64 {
        let mut engine = incremental_engine(1);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        run_workload(
            &mut engine,
            &mut oracle,
            &mut rng,
            1000 + 137 * round,
            false,
        );
        // Hunt: a pending-job streak (never drained to zero) across which
        // the flush watermark advances — every job pending at that flush
        // was planned, and its output's identity reserved, beforehand.
        let mut streak_watermark = None;
        let mut overlapped = false;
        for _ in 0..8000 {
            let g = engine.backend().gecko().expect("gecko backend");
            if g.merge_jobs_pending() == 0 {
                streak_watermark = None;
            } else {
                let w = *streak_watermark.get_or_insert(g.last_flush_seq());
                if g.last_flush_seq() > w {
                    overlapped = true;
                    break;
                }
            }
            run_workload(&mut engine, &mut oracle, &mut rng, 1, false);
        }
        if !overlapped {
            continue;
        }
        // Let the overlapped output(s) seal and install, then stop at a
        // settled moment so the installed set is the whole story.
        for _ in 0..40000 {
            if engine
                .backend()
                .gecko()
                .expect("gecko backend")
                .merge_jobs_pending()
                == 0
            {
                break;
            }
            run_workload(&mut engine, &mut oracle, &mut rng, 1, false);
        }
        let g = engine.backend().gecko().expect("gecko backend");
        if g.merge_jobs_pending() > 0 {
            continue;
        }
        windows_hit += 1;
        let snapshot = |g: &ShardedGecko| {
            let mut v: Vec<_> = g
                .all_runs()
                .map(|r| (r.meta.id, r.meta.level, r.meta.span(), r.pages.clone()))
                .collect();
            v.sort_by_key(|(id, ..)| *id);
            v
        };
        let before = snapshot(g);
        let watermark = g.last_flush_seq();
        let (mut recovered, _) = crash_and_recover(engine);
        let rg = recovered.backend().gecko().expect("gecko backend");
        let after = snapshot(rg);
        // Every installed run must survive — including flushes that landed
        // mid-merge, which the naive scheme would judge superseded.
        for run in &before {
            assert!(
                after.contains(run),
                "round {round}: recovery lost installed run {run:?}"
            );
        }
        // Recovery may additionally materialize level-0 runs when the
        // re-derived buffer overflows, but nothing older than the
        // crash-time flush watermark (that would be resurrected garbage).
        for (id, level, (since, _), _) in &after {
            if !before.iter().any(|(bid, ..)| bid == id) {
                assert_eq!(*level, 0, "round {round}: unexpected deep run {id:?}");
                assert!(
                    *since > watermark,
                    "round {round}: recovery resurrected stale run {id:?}"
                );
            }
        }
        verify_all(&mut recovered, &oracle);
        run_workload(&mut recovered, &mut oracle, &mut rng, 1500, false);
        verify_all(&mut recovered, &oracle);
    }
    assert!(
        windows_hit >= 3,
        "rounds must exercise the flush-lands-mid-merge window \
         (got {windows_hit})"
    );
}

/// Regression: the recovery flush-watermark bug. With incremental merging,
/// a merge output run is written *after* the flush that scheduled it — by
/// then, new erases and invalidations have entered the RAM buffer. If
/// recovery derived "time of last flush" from the output's `created_seq`
/// (as it did when merges were synchronous, where the two moments
/// coincide), its step-4a window would skip those buffered erase markers,
/// stale invalid bits from deeper runs would apply to the blocks' new
/// lives, and GC would erase live data. Crash deliberately at moments where
/// a pump-driven install has completed while the buffer holds fresh
/// reports, and verify every logical page survives.
#[test]
fn crash_after_deferred_install_keeps_buffered_reports() {
    let mut rng = Lcg(0xBADF00D);
    let mut crashes_at_risk = 0u32;
    for round in 0..8u64 {
        let mut engine = incremental_engine(1);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        run_workload(&mut engine, &mut oracle, &mut rng, 900 + 217 * round, false);
        // Hunt for the dangerous window: a merge output has been installed
        // (no job pending, so its preamble is the newest run metadata on
        // flash) *after* some user block was erased post-flush — that
        // erase's marker lives only in the RAM buffer, and only the
        // persisted flush watermark lets recovery re-create it.
        for _ in 0..5000 {
            let g = engine.backend().gecko().expect("gecko backend");
            let flush_seq = g.last_flush_seq();
            let newest_run_seq = g.all_runs().map(|r| r.meta.created_seq).max().unwrap_or(0);
            let erased_since_flush = engine.geometry().iter_blocks().any(|b| {
                let e = engine.device().erase_seq(b);
                e > flush_seq && e < newest_run_seq
            });
            if g.merge_jobs_pending() == 0 && newest_run_seq > flush_seq && erased_since_flush {
                crashes_at_risk += 1;
                break;
            }
            run_workload(&mut engine, &mut oracle, &mut rng, 1, false);
        }
        let (mut recovered, _) = crash_and_recover(engine);
        verify_all(&mut recovered, &oracle);
        run_workload(&mut recovered, &mut oracle, &mut rng, 1200, false);
        verify_all(&mut recovered, &oracle);
    }
    assert!(
        crashes_at_risk >= 4,
        "rounds must hit the deferred-install-with-buffered-reports window \
         (got {crashes_at_risk})"
    );
}

/// Engine-level A/B: a full FTL on the incremental scheduler serves the
/// exact same data as one merging synchronously, under GC pressure, at
/// several step budgets. (Physical layout may differ — merge IO interleaves
/// differently with user writes — but every logical read must agree.)
#[test]
fn engine_equivalence_across_step_budgets() {
    let geo = Geometry::tiny();
    let build = |sync: bool, step: u32| {
        let cfg = FtlConfig {
            cache_entries: 64,
            ..FtlConfig::geckoftl(&geo)
        };
        let gecko = ValidityBackend::gecko_for(
            geo,
            GeckoConfig {
                page_header_bytes: geo.page_bytes - 64,
                sync_merge: sync,
                merge_step_pages: step,
                ..GeckoConfig::paper_default(&geo)
            },
        );
        FtlEngine::format(geo, cfg, gecko)
    };
    for (sync, step) in [(true, 1), (false, 1), (false, 4), (false, 32)] {
        let mut engine = build(sync, step);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        let mut rng = Lcg(0xAB);
        run_workload(&mut engine, &mut oracle, &mut rng, 6000, false);
        assert!(engine.counters.gc_operations > 20, "GC must run");
        let gecko = engine.backend().gecko().expect("gecko backend");
        assert!(gecko.stats().merges > 0, "merges must run");
        if !sync {
            assert!(
                gecko.stats().merge_pages_stepped > 0,
                "incremental merges must flow through the scheduler"
            );
        }
        verify_all(&mut engine, &oracle);
        // Idle ticks drain the backlog without a flush.
        while engine.idle_tick() {}
        assert_eq!(
            engine
                .backend()
                .gecko()
                .expect("gecko backend")
                .merge_backlog_pages(),
            0
        );
        verify_all(&mut engine, &oracle);
    }
}

/// The RAM report must charge queued merge-job state while work is pending
/// (fig14 honesty): a Gecko with a job in flight reports more validity RAM
/// than the same Gecko settled.
#[test]
fn ram_footprint_accounts_for_queued_merge_state() {
    let (mut dev, mut sink, mut gecko) = harness(small_page_cfg(2, true));
    drive(&mut gecko, &mut dev, &mut sink, 77, 2500, 0);
    // Find a moment with a pending job holding buffered entries.
    let mut pending_ram = None;
    for _ in 0..2000 {
        if gecko.merge_jobs_pending() > 0 {
            // Pump partway so the job's read buffer holds entries.
            gecko.pump_merges(&mut dev, &mut sink, 1);
            pending_ram = Some(gecko.ram_bytes());
            break;
        }
        drive(&mut gecko, &mut dev, &mut sink, 78, 1, 0);
    }
    let pending_ram = pending_ram.expect("workload must leave a job pending");
    gecko.drain_merges(&mut dev, &mut sink);
    let settled_ram = gecko.ram_bytes();
    assert!(
        pending_ram > settled_ram,
        "pending merge buffers must be visible in RAM accounting \
         ({pending_ram} ≤ {settled_ram})"
    );
}
