//! Telemetry neutrality and span well-formedness properties.
//!
//! The telemetry layer's contract is *observation only*: enabling it must
//! not change a single simulated microsecond, IO count, or byte of FTL
//! state. The first property drives the same mixed workload — writes,
//! reads, idle ticks, a power cut with recovery, and injected torn-write
//! crash faults — against two engines that differ only in whether
//! telemetry records, and requires the full device state (page payloads,
//! spare areas, write pointers, erase counts/sequence numbers, bad-block
//! marks), the IO statistics, the Gecko statistics, the engine counters
//! and the simulated clock to come out identical.
//!
//! The second property checks that the recorded spans themselves are
//! well-formed: every span closes with a non-negative duration inside the
//! simulated time range, and within each lane (span kind) spans never
//! overlap — lane `k`'s next span starts at or after the previous one
//! ended. IO events never overlap at all, whatever channel they landed on:
//! simulated time is single-lane.
//!
//! Last, the `Recovery` spans of a GeckoRec run are the steps of the
//! `RecoveryReport` it returns, number for number and microsecond for
//! microsecond.

use gecko_bench::harness::small_gecko_engine;
use geckoftl::flash_sim::{
    BlockId, FaultPlan, FlashDevice, Geometry, Lpn, SpanKind, TraceEvent, WriteFault,
};
use geckoftl::geckoftl_core::ftl::FtlEngine;
use geckoftl::geckoftl_core::recovery::gecko_recover;
use proptest::prelude::*;
use std::fmt::Write as _;

/// One workload step, generated by proptest.
#[derive(Clone, Copy, Debug)]
enum Op {
    Write(u32, u64),
    Read(u32),
    Idle(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..716, any::<u64>()).prop_map(|(l, v)| Op::Write(l, v)),
        2 => (0u32..716).prop_map(Op::Read),
        1 => (0u8..4).prop_map(Op::Idle),
    ]
}

/// Byte-level digest of everything the simulated device persists: per-block
/// write pointer, erase count/sequence, bad-block mark, and every written
/// page's payload and spare area.
fn device_digest(dev: &FlashDevice) -> String {
    let geo = dev.geometry();
    let mut out = String::new();
    for b in 0..geo.blocks {
        let blk = BlockId(b);
        writeln!(
            out,
            "B{b}: wp={} ec={} eseq={} bad={}",
            dev.written_pages(blk),
            dev.erase_count(blk),
            dev.erase_seq(blk),
            dev.is_bad(blk)
        )
        .unwrap();
        for (ppn, data) in dev.peek_block_pages(blk) {
            writeln!(out, "  {:?} {:?} {:?}", ppn, data, dev.peek_spare(ppn)).unwrap();
        }
    }
    out
}

/// Everything the neutrality property compares between the two runs.
#[derive(Debug, PartialEq)]
struct RunObservation {
    clock_us: f64,
    flash_state: String,
    io_stats: String,
    gecko_stats: String,
    engine_counters: String,
    fault_stats: String,
}

fn observe(engine: &FtlEngine) -> RunObservation {
    RunObservation {
        clock_us: engine.device().clock().now_us(),
        flash_state: device_digest(engine.device()),
        io_stats: format!("{:?}", engine.device().stats()),
        gecko_stats: format!("{:?}", engine.backend().gecko_stats()),
        engine_counters: format!("{:?}", engine.counters),
        fault_stats: format!("{:?}", engine.device().fault_stats()),
    }
}

/// Drive `ops` with a boundary power cut before op `crash_at` and torn-write
/// faults from `plan`, recovering mid-run from crash images exactly as the
/// fuzz harness does. `ring` enables telemetry with that capacity; `None`
/// leaves it disabled. Returns the final engine for observation.
fn run(
    ops: &[Op],
    cache: usize,
    crash_at: usize,
    plan: FaultPlan,
    ring: Option<usize>,
) -> FtlEngine {
    let mut engine = small_gecko_engine(Geometry::tiny(), cache, 1);
    if let Some(cap) = ring {
        engine.telemetry_mut().enable(cap);
    }
    let logical = engine.geometry().logical_pages() as u32;
    let cfg = engine.config();
    let gecko_cfg = engine.backend().gecko().unwrap().config();
    engine.with_raw_parts(|dev, _| dev.set_fault_plan(plan));
    let mut version = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        if i == crash_at {
            let mut dev = engine.crash();
            dev.set_fault_plan(FaultPlan::default());
            let (rec, _) = gecko_recover(dev, cfg, gecko_cfg);
            engine = rec;
        }
        let mut this_write = None;
        match op {
            Op::Write(l, v) => {
                let lpn = Lpn(l % logical);
                version += 1;
                engine.write(lpn, version.wrapping_add(v));
                this_write = Some((lpn, version.wrapping_add(v)));
            }
            Op::Read(l) => {
                let _ = engine.read(Lpn(l % logical));
            }
            Op::Idle(ticks) => {
                for _ in 0..ticks {
                    engine.idle_tick();
                }
            }
        }
        // A torn write fired during this op: abandon the live engine and
        // recover from the crash image, then re-issue the lost write.
        let image = engine.with_raw_parts(|dev, _| dev.take_crash_image());
        if let Some(image) = image {
            drop(engine);
            let (rec, _) = gecko_recover(image, cfg, gecko_cfg);
            engine = rec;
            if let Some((lpn, v)) = this_write {
                engine.write(lpn, v);
            }
        }
    }
    engine.shutdown_clean();
    engine
}

/// The `Recovery` spans a GeckoRec run leaves in the ring are its report:
/// one span per step, numbered 1..=N in execution order, each as long as
/// the step's `sim_us`, so they sum to `RecoveryReport::total_secs`. (The
/// ring stores durations as `f32`; simulated µs here are whole numbers far
/// below 2²⁴, so nothing is rounded.) Two power cuts per engine: the second
/// run's spans follow the first's in the same ring.
#[test]
fn recovery_spans_sum_to_the_report() {
    for shards in [1, 4] {
        let mut engine = small_gecko_engine(Geometry::tiny(), 48, shards);
        engine.telemetry_mut().enable(1 << 16);
        let logical = engine.geometry().logical_pages();
        let cfg = engine.config();
        let gecko_cfg = engine.backend().gecko_config().expect("gecko backend");
        let mut spans_before = 0;
        for round in 0..2u64 {
            for i in 0..2 * logical {
                engine.write(Lpn((i * 7 % logical) as u32), round * 10_000 + i);
            }
            let (rec, report) = gecko_recover(engine.crash(), cfg, gecko_cfg);
            engine = rec;
            let spans: Vec<(u32, f64)> = engine
                .telemetry()
                .events()
                .filter_map(|ev| match *ev {
                    TraceEvent::Span {
                        kind: SpanKind::Recovery,
                        arg,
                        dur_us,
                        ..
                    } => Some((arg, dur_us as f64)),
                    _ => None,
                })
                .skip(spans_before)
                .collect();
            assert_eq!(engine.telemetry().dropped_events(), 0);
            let steps: Vec<(u32, f64)> = (1..)
                .zip(report.steps.iter().map(|(_, c)| c.sim_us))
                .collect();
            assert_eq!(spans, steps, "shards {shards}, round {round}");
            let sum_us: f64 = spans.iter().map(|&(_, us)| us).sum();
            assert!(sum_us > 0.0, "recovery must cost IO");
            assert_eq!(
                (sum_us / 1e6).to_bits(),
                report.total_secs().to_bits(),
                "shards {shards}, round {round}"
            );
            spans_before += spans.len();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Telemetry on (even with a deliberately tiny ring, so overflow and
    /// drop-oldest churn happen) versus telemetry off: byte-identical flash
    /// state and identical statistics, counters and simulated clock.
    #[test]
    fn telemetry_is_observation_only(
        ops in prop::collection::vec(op_strategy(), 100..600),
        crash_at_frac in 0.0f64..1.0,
        torn_at in 0u64..1200,
        cache in 24usize..96,
    ) {
        let crash_at = ((ops.len() as f64) * crash_at_frac) as usize;
        let plan = FaultPlan::new().on_write(torn_at, WriteFault::TornSpare);
        let with = run(&ops, cache, crash_at, plan.clone(), Some(64));
        let without = run(&ops, cache, crash_at, plan, None);
        prop_assert!(with.telemetry().is_enabled());
        prop_assert!(!without.telemetry().is_enabled());
        prop_assert!(with.telemetry().total_events() > 0);
        prop_assert_eq!(without.telemetry().total_events(), 0);
        prop_assert_eq!(observe(&with), observe(&without));
    }

    /// Every recorded span lies within simulated time and lanes never
    /// overlap: spans of one kind, in record order, are back-to-back or
    /// separated — the next starts no earlier than the previous ended.
    /// IO events are one lane globally, not one per channel.
    #[test]
    fn span_lanes_are_well_formed(
        ops in prop::collection::vec(op_strategy(), 100..600),
        crash_at_frac in 0.0f64..1.0,
        cache in 24usize..96,
    ) {
        let crash_at = ((ops.len() as f64) * crash_at_frac) as usize;
        // Generous ring: every event of the run survives for inspection.
        let engine = run(&ops, cache, crash_at, FaultPlan::default(), Some(1 << 18));
        let t = engine.telemetry();
        prop_assert_eq!(t.dropped_events(), 0, "ring sized for the whole run");
        let now = engine.device().clock().now_us();
        let mut lane_end = [f64::NEG_INFINITY; SpanKind::COUNT];
        let mut io_end = f64::NEG_INFINITY;
        let mut spans = 0u64;
        for ev in t.events() {
            if let TraceEvent::Io { channel, start_us, dur_us, .. } = *ev {
                prop_assert!(start_us >= io_end,
                    "IO on channel {channel} at {start_us} overlaps the previous IO ending {io_end}");
                io_end = start_us + dur_us as f64;
            }
            if let TraceEvent::Span { kind, start_us, dur_us, .. } = *ev {
                spans += 1;
                let end = start_us + dur_us as f64;
                prop_assert!(dur_us >= 0.0, "{kind:?}: negative duration {dur_us}");
                prop_assert!(start_us >= 0.0 && end <= now,
                    "{kind:?}: [{start_us}, {end}] outside simulated time [0, {now}]");
                prop_assert!(start_us >= lane_end[kind.index()],
                    "{kind:?}: span at {start_us} overlaps previous ending {}",
                    lane_end[kind.index()]);
                lane_end[kind.index()] = end;
            }
        }
        prop_assert!(spans > 0, "workload must have produced spans");
    }
}
