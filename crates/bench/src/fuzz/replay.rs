//! Deterministic scenario execution with an acknowledged-state oracle.
//!
//! Replay drives a [`Scenario`] against a real GeckoFTL engine on the tiny
//! simulation geometry, delivering the scenario's device faults and crash
//! points, and checks the robustness contract after every recovery and at
//! the end of the run:
//!
//! - every LPN, read back, must hold what [`ftl_workloads::Oracle`] allows:
//!   an **acknowledged** write (the `write()` call returned before any
//!   crash) its exact version, an acknowledged trim or a never-written LPN
//!   nothing;
//! - the one operation in flight at a mid-op power cut is *unacknowledged*:
//!   its logical page may read back either the old or the new value, and
//!   the interrupted op is re-issued after recovery (what a storage
//!   stack's request retry does);
//! - after the engine quiesces, the device must pass [`FtlEngine::audit`];
//!   under debug assertions every collection runs the auditor's per-event
//!   checks too, and their panic is a finding like any other.
//!
//! The returned [`Fitness`] carries the worst-case signals the fuzzer
//! maximizes: max write latency, write amplification, recovery cost and
//! retired (permanently lost) blocks. Each has one source on the engine:
//! each write's [`Completion::sim_us`](geckoftl_core::ftl::Completion), the
//! [`IoStats`](flash_sim::IoStats) delta over the run, the `RecoveryReport`
//! that `gecko_recover` returns, and the block manager's retired-block count.

use super::scenario::Scenario;
use crate::fuzz::corpus_dir;
use crate::harness::{small_gecko_engine, OpDriver};
use flash_sim::{FaultPlan, FaultStats, FlashDevice, Geometry, Lpn};
use ftl_workloads::Oracle;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, HostOp, HostOpKind};
use geckoftl_core::gecko::GeckoConfig;
use geckoftl_core::recovery::gecko_recover;
use std::cell::{Cell, RefCell};
use std::sync::Once;

/// Worst-case signals of one replay, used as fuzzing feedback.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fitness {
    /// Slowest single application write, in simulated µs.
    pub max_write_us: f64,
    /// Total write amplification over the run (δ = 10 read weighting).
    pub wa: f64,
    /// Simulated recovery time, in µs (0 when the run never crashed).
    pub recovery_us: f64,
    /// Blocks permanently retired by erase failures.
    pub retired_blocks: usize,
}

/// Result of replaying one scenario.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Whether every oracle check passed.
    pub ok: bool,
    /// First violated invariant, if any.
    pub failure: Option<String>,
    /// Worst-case feedback signals.
    pub fitness: Fitness,
    /// Whether a crash (boundary or mid-op) was exercised.
    pub crashed: bool,
    /// Whether that crash landed with a garbage collection in flight: a
    /// boundary crash with a victim picked and not yet erased, or a mid-op
    /// one in an op that began with a victim in flight.
    pub crashed_in_gc: bool,
    /// Faults the device actually delivered.
    pub faults: FaultStats,
}

impl Outcome {
    fn fail(msg: String, fitness: Fitness, crashed: bool, faults: FaultStats) -> Self {
        Outcome {
            ok: false,
            failure: Some(msg),
            fitness,
            crashed,
            crashed_in_gc: false,
            faults,
        }
    }
}

fn engine_for(sc: &Scenario, shards: u32) -> FtlEngine {
    // Clamp into what the tiny geometry's over-provisioning allows
    // (cache_entries must stay below half the spare pages).
    let cache_entries = sc.cache_entries.clamp(16, 128);
    small_gecko_engine(Geometry::tiny(), cache_entries, shards)
}

/// A check of a crash image, run just before GeckoRec recovers it, given
/// the engine's configuration (a test's reference recovery, say). A panic in
/// it is a finding like any other.
pub type RecoveryCheck = dyn Fn(&FlashDevice, FtlConfig, GeckoConfig) + std::panic::RefUnwindSafe;

fn recover_engine(
    mut dev: FlashDevice,
    cfg: FtlConfig,
    gecko_cfg: GeckoConfig,
    check: &RecoveryCheck,
) -> (FtlEngine, f64) {
    // Recovery and post-crash execution run fault-free: the plan's faults
    // target the pre-crash history only (crash images already carry an
    // empty plan; boundary crashes clear it here).
    dev.set_fault_plan(FaultPlan::default());
    check(&dev, cfg, gecko_cfg);
    let (engine, report) = gecko_recover(dev, cfg, gecko_cfg);
    (engine, report.total_secs() * 1e6)
}

thread_local! {
    /// Set while this thread replays: its panics become findings, so the
    /// panic hook stays quiet instead of printing them.
    static REPLAYING: Cell<bool> = const { Cell::new(false) };
    /// This thread's last silenced panic: message and location.
    static PANIC_MSG: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Install, once per process, a panic hook that silences panics on threads
/// inside [`replay`] and defers to the previous hook elsewhere.
/// A per-thread flag, not a hook swapped per replay: replays on parallel
/// test threads would otherwise race to restore each other's hooks.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if REPLAYING.get() {
                let msg = info.payload_as_str().unwrap_or("non-string payload");
                let at = info.location().map(|l| l.to_string()).unwrap_or_default();
                PANIC_MSG.set(format!("{msg} (at {at})"));
            } else {
                previous(info);
            }
        }));
    });
}

/// Replay one scenario end-to-end against a validity store of `shards`
/// trees. Deterministic: same scenario, same outcome, bit for bit. The
/// oracle contract is shard-count-independent, so the corpus doubles as a
/// crash-equivalence suite for sharding.
///
/// A panic anywhere in the engine, recovery or the oracle is a finding like
/// any other failure: it comes back as a failed [`Outcome`] whose message
/// starts with `panic:`, so the campaign minimizes the scenario and writes
/// it to the corpus instead of dying. Such an outcome carries no fitness,
/// crash flag or fault counts.
pub fn replay(sc: &Scenario, shards: u32) -> Outcome {
    replay_checked(sc, shards, &|_, _, _| {})
}

/// [`replay`], running `check` on every crash image before it is recovered.
fn replay_checked(sc: &Scenario, shards: u32, check: &RecoveryCheck) -> Outcome {
    install_quiet_hook();
    REPLAYING.set(true);
    let result = std::panic::catch_unwind(|| replay_unguarded(sc, shards, check));
    REPLAYING.set(false);
    result.unwrap_or_else(|_| {
        Outcome::fail(
            format!("panic: {}", PANIC_MSG.take()),
            Fitness::default(),
            false,
            FaultStats::default(),
        )
    })
}

fn replay_unguarded(sc: &Scenario, shards: u32, check: &RecoveryCheck) -> Outcome {
    let mut engine = engine_for(sc, shards);
    let logical = engine.geometry().logical_pages() as u32;
    let cfg = engine.config();
    let gecko_cfg = engine.backend().gecko_config().expect("gecko backend");
    engine.with_raw_parts(|dev, _| dev.set_fault_plan(sc.fault_plan()));
    let start_stats = engine.device().stats().clone();

    let mut oracle = Oracle::new(u64::from(logical));
    let mut driver = OpDriver::new(0);
    let mut fitness = Fitness::default();
    let mut crashed = false;
    let mut crashed_in_gc = false;
    let mut faults = FaultStats::default();

    for (i, op) in sc.trace.iter().enumerate() {
        // Scheduled power cut at this op boundary.
        if !crashed && sc.crash_after == Some(i) {
            crashed = true;
            crashed_in_gc = engine.gc_victim().is_some();
            faults = engine.device().fault_stats();
            let dev = engine.crash();
            let (rec, rec_us) = recover_engine(dev, cfg, gecko_cfg, check);
            engine = rec;
            fitness.recovery_us = rec_us;
            if let Err(e) = oracle.verify(|l| engine.read(l)) {
                return Outcome::fail(
                    format!("boundary crash before op {i}: {e}"),
                    fitness,
                    crashed,
                    faults,
                );
            }
        }
        // Execute the op on the live engine; mutated LPNs wrap into the
        // logical space.
        let in_gc = engine.gc_victim().is_some();
        let issued = driver
            .apply(&mut engine, op.map_lpn(|l| Lpn(l.0 % logical)), None)
            .expect("wrapped LPNs are in range");
        // The write or trim a crash during this op leaves unacknowledged,
        // and the value it leaves its LPN.
        let mut this_op: Option<(HostOp, Option<u64>)> = None;
        if let Some((host, done)) = issued {
            if host.kind == HostOpKind::Read {
                let want = oracle.expected(host.lpn);
                if done.version != want {
                    return Outcome::fail(
                        format!(
                            "op {i}: read L{} got {:?}, want {want:?}",
                            host.lpn.0, done.version
                        ),
                        fitness,
                        crashed,
                        engine.device().fault_stats(),
                    );
                }
            } else {
                let new = match host.kind {
                    HostOpKind::Write { version } => {
                        fitness.max_write_us = fitness.max_write_us.max(done.sim_us);
                        Some(version)
                    }
                    _ => None,
                };
                oracle.in_flight(host.lpn, new);
                this_op = Some((host, new));
            }
        }
        // A torn-write or mid-erase fault fired during this op: the live
        // engine's history past the fault never happened. Abandon it and
        // recover from the crash image. This op is unacknowledged.
        let image = engine.with_raw_parts(|dev, _| dev.take_crash_image());
        if let Some(image) = image {
            crashed = true;
            crashed_in_gc |= in_gc;
            faults = engine.device().fault_stats();
            drop(engine);
            let (rec, rec_us) = recover_engine(image, cfg, gecko_cfg, check);
            engine = rec;
            fitness.recovery_us = fitness.recovery_us.max(rec_us);
            if let Err(e) = oracle.verify(|l| engine.read(l)) {
                return Outcome::fail(
                    format!("crash image at op {i}: {e}"),
                    fitness,
                    crashed,
                    faults,
                );
            }
            // Re-issue the interrupted op, as a retrying host would. The
            // retry is not a measured host op (it never was), so its
            // latency stays out of the fitness.
            if let Some((host, _)) = this_op {
                engine.submit(host).expect("the op was in range before");
            }
        }
        // Acknowledged (or re-issued) now.
        match this_op {
            Some((host, Some(version))) => oracle.ack_write(host.lpn, version),
            Some((host, None)) => oracle.ack_trim(host.lpn),
            None => {}
        }
    }

    // Quiesce, then run the byte-level state audit and the final read-back.
    engine.shutdown_clean();
    if !crashed {
        faults = engine.device().fault_stats();
    }
    fitness.wa = engine
        .device()
        .stats()
        .since(&start_stats)
        .wa_breakdown(10.0)
        .total();
    fitness.retired_blocks = engine.block_manager().retired_blocks();
    if let Err(e) = oracle.verify(|l| engine.read(l)) {
        return Outcome::fail(format!("final read-back: {e}"), fitness, crashed, faults);
    }
    if let Err(v) = engine.audit() {
        return Outcome::fail(v.to_string(), fitness, crashed, faults);
    }
    Outcome {
        ok: true,
        failure: None,
        fitness,
        crashed,
        crashed_in_gc,
        faults,
    }
}

/// The op boundaries of `sc`'s trace with a garbage collection in flight:
/// the `crash_after` values that cut the power inside one. Found by replaying
/// the trace at one tree with neither faults nor a power cut.
pub fn boundaries_in_gc(sc: &Scenario) -> Vec<usize> {
    let mut engine = engine_for(sc, 1);
    let logical = engine.geometry().logical_pages() as u32;
    let mut driver = OpDriver::new(0);
    let mut found = Vec::new();
    for (i, op) in sc.trace.iter().enumerate() {
        if engine.gc_victim().is_some() {
            found.push(i);
        }
        driver
            .apply(&mut engine, op.map_lpn(|l| Lpn(l.0 % logical)), None)
            .expect("wrapped LPNs are in range");
    }
    found
}

/// Replay every committed corpus scenario against a validity store of
/// `shards` trees, running `check` on every crash image before it is
/// recovered; returns `(file name, outcome)` pairs. Used by the corpus
/// regression test and the `fuzz` experiment.
pub fn replay_corpus(shards: u32, check: &RecoveryCheck) -> Vec<(String, Outcome)> {
    let dir = corpus_dir();
    let mut entries: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
            .collect(),
        Err(_) => Vec::new(),
    };
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read corpus entry {path:?}: {e}"));
            let sc = Scenario::from_text(&text)
                .unwrap_or_else(|e| panic!("parse corpus entry {path:?}: {e}"));
            (name, replay_checked(&sc, shards, check))
        })
        .collect()
}
