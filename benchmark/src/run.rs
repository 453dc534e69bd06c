//! The untraced run (`--trace 0`): every end-to-end metric.
//!
//! Two windows on two freshly set-up engines, one per clock:
//!
//! * the **host window** runs the workload's stream for `--seconds` of timed
//!   wall time with nothing recorded per op but the shadow oracle; it gives
//!   `host_ops_per_s` (on the calibrated host clock of `calibrate.rs`) and
//!   `host_peak_rss_mb`;
//! * the **sim window** runs a fixed number of ops of the same stream and
//!   records the simulated-clock delta of each; everything on the simulated
//!   clock comes from it and repeats bit-for-bit for a seed, however fast
//!   the host is. At evenly spaced crash points it copies the flash image
//!   and runs GeckoRec on the copy; at every fourth it also checks every
//!   logical page of the recovered image.
//!
//! Both are closed loops: one client, one thread, next op after the last.

use crate::adapter::{self, Engine, Op, OpStream, RecoveryCost, Snapshot};
use crate::calibrate::{HostClock, Timed};
use crate::metrics::Report;
use crate::oracle::Oracle;
use crate::stats;
use crate::workloads::{Workload, SEGMENT_OPS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Host ops issued so far in this process, published once per segment so
/// that a panic can still report how far the run got.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);

/// Untimed set-ups beyond the two the windows need; `setup_s` is the median
/// of all of them.
const EXTRA_SETUPS: usize = 3;

/// Crash points of a sim window, evenly spaced, the last at its end.
/// Recovery time is a sawtooth over the crash instant (time since the last
/// Gecko flush, distance to the last checkpoint): one sample of it spread
/// 12–72 % over seeds, the mean of 32 still 2–14 %.
const CRASH_POINTS: usize = 128;
/// Every this many crash points (and at the last), every logical page of the
/// recovered image is read back; the others only price the recovery.
const VERIFY_EVERY: usize = 4;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// 1/50 of every op count and of the host window, for plumbing checks:
    /// the numbers of a smoke run mean nothing.
    pub smoke: bool,
}

impl Options {
    fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            full / 50
        } else {
            full
        }
    }

    pub fn window_ops(&self, w: &Workload) -> usize {
        self.scaled(w.window_ops).max(self.segment_ops())
    }

    pub fn segment_ops(&self) -> usize {
        if self.smoke {
            SEGMENT_OPS / 10
        } else {
            SEGMENT_OPS
        }
    }

    fn host_seconds(&self) -> f64 {
        if self.smoke {
            self.seconds / 50.0
        } else {
            self.seconds
        }
    }

    /// Warm-up ops of a set-up: one device overwrite.
    fn warmup_ops(&self) -> usize {
        self.scaled(adapter::logical_pages() as usize)
    }

    fn crash_points(&self) -> usize {
        if self.smoke {
            CRASH_POINTS / 16
        } else {
            CRASH_POINTS
        }
    }
}

/// Kinds of host op, as indices into per-kind arrays.
pub const WRITE: usize = 0;
pub const READ: usize = 1;
pub const TRIM: usize = 2;
pub const IDLE: usize = 3;

pub fn kind_of(op: Op) -> usize {
    match op {
        Op::Write(_) => WRITE,
        Op::Read(_) => READ,
        Op::Trim(_) => TRIM,
        Op::Idle(_) => IDLE,
    }
}

/// An engine with its op stream and shadow oracle: the closed-loop client.
pub struct Client {
    pub engine: Engine,
    oracle: Oracle,
    stream: OpStream,
    version: u64,
    /// Host ops issued (writes + reads + trims; idle ticks are not ops),
    /// plus pages checked after a crash.
    pub attempted: u64,
    /// Reads and post-crash page checks that disagreed with the oracle.
    pub failed: u64,
    /// `attempted` as last published to [`ATTEMPTED`].
    published: u64,
}

impl Client {
    #[inline]
    pub fn apply(&mut self, op: Op) {
        match op {
            Op::Write(lpn) => {
                self.version += 1;
                self.engine.write(lpn, self.version);
                self.oracle.write(lpn, self.version);
            }
            Op::Read(lpn) => {
                let got = self.engine.read(lpn);
                if !self.oracle.agrees(lpn, got) {
                    self.failed += 1;
                }
            }
            Op::Trim(lpn) => {
                self.engine.trim(lpn);
                self.oracle.trim(lpn);
            }
            Op::Idle(ticks) => {
                self.engine.idle(ticks);
                return;
            }
        }
        self.attempted += 1;
    }

    /// Refill `chunk` with the next `n` ops of the stream (untimed by the
    /// callers, so generator cost stays out of the host metrics).
    pub fn next_chunk(&mut self, chunk: &mut Vec<Op>, n: usize) {
        chunk.clear();
        chunk.extend(self.stream.by_ref().take(n));
        ATTEMPTED.fetch_add(self.attempted - self.published, Ordering::Relaxed);
        self.published = self.attempted;
    }

    /// Power failure now: run GeckoRec on a copy of the flash image and,
    /// with `verify`, read every logical page back against the oracle (a
    /// lost write or a resurrected trim fails). The live engine carries on
    /// untouched. Returns GeckoRec's cost report and the host ms it ran for.
    pub fn crash_check(&mut self, verify: bool) -> (RecoveryCost, f64) {
        let image = self.engine.crash_image();
        let t = Instant::now();
        let (mut recovered, cost) = image.recover();
        let host_ms = t.elapsed().as_secs_f64() * 1e3;
        if verify {
            self.failed += self.oracle.verify_all(|lpn| recovered.read(lpn));
            self.attempted += self.oracle.pages();
        }
        (cost, host_ms)
    }
}

/// Set-up: build the stream, format, fill sequentially, warm up with one
/// device overwrite (as many ops as there are logical pages) of the
/// workload's own stream. Returns the client and the host time it took.
pub fn setup(w: &Workload, opts: &Options, clock: &mut HostClock) -> (Client, Timed) {
    clock.time(|| {
        let logical = adapter::logical_pages();
        let mut client = Client {
            engine: Engine::format(&w.spec),
            oracle: Oracle::new(logical),
            stream: w.stream(opts.seed),
            version: 0,
            attempted: 0,
            failed: 0,
            published: 0,
        };
        for lpn in 0..logical {
            client.apply(Op::Write(lpn));
        }
        for _ in 0..opts.warmup_ops() {
            let op = client.stream.next().expect("streams are endless");
            client.apply(op);
        }
        client
    })
}

pub struct HostWindow {
    /// Host ops per nominal second of each timed segment.
    pub segment_rates: Vec<f64>,
    pub host_ops: u64,
    pub time: Timed,
    pub peak_rss_mb: f64,
}

/// Run segments until `seconds` of timed wall time have passed.
pub fn host_window(client: &mut Client, opts: &Options, clock: &mut HostClock) -> HostWindow {
    let mut chunk = Vec::with_capacity(opts.segment_ops());
    let (mut rates, mut time) = (Vec::new(), Timed::default());
    let first = client.attempted;
    while time.raw_s < opts.host_seconds() {
        client.next_chunk(&mut chunk, opts.segment_ops());
        let before = client.attempted;
        let ((), t) = clock.time(|| {
            for &op in &chunk {
                client.apply(op);
            }
        });
        time += t;
        rates.push((client.attempted - before) as f64 / t.nominal_s);
    }
    HostWindow {
        segment_rates: rates,
        host_ops: client.attempted - first,
        time,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// `VmHWM` of this process, in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the sim window recorded.
pub struct SimWindow {
    /// Counter deltas over the window.
    pub delta: Snapshot,
    /// Simulated service time of every op, in issue order, with its kind.
    pub service_us: Vec<f64>,
    pub kinds: Vec<u8>,
    pub host_ops: u64,
    /// Host time of the timed sections (recording included).
    pub time: Timed,
    /// Host ops per nominal second of each section between crash points.
    pub section_rates: Vec<f64>,
    /// GeckoRec's cost at each crash point, and the host ms each run took.
    pub recoveries: Vec<RecoveryCost>,
    pub recovery_host_ms: Vec<f64>,
}

impl SimWindow {
    /// Ascending service times of one kind of op.
    pub fn sorted_of(&self, kind: usize) -> Vec<f64> {
        stats::sorted(
            self.service_us
                .iter()
                .zip(&self.kinds)
                .filter(|(_, k)| **k as usize == kind)
                .map(|(s, _)| *s)
                .collect(),
        )
    }

    /// Service times of the ops that are arrivals in an open loop (idle
    /// gaps are not).
    pub fn arrivals(&self) -> Vec<f64> {
        self.service_us
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k as usize != IDLE)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Mean over the crash points of some cost of GeckoRec.
    pub fn recovery_mean(&self, cost: impl Fn(&RecoveryCost) -> f64) -> f64 {
        stats::mean(&self.recoveries.iter().map(cost).collect::<Vec<_>>())
    }
}

/// Run exactly `window_ops` stream items, recording each op's simulated
/// service time, with a crash check after every 1/`CRASH_POINTS` of them.
pub fn sim_window(
    client: &mut Client,
    w: &Workload,
    opts: &Options,
    clock: &mut HostClock,
) -> SimWindow {
    let total = opts.window_ops(w);
    let points = opts.crash_points();
    let mut chunk = Vec::new();
    let mut service_us = Vec::with_capacity(total);
    let mut kinds = Vec::with_capacity(total);
    let first = client.attempted;
    let start = client.engine.snapshot();
    let (mut time, mut section_rates) = (Timed::default(), Vec::new());
    let (mut recoveries, mut recovery_host_ms) = (Vec::new(), Vec::new());
    let mut crash_checks = 0;
    for point in 1..=points {
        client.next_chunk(&mut chunk, point * total / points - service_us.len());
        let before = client.attempted;
        let ((), t) = clock.time(|| {
            for &op in &chunk {
                let t0 = client.engine.sim_us();
                client.apply(op);
                service_us.push(client.engine.sim_us() - t0);
                kinds.push(kind_of(op) as u8);
            }
        });
        time += t;
        section_rates.push((client.attempted - before) as f64 / t.nominal_s);
        let before = client.attempted;
        let (cost, host_ms) = client.crash_check(point % VERIFY_EVERY == 0 || point == points);
        recoveries.push(cost);
        recovery_host_ms.push(host_ms);
        crash_checks += client.attempted - before;
    }
    SimWindow {
        delta: client.engine.snapshot().since(&start),
        service_us,
        kinds,
        host_ops: client.attempted - first - crash_checks,
        time,
        section_rates,
        recoveries,
        recovery_host_ms,
    }
}

/// Mean of the slowest `share` of an ascending sample. The window is sized
/// so that the share holds at least ten samples; under `--smoke` it is 50×
/// shorter and the slowest sample stands in (smoke checks plumbing, not
/// numbers).
fn slowest_mean(sorted: &[f64], share: f64, what: &str, smoke: bool) -> f64 {
    stats::slowest_mean(sorted, share).unwrap_or_else(|| {
        assert!(
            smoke && !sorted.is_empty(),
            "{what}: the slowest {share} of {} samples are fewer than {}",
            sorted.len(),
            stats::MIN_BEYOND
        );
        sorted[sorted.len() - 1]
    })
}

pub struct Outcome {
    pub report: Report,
    /// Printed beside the metrics, not part of the result object.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

/// The `--trace 0` run.
pub fn run(w: &Workload, opts: &Options) -> Outcome {
    let mut report = Report::end_to_end();
    let mut clock = HostClock::new();
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut retire = |client: Client| {
        attempted += client.attempted;
        failed += client.failed;
    };

    // Host window first, so the process's peak RSS is one engine, the
    // oracle and nothing the sim window records.
    let (mut client, t) = setup(w, opts, &mut clock);
    setups.push(t);
    let host = host_window(&mut client, opts, &mut clock);
    client.crash_check(true);
    retire(client);

    let (mut client, t) = setup(w, opts, &mut clock);
    setups.push(t);
    let sim = sim_window(&mut client, w, opts, &mut clock);
    let ram = client.engine.ram();
    retire(client);

    for _ in 0..EXTRA_SETUPS {
        let (client, t) = setup(w, opts, &mut clock);
        setups.push(t);
        retire(client);
    }

    let median = |values: Vec<f64>| stats::median_sorted(&stats::sorted(values));
    report.set(
        "setup_s",
        median(setups.iter().map(|t| t.nominal_s).collect()),
    );
    report.set("host_ops_per_s", median(host.segment_rates.clone()));
    report.set("host_peak_rss_mb", host.peak_rss_mb);
    sim_metrics(&mut report, &sim, w, opts.smoke);
    report.set("ram_bytes", ram.total as f64);

    let notes = vec![
        (
            "setup_s_raw",
            median(setups.iter().map(|t| t.raw_s).collect()),
            "s",
        ),
        (
            "host_ops_per_s_raw",
            host.host_ops as f64 / host.time.raw_s,
            "ops/s",
        ),
        (
            "kernel_ops_per_s",
            median(clock.speeds.clone()) * crate::calibrate::NOMINAL_KERNEL_OPS_PER_S,
            "ops/s",
        ),
        ("host_window_s", host.time.raw_s, "s"),
        (
            "host_window_segments",
            host.segment_rates.len() as f64,
            "count",
        ),
    ];
    Outcome {
        report,
        notes,
        attempted,
        failed,
    }
}

/// The simulated-clock end-to-end metrics of a sim window.
pub fn sim_metrics(report: &mut Report, sim: &SimWindow, w: &Workload, smoke: bool) {
    report.set("sim_iops", sim.host_ops as f64 / (sim.delta.sim_us / 1e6));
    report.set(
        "sim_max_rate_ops_s",
        stats::max_rate_ops_s(&sim.arrivals(), w.limit_us),
    );
    let writes = sim.sorted_of(WRITE);
    report.set("sim_write_mean_us", stats::mean(&writes));
    report.set(
        "sim_write_slowest_1pct_us",
        slowest_mean(&writes, 0.01, "writes", smoke),
    );
    report.set(
        "sim_write_slowest_0.1pct_us",
        slowest_mean(&writes, 0.001, "writes", smoke),
    );
    let reads = sim.sorted_of(READ);
    report.set("sim_read_mean_us", stats::mean(&reads));
    report.set(
        "sim_read_slowest_1pct_us",
        slowest_mean(&reads, 0.01, "reads", smoke),
    );
    report.set("write_amp", sim.delta.wa().total());
    report.set("recovery_sim_ms", sim.recovery_mean(|c| c.total_ms));
}
