//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! Three passes over the workload's fixed window, each on a freshly set-up
//! engine with the same seed:
//!
//! 1. **plain** — exactly the sim window of the untraced run;
//! 2. **traced** — the benchmark's recorder on: one span per host op (index,
//!    kind, LPN, host start/duration, sim start/duration) whose children are
//!    synthesised per layer from the deltas of the engine's public counters
//!    across the call;
//! 3. **telemetry** — the plain pass again with the engine's own telemetry
//!    ring enabled.
//!
//! All three must agree bit-for-bit on every simulated number (tracing and
//! telemetry observe, they do not steer); the host-time differences are the
//! two overheads (on the calibrated host clock). The layer drives then time
//! each layer's public functions on standalone instances. Spans live in
//! memory; at exit the per-layer
//! totals and the 32 slowest ops per kind (by sim time and by host time) go
//! to `results/<workload>.spans.json`.

use crate::adapter::{self, Io, Layer, Op, Snapshot};
use crate::calibrate::{HostClock, Timed};
use crate::metrics::Report;
use crate::run::{self, Client, Options, Outcome, IDLE, READ, TRIM, WRITE};
use crate::stats;
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

const KIND_NAMES: [&str; 4] = ["write", "read", "trim", "idle"];
/// Spans kept in full per kind and per clock.
const TOP_SPANS: usize = 32;
/// Every this many ops the recorder samples engine state (dirty fraction,
/// free pool, merge backlog) ...
const SAMPLE_EVERY: usize = 1024;
/// ... and every this many it times `pick_victims` on the live state.
const PICK_EVERY: usize = 8192;
/// Ops of the workload's stream fed to the layer drives.
const DRIVE_OPS: usize = 500_000;

/// One host op as the recorder saw it.
#[derive(Clone)]
struct OpSpan {
    index: u64,
    kind: usize,
    lpn: u32,
    cache_hit: Option<bool>,
    host_start_ns: u64,
    host_ns: u64,
    sim_start_us: f64,
    /// Counter deltas across the call; `delta.sim_us` is the op's service
    /// time, the per-layer children are read off `delta.io`.
    delta: Snapshot,
}

/// The `TOP_SPANS` largest spans by some key.
struct TopSpans {
    spans: Vec<(f64, OpSpan)>,
    /// The smallest key kept once full; nothing at or below it gets in.
    floor: f64,
}

impl TopSpans {
    fn new() -> Self {
        TopSpans {
            spans: Vec::with_capacity(TOP_SPANS),
            floor: f64::NEG_INFINITY,
        }
    }

    fn offer(&mut self, key: f64, span: &OpSpan) {
        if key <= self.floor {
            return;
        }
        if self.spans.len() < TOP_SPANS {
            self.spans.push((key, span.clone()));
        } else {
            let slot = self
                .spans
                .iter()
                .position(|(k, _)| *k == self.floor)
                .expect("the floor is one of the keys");
            self.spans[slot] = (key, span.clone());
        }
        if self.spans.len() == TOP_SPANS {
            self.floor = self
                .spans
                .iter()
                .map(|(k, _)| *k)
                .fold(f64::INFINITY, f64::min);
        }
    }

    /// The spans, largest key first.
    fn sorted(&self) -> Vec<&OpSpan> {
        let mut spans: Vec<&(f64, OpSpan)> = self.spans.iter().collect();
        spans.sort_by(|a, b| b.0.total_cmp(&a.0));
        spans.into_iter().map(|(_, s)| s).collect()
    }
}

struct Recorder {
    /// Host ns of every op, per kind.
    host_ns: [Vec<f64>; 4],
    /// Sim service time of every op, in issue order.
    service_us: Vec<f64>,
    /// `ValidityUpdate` + `ValidityMerge` busy time charged to each write.
    stall_us: Vec<f64>,
    stall_purposes: [usize; 2],
    idle_ticks: u64,
    cache_probes: u64,
    cache_hits: u64,
    host_total_ns: f64,
    /// Host time in ops that triggered no sync, GC, flush or merge.
    host_plain_ns: f64,
    /// Host time in ops that ran at least one GC collect.
    host_gc_ns: f64,
    /// Host time and count of ops that synced but did not collect.
    host_sync_ns: f64,
    sync_ops: u64,
    /// Ops whose per-layer busy time did not cover their sim duration.
    unexplained_ops: u64,
    dirty_fraction_sum: f64,
    samples: u64,
    free_blocks_min: usize,
    backlog_pages_max: u64,
    pick_victims_ns: Vec<f64>,
    top_sim: [TopSpans; 4],
    top_host: [TopSpans; 4],
}

impl Recorder {
    fn new(capacity: usize) -> Self {
        Recorder {
            host_ns: Default::default(),
            service_us: Vec::with_capacity(capacity),
            stall_us: Vec::new(),
            stall_purposes: ["validity_update", "validity_merge"].map(adapter::purpose_index),
            idle_ticks: 0,
            cache_probes: 0,
            cache_hits: 0,
            host_total_ns: 0.0,
            host_plain_ns: 0.0,
            host_gc_ns: 0.0,
            host_sync_ns: 0.0,
            sync_ops: 0,
            unexplained_ops: 0,
            dirty_fraction_sum: 0.0,
            samples: 0,
            free_blocks_min: usize::MAX,
            backlog_pages_max: 0,
            pick_victims_ns: Vec::new(),
            top_sim: std::array::from_fn(|_| TopSpans::new()),
            top_host: std::array::from_fn(|_| TopSpans::new()),
        }
    }

    fn record(&mut self, span: &OpSpan, idle_ticks: u32) {
        let (kind, delta) = (span.kind, &span.delta);
        self.idle_ticks += idle_ticks as u64;
        if let Some(hit) = span.cache_hit {
            self.cache_probes += 1;
            self.cache_hits += hit as u64;
        }
        let host = span.host_ns as f64;
        self.host_ns[kind].push(host);
        self.service_us.push(delta.sim_us);
        if kind == WRITE {
            self.stall_us.push(
                self.stall_purposes
                    .iter()
                    .map(|&i| delta.io[i].busy_us)
                    .sum(),
            );
        }
        self.host_total_ns += host;
        if delta.gc_operations > 0 {
            self.host_gc_ns += host;
        } else if delta.syncs > 0 {
            self.host_sync_ns += host;
            self.sync_ops += 1;
        } else if delta.flushes == 0 && delta.merges == 0 && delta.merge_pages_stepped == 0 {
            self.host_plain_ns += host;
        }
        // Sim time only advances by charged IO, and overlap windows advance
        // it by less than the IO's serial cost: the layers' busy time must
        // cover the op's duration.
        if delta.total_io().busy_us + 1e-6 < delta.sim_us {
            self.unexplained_ops += 1;
        }
        self.top_sim[kind].offer(delta.sim_us, span);
        self.top_host[kind].offer(host, span);
    }

    fn sample(&mut self, client: &Client, index: usize) {
        self.samples += 1;
        self.dirty_fraction_sum += client.engine.cache_dirty_fraction();
        self.free_blocks_min = self.free_blocks_min.min(client.engine.free_blocks());
        self.backlog_pages_max = self
            .backlog_pages_max
            .max(client.engine.merge_backlog_pages());
        if index.is_multiple_of(PICK_EVERY) {
            self.pick_victims_ns
                .push(client.engine.time_pick_victims() as f64);
        }
    }
}

struct TracedWindow {
    rec: Recorder,
    delta: Snapshot,
    host_ops: u64,
    time: Timed,
}

/// The sim window again, with the recorder around every call.
fn traced_window(
    client: &mut Client,
    w: &Workload,
    opts: &Options,
    clock: &mut HostClock,
) -> TracedWindow {
    let total = opts.window_ops(w);
    let mut chunk = Vec::with_capacity(opts.segment_ops());
    let mut rec = Recorder::new(total);
    let first = client.attempted;
    let start = client.engine.snapshot();
    let epoch = Instant::now();
    let (mut done, mut time) = (0usize, Timed::default());
    let mut prev = start;
    while done < total {
        client.next_chunk(&mut chunk, opts.segment_ops().min(total - done));
        let ((), t) = clock.time(|| {
            for (i, &op) in chunk.iter().enumerate() {
                let index = done + i;
                let cache_hit = match op {
                    Op::Write(l) | Op::Read(l) => Some(client.engine.cache_holds(l)),
                    _ => None,
                };
                let h0 = Instant::now();
                client.apply(op);
                let host_ns = h0.elapsed().as_nanos() as u64;
                let now = client.engine.snapshot();
                let (lpn, idle_ticks) = match op {
                    Op::Write(l) | Op::Read(l) | Op::Trim(l) => (l, 0),
                    Op::Idle(n) => (0, n),
                };
                let span = OpSpan {
                    index: index as u64,
                    kind: run::kind_of(op),
                    lpn,
                    cache_hit,
                    host_start_ns: h0.duration_since(epoch).as_nanos() as u64,
                    host_ns,
                    sim_start_us: prev.sim_us,
                    delta: now.since(&prev),
                };
                rec.record(&span, idle_ticks);
                prev = now;
                if index % SAMPLE_EVERY == 0 {
                    rec.sample(client, index);
                }
            }
        });
        time += t;
        done += chunk.len();
    }
    TracedWindow {
        rec,
        delta: prev.since(&start),
        host_ops: client.attempted - first,
        time,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A percentile where the sample supports it, else the highest rank that
/// has ten samples beyond it, else 0 (a kind of op the workload never
/// issues).
fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    stats::percentile(sorted, q).unwrap_or_else(|| {
        sorted
            .len()
            .checked_sub(stats::MIN_BEYOND + 1)
            .map_or(0.0, |i| sorted[i])
    })
}

/// The `--trace 1` run.
pub fn run(w: &Workload, opts: &Options) -> Outcome {
    let mut report = Report::per_layer();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut clock = HostClock::new();

    let mut retire = |client: Client| {
        attempted += client.attempted;
        failed += client.failed;
    };

    // Pass 1: plain.
    let (mut client, _) = run::setup(w, opts, &mut clock);
    let plain = run::sim_window(&mut client, w, opts, &mut clock);
    let ram = client.engine.ram();
    retire(client);

    // Pass 2: traced.
    let (mut client, _) = run::setup(w, opts, &mut clock);
    let traced = traced_window(&mut client, w, opts, &mut clock);
    let mut identical = vec![
        traced.delta == plain.delta,
        traced.rec.service_us == plain.service_us,
        client.engine.ram() == ram,
    ];
    client.crash_check(true);
    retire(client);

    // Pass 3: the engine's own telemetry on.
    let (mut client, _) = run::setup(w, opts, &mut clock);
    client.engine.enable_telemetry(1 << 16);
    let telemetry = run::sim_window(&mut client, w, opts, &mut clock);
    identical.push(telemetry.delta == plain.delta);
    identical.push(telemetry.service_us == plain.service_us);
    let telemetry_dropped = client.engine.telemetry_dropped();
    retire(client);
    failed += traced.rec.unexplained_ops + identical.iter().filter(|same| !**same).count() as u64;

    // Layer drives, on the workload's own op list.
    let drive_ops = if opts.smoke {
        DRIVE_OPS / 10
    } else {
        DRIVE_OPS
    };
    let t = Instant::now();
    let ops: Vec<Op> = w.stream(opts.seed).take(drive_ops).collect();
    let gen_ns_per_op = t.elapsed().as_nanos() as f64 / ops.len() as f64;
    let cache_drive = adapter::drive_cache(&w.spec, &ops);
    let translation_drive = adapter::drive_translation(&ops, drive_ops / 10);
    let gecko_drive = adapter::drive_gecko(&w.spec, &ops);
    let flash_drive = adapter::drive_flash(if opts.smoke { 32 } else { 256 });

    let d = &traced.delta;
    let rec = &traced.rec;
    let ops_n = traced.host_ops as f64;
    let kop = ops_n / 1e3;
    let wa = d.wa();
    let all_io = d.total_io();
    let total_busy = all_io.busy_us;
    let share = |layer: Layer| 100.0 * ratio(d.layer_io(layer).busy_us, total_busy);
    let host_sorted: Vec<Vec<f64>> = rec
        .host_ns
        .iter()
        .map(|v| stats::sorted(v.clone()))
        .collect();
    // The traced pass's service times equal the plain pass's (checked above).
    let (sim_writes, sim_reads, sim_trims) = (
        plain.sorted_of(WRITE),
        plain.sorted_of(READ),
        plain.sorted_of(TRIM),
    );
    let stalls = stats::sorted(rec.stall_us.clone());

    report.set("workloads.gen_ns_per_op", gen_ns_per_op);
    report.set("workloads.writes", d.writes as f64);
    report.set("workloads.reads", d.reads as f64);
    report.set("workloads.trims", d.trims as f64);
    report.set("workloads.idle_ticks", rec.idle_ticks as f64);

    report.set(
        "ftl.host_write_p50_ns",
        stats::median_sorted(&host_sorted[WRITE]),
    );
    report.set(
        "ftl.host_write_p99_ns",
        percentile_or_zero(&host_sorted[WRITE], 0.99),
    );
    report.set(
        "ftl.host_write_max_ns",
        host_sorted[WRITE].last().copied().unwrap_or(0.0),
    );
    report.set(
        "ftl.host_read_p50_ns",
        stats::median_sorted(&host_sorted[READ]),
    );
    report.set(
        "ftl.host_read_p99_ns",
        percentile_or_zero(&host_sorted[READ], 0.99),
    );
    report.set(
        "ftl.host_trim_p50_ns",
        stats::median_sorted(&host_sorted[TRIM]),
    );
    report.set(
        "ftl.host_idle_tick_mean_ns",
        ratio(host_sorted[IDLE].iter().sum(), rec.idle_ticks as f64),
    );
    report.set(
        "ftl.host_share_plain_pct",
        100.0 * ratio(rec.host_plain_ns, rec.host_total_ns),
    );
    report.set("ftl.sim_write_p50_us", stats::median_sorted(&sim_writes));
    report.set(
        "ftl.sim_write_p99_us",
        percentile_or_zero(&sim_writes, 0.99),
    );
    report.set(
        "ftl.sim_write_p99.9_us",
        percentile_or_zero(&sim_writes, 0.999),
    );
    report.set(
        "ftl.sim_write_max_us",
        sim_writes.last().copied().unwrap_or(0.0),
    );
    report.set("ftl.sim_read_p50_us", stats::median_sorted(&sim_reads));
    report.set("ftl.sim_read_p99_us", percentile_or_zero(&sim_reads, 0.99));
    report.set("ftl.sim_trim_p99_us", percentile_or_zero(&sim_trims, 0.99));
    report.set("ftl.user_sim_share_pct", share(Layer::Ftl));
    report.set("ftl.checkpoints_per_kop", ratio(d.checkpoints as f64, kop));

    report.set(
        "cache.hit_rate",
        ratio(rec.cache_hits as f64, rec.cache_probes as f64),
    );
    report.set(
        "cache.dirty_fraction_mean",
        ratio(rec.dirty_fraction_sum, rec.samples as f64),
    );
    report.set("cache.ram_bytes", ram.cache as f64);
    report.set("cache.drive_access_ns", cache_drive.access_ns);
    report.set(
        "cache.drive_evictions_per_kop",
        cache_drive.evictions_per_kop,
    );

    let sync_io = d.io_of("translation_sync");
    report.set("translation.syncs_per_kop", ratio(d.syncs as f64, kop));
    report.set(
        "translation.sync_writes_per_op",
        ratio(sync_io.page_writes as f64, ops_n),
    );
    report.set("translation.syncs_aborted", d.syncs_aborted as f64);
    report.set(
        "translation.fetch_reads_per_read",
        ratio(
            d.io_of("translation_fetch").page_reads as f64,
            d.reads as f64,
        ),
    );
    report.set("translation.wa", wa.translation);
    report.set("translation.sim_share_pct", share(Layer::Translation));
    report.set(
        "translation.host_ns_per_sync_op",
        ratio(rec.host_sync_ns, rec.sync_ops as f64),
    );
    report.set("translation.gmd_ram_bytes", ram.gmd as f64);
    report.set("translation.drive_lookup_ns", translation_drive.lookup_ns);
    report.set("translation.drive_sync_ns", translation_drive.sync_ns);

    let (update_io, merge_io, query_io) = (
        d.io_of("validity_update"),
        d.io_of("validity_merge"),
        d.io_of("validity_query"),
    );
    let gc_per_write = ratio(d.gc_operations as f64, d.logical_writes as f64);
    report.set("gecko.wa", wa.validity);
    report.set("gecko.sim_share_pct", share(Layer::Gecko));
    report.set("gecko.flushes_per_kop", ratio(d.flushes as f64, kop));
    report.set("gecko.merges_per_kop", ratio(d.merges as f64, kop));
    report.set(
        "gecko.merge_pages_per_op",
        ratio(d.merge_pages_stepped as f64, ops_n),
    );
    report.set("gecko.merge_stall_drains", d.merge_stall_drains as f64);
    report.set("gecko.backlog_pages_max", rec.backlog_pages_max as f64);
    report.set("gecko.queries_per_kop", ratio(d.queries as f64, kop));
    report.set(
        "gecko.reads_per_query",
        ratio(query_io.page_reads as f64, d.queries as f64),
    );
    report.set(
        "gecko.bloom_skip_rate",
        ratio(
            d.bloom_skips as f64,
            (d.bloom_skips + d.fence_probes) as f64,
        ),
    );
    report.set(
        "gecko.update_reads_per_op",
        ratio(
            (update_io.page_reads + merge_io.page_reads) as f64,
            d.buffer_inserts as f64,
        ),
    );
    report.set(
        "gecko.update_writes_per_op",
        ratio(
            (update_io.page_writes + merge_io.page_writes) as f64,
            d.buffer_inserts as f64,
        ),
    );
    report.set(
        "gecko.model_wa_ratio",
        ratio(
            wa.validity,
            adapter::model_validity_wa(&w.spec, gc_per_write),
        ),
    );
    report.set("gecko.stall_p99_us", percentile_or_zero(&stalls, 0.99));
    report.set("gecko.stall_max_us", stalls.last().copied().unwrap_or(0.0));
    report.set("gecko.ram_bytes", ram.validity as f64);
    report.set(
        "gecko.drive_mark_invalid_mean_ns",
        gecko_drive.mark_invalid_mean_ns,
    );
    report.set(
        "gecko.drive_mark_invalid_max_ns",
        gecko_drive.mark_invalid_max_ns,
    );
    report.set("gecko.drive_pump_merges_ns", gecko_drive.pump_merges_ns);
    report.set("gecko.drive_gc_query_ns", gecko_drive.gc_query_ns);
    report.set(
        "gecko.drive_gc_query_batch8_ns",
        gecko_drive.gc_query_batch8_ns,
    );
    report.set("gecko.drive_note_erase_ns", gecko_drive.note_erase_ns);
    report.set("gecko.drive_reads_per_query", gecko_drive.reads_per_query);

    let collects = d.gc_operations as f64;
    report.set("gc.collects_per_kop", ratio(collects, kop));
    report.set(
        "gc.migrations_per_collect",
        ratio(d.gc_migrations as f64, collects),
    );
    report.set("gc.uip_skips_per_kop", ratio(d.gc_uip_skips as f64, kop));
    report.set("gc.user_wa", wa.user);
    report.set("gc.sim_share_pct", share(Layer::Gc));
    report.set(
        "gc.sim_us_per_collect",
        ratio(d.layer_io(Layer::Gc).busy_us, collects),
    );
    report.set("gc.host_ns_per_collect", ratio(rec.host_gc_ns, collects));
    report.set(
        "gc.host_share_pct",
        100.0 * ratio(rec.host_gc_ns, rec.host_total_ns),
    );
    report.set("gc.free_blocks_min", rec.free_blocks_min as f64);
    report.set("gc.bvc_ram_bytes", ram.bvc as f64);
    report.set("gc.pick_victims_ns", stats::mean(&rec.pick_victims_ns));

    report.set(
        "flash_sim.page_reads_per_op",
        ratio(all_io.page_reads as f64, ops_n),
    );
    report.set(
        "flash_sim.page_writes_per_op",
        ratio(all_io.page_writes as f64, ops_n),
    );
    report.set(
        "flash_sim.spare_reads_per_op",
        ratio(all_io.spare_reads as f64, ops_n),
    );
    report.set("flash_sim.erases_per_kop", ratio(all_io.erases as f64, kop));
    report.set(
        "flash_sim.host_ns_per_io",
        ratio(plain.time.nominal_s * 1e9, all_io.events() as f64),
    );
    report.set(
        "flash_sim.overlap_credit_pct",
        100.0 * ratio(total_busy - d.sim_us, d.sim_us),
    );
    report.set("flash_sim.drive_write_page_ns", flash_drive.write_page_ns);
    report.set("flash_sim.drive_read_page_ns", flash_drive.read_page_ns);
    report.set("flash_sim.drive_erase_block_ns", flash_drive.erase_block_ns);

    // GeckoRec's cost, averaged over the plain pass's crash points.
    report.set("recovery.host_ms", stats::mean(&plain.recovery_host_ms));
    for step in [
        "bid",
        "gmd",
        "run_directories",
        "buffer",
        "bvc",
        "dirty_entries",
    ] {
        report.set(
            &format!("recovery.sim_ms_{step}"),
            plain.recovery_mean(|c| c.step_ms(step)),
        );
    }
    report.set(
        "recovery.spare_reads",
        plain.recovery_mean(|c| c.spare_reads as f64),
    );
    report.set(
        "recovery.page_reads",
        plain.recovery_mean(|c| c.page_reads as f64),
    );
    report.set(
        "recovery.recovered_entries",
        plain.recovery_mean(|c| c.recovered_entries as f64),
    );

    report.set(
        "telemetry.overhead_pct",
        100.0 * (telemetry.time.nominal_s / plain.time.nominal_s - 1.0),
    );
    report.set("telemetry.dropped_events", telemetry_dropped as f64);

    report.set(
        "bench.trace_overhead_pct",
        100.0 * (traced.time.nominal_s / plain.time.nominal_s - 1.0),
    );
    report.set(
        "bench.host_section_spread_pct",
        100.0 * stats::spread(&plain.section_rates),
    );
    report.set("bench.crash_points", plain.recoveries.len() as f64);
    report.set(
        "bench.untraced_ops_per_s",
        plain.host_ops as f64 / plain.time.nominal_s,
    );
    report.set(
        "bench.traced_ops_per_s",
        traced.host_ops as f64 / traced.time.nominal_s,
    );
    report.set("bench.spans_recorded", rec.service_us.len() as f64);
    report.set("bench.sim_identity_checks", identical.len() as f64);

    let spans = spans_json(w, opts, &traced);
    let dir = crate::bench_dir().join("results");
    let path = dir.join(format!("{}.spans.json", w.name));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }

    Outcome {
        report,
        notes: Vec::new(),
        attempted,
        failed,
    }
}

fn io_json(io: &Io) -> String {
    format!(
        "\"sim_us\": {}, \"page_reads\": {}, \"page_writes\": {}, \"spare_reads\": {}, \"erases\": {}",
        io.busy_us, io.page_reads, io.page_writes, io.spare_reads, io.erases
    )
}

fn span_json(s: &OpSpan) -> String {
    let d = &s.delta;
    let children: Vec<String> = Layer::ALL
        .iter()
        .map(|&l| (l, d.layer_io(l)))
        .filter(|(_, io)| io.events() > 0)
        .map(|(l, io)| format!("{{\"layer\": \"{}\", {}}}", l.name(), io_json(&io)))
        .collect();
    format!(
        "{{\"id\": {}, \"kind\": \"{}\", \"lpn\": {}, \"cache_hit\": {}, \
         \"host_start_ns\": {}, \"host_ns\": {}, \"sim_start_us\": {}, \"sim_us\": {}, \
         \"syncs\": {}, \"gc_collects\": {}, \"gc_migrations\": {}, \"checkpoints\": {}, \
         \"flushes\": {}, \"merges\": {}, \"merge_pages\": {}, \"gecko_queries\": {}, \
         \"children\": [{}]}}",
        s.index,
        KIND_NAMES[s.kind],
        s.lpn,
        s.cache_hit.map_or("null".into(), |h| h.to_string()),
        s.host_start_ns,
        s.host_ns,
        s.sim_start_us,
        d.sim_us,
        d.syncs,
        d.gc_operations,
        d.gc_migrations,
        d.checkpoints,
        d.flushes,
        d.merges,
        d.merge_pages_stepped,
        d.queries,
        children.join(", ")
    )
}

/// Per-layer totals and the slowest spans, as JSON.
fn spans_json(w: &Workload, opts: &Options, traced: &TracedWindow) -> String {
    let mut out = String::new();
    let d = &traced.delta;
    let _ = writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"ops\": {}, \"sim_us\": {}, \"host_s\": {},",
        w.name, opts.seed, traced.host_ops, d.sim_us, traced.time.raw_s
    );
    let layers: Vec<String> = Layer::ALL
        .iter()
        .map(|&l| format!("  \"{}\": {{{}}}", l.name(), io_json(&d.layer_io(l))))
        .collect();
    let _ = writeln!(out, " \"layers\": {{\n{}\n }},", layers.join(",\n"));
    let purposes: Vec<String> = (0..adapter::PURPOSES)
        .filter(|&i| d.io[i].events() > 0)
        .map(|i| {
            format!(
                "  \"{}\": {{\"layer\": \"{}\", {}}}",
                adapter::purpose_label(i),
                adapter::purpose_layer(i).name(),
                io_json(&d.io[i])
            )
        })
        .collect();
    let _ = writeln!(out, " \"purposes\": {{\n{}\n }},", purposes.join(",\n"));
    let mut groups = Vec::new();
    for (clock, tops) in [("sim", &traced.rec.top_sim), ("host", &traced.rec.top_host)] {
        for (kind, top) in tops.iter().enumerate() {
            let spans: Vec<String> = top
                .sorted()
                .into_iter()
                .map(|s| format!("   {}", span_json(s)))
                .collect();
            if !spans.is_empty() {
                groups.push(format!(
                    "  \"{}_by_{clock}\": [\n{}\n  ]",
                    KIND_NAMES[kind],
                    spans.join(",\n")
                ));
            }
        }
    }
    let _ = writeln!(out, " \"slowest\": {{\n{}\n }}\n}}", groups.join(",\n"));
    out
}
