//! Write-latency A/B of the incremental merge scheduler: synchronous
//! Logarithmic Gecko merges (the paper's behavior — a write that trips a
//! level-N merge pays the whole merge as latency) against the bounded-step
//! merge jobs of [`geckoftl_core::gecko::merge_job`], which charge at most
//! `merge_step_pages` of merge IO per tree per write.
//!
//! Both variants run the same mixed workload (25 % reads) on identical
//! geometry and tuning; the only difference is `GeckoConfig::sync_merge`.
//! Per-write latency is each write's `Completion::sim_us`.
//! The headline metrics are the p99 and max write latency (the tail the
//! amortized cost analysis of Table 1 promises but synchronous merging
//! breaks), with write-amplification equality and the GC auditor
//! ([`FtlEngine::audit`]) proving the scheduler changed *when*
//! merge IO happens, not *what* the FTL stores. Results land in
//! `BENCH_merge_latency.json`.

use super::RunOptions;
use crate::harness::{fill_sequential, OpDriver};
use crate::report::{f3, Table};
use flash_sim::telemetry::{chrome_trace_json, TraceEvent};
use flash_sim::{Geometry, Histogram, IoPurpose};
use ftl_workloads::{Mixed, Zipfian};
use geckoftl_core::ftl::{FtlConfig, FtlEngine, HostOpKind, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;
use std::time::Instant;

struct VariantResult {
    name: String,
    /// Per-write latency, in the shared streaming histogram (the same
    /// log-bucketed [`Histogram`] every percentile in this crate now comes
    /// from; its equivalence to the old sort-based quantiles is pinned by
    /// `ftl_telemetry::hist` regression tests).
    lat: Histogram,
    /// Per-read latency. A read feeds no validity metadata and pays no
    /// merge slice, so moving merge IO off the write path must not move it
    /// onto reads: [`run`] checks that the incremental variant's read p99
    /// is no worse than the sync baseline's.
    read_lat: Histogram,
    /// Per-write merge-stall component: the `ValidityMerge` busy time each
    /// measured write was charged. The direct measure of what the scheduler
    /// moves off the critical path.
    stall: Histogram,
    wa_total: f64,
    merge_busy_us: f64,
    merge_stall_drains: u64,
    merge_pages_stepped: u64,
    merges: u64,
    wall_secs: f64,
    oracle_ok: bool,
}

fn geometry() -> Geometry {
    // 128 MB simulated device, 4 channels: big enough for a
    // ~6-level Gecko tree under the shrunken page budget below, small
    // enough to measure in seconds. R = 0.5 (generous over-provisioning)
    // keeps GC victims mostly invalid, so the write-latency tail measures
    // validity-metadata maintenance — the component under test — rather
    // than migration IO, which the scheduler neither adds nor removes.
    Geometry::new(256, 128, 4096, 0.5).with_channels(4)
}

fn gecko_cfg(sync_merge: bool, shards: u32) -> GeckoConfig {
    GeckoConfig {
        // Shrink usable page space so flushes/merges build a real
        // multi-level tree at simulation scale (V ≈ 31 entries).
        page_header_bytes: 4096 - 256,
        sync_merge,
        merge_step_pages: 4,
        shards,
        ..GeckoConfig::paper_default(&geometry())
    }
}

/// Export the variant's telemetry as Chrome Trace Event Format JSON and
/// print a per-purpose reconciliation of the trace's channel lanes against
/// `IoStats::busy_us`: with no dropped events, the sum of event durations
/// per purpose equals the busy time the stats charged over the same window
/// (the flash-sim `telemetry_io_events_reconcile_with_busy_us` test pins
/// this exactly; here it is reported for the real run).
fn export_trace(path: &str, engine: &FtlEngine, delta: &flash_sim::IoStats) {
    let t = engine.telemetry();
    let mut labels = [""; 14];
    for p in IoPurpose::ALL {
        labels[p.index()] = p.label();
    }
    let json = chrome_trace_json(t, &labels);
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!(
            "   wrote {path}: {} events ({} dropped)",
            t.total_events(),
            t.dropped_events()
        ),
        Err(e) => eprintln!("   could not write {path}: {e}"),
    }
    let mut per_purpose = [0.0f64; 14];
    for ev in t.events() {
        if let TraceEvent::Io {
            purpose, dur_us, ..
        } = ev
        {
            per_purpose[*purpose as usize] += *dur_us as f64;
        }
    }
    if t.dropped_events() > 0 {
        eprintln!(
            "   WARNING: {} events dropped; lane sums undercount busy_us",
            t.dropped_events()
        );
        return;
    }
    eprintln!("   trace lanes vs IoStats::busy_us over the measured window:");
    for p in IoPurpose::ALL {
        let busy = delta.busy_us(p);
        let lanes = per_purpose[p.index()];
        if busy == 0.0 && lanes == 0.0 {
            continue;
        }
        // f32 event durations: allow rounding at ~1e-7 relative.
        let ok = (lanes - busy).abs() <= 1e-6 * busy.abs().max(1.0);
        eprintln!(
            "     {:<18} lanes {:14.1}  busy {:14.1}  {}",
            p.label(),
            lanes,
            busy,
            if ok { "ok" } else { "MISMATCH" }
        );
        assert!(
            ok,
            "trace lanes must reconcile with busy_us for {}: {lanes} vs {busy}",
            p.label()
        );
    }
}

fn run_variant(
    name: String,
    sync_merge: bool,
    shards: u32,
    measured_writes: usize,
    trace: Option<&str>,
) -> VariantResult {
    let geo = geometry();
    let cfg = FtlConfig {
        // A few percent of the logical space (not the paper's 0.14 %
        // whole-device ratio, which at this scaled-down geometry collapses
        // to 64 entries and drowns the tail in unidentified-invalid-page
        // migrations — an orthogonal cost the scheduler neither adds nor
        // removes).
        cache_entries: 2048,
        ..FtlConfig::geckoftl(&geo)
    };
    let mut engine = FtlEngine::format(
        geo,
        cfg,
        ValidityBackend::gecko_for(geo, gecko_cfg(sync_merge, shards)),
    );
    fill_sequential(&mut engine);
    let logical = geo.logical_pages();
    // Zipfian-skewed updates + 25 % reads: a realistic mixed workload whose
    // GC victims are mostly-invalid, so the write-latency tail is dominated
    // by validity-metadata maintenance — the component under test.
    let mut gen = Mixed::new(7, Zipfian::new(13, logical, 0.99), 0.25, logical);
    // Warm-up to GC + merge steady state.
    let mut driver = OpDriver::new(1 << 32);
    driver.run(&mut engine, gen.by_ref().take(logical as usize / 2));

    let snap = engine.device().stats().clone();
    let gecko_before = engine.backend().gecko_stats().expect("gecko backend");
    if trace.is_some() {
        // The ring must hold every IO event of the measured window for the
        // per-channel lanes to reconcile with busy_us (≈ a few IO events
        // per write at WA ≈ 1.2, plus GC bursts; 32× is comfortably over).
        engine.telemetry_mut().enable(measured_writes * 32);
    }
    let started = Instant::now();
    let mut lat = Histogram::new();
    let mut read_lat = Histogram::new();
    let mut stall = Histogram::new();
    let mut measured = 0usize;
    while measured < measured_writes {
        let merge_before = engine.device().stats().busy_us(IoPurpose::ValidityMerge);
        let op = gen.next().expect("infinite generator");
        let issued = driver.apply(&mut engine, op, None).expect("in-range op");
        let Some((host, done)) = issued else { continue };
        match host.kind {
            HostOpKind::Write { .. } => {
                lat.record(done.sim_us);
                stall.record(
                    engine.device().stats().busy_us(IoPurpose::ValidityMerge) - merge_before,
                );
                measured += 1;
            }
            HostOpKind::Read => read_lat.record(done.sim_us),
            HostOpKind::Trim => {} // Mixed never emits TRIMs; exhaustiveness only
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let delta = engine.device().stats().since(&snap);
    let gecko_after = engine.backend().gecko_stats().expect("gecko backend");
    if let Some(path) = trace {
        export_trace(path, &engine, &delta);
        engine.telemetry_mut().set_enabled(false); // shutdown IO is not part of the window
    }

    // Idle-starvation regression guard: a bounded idle period must drain
    // the entire merge backlog. Each idle tick is a multi-slice quantum
    // (8 slices per channel), so the debt left by the measured burst
    // drains orders of magnitude faster than the old one-slice-per-tick
    // behavior, which merely kept pace with planning and starved deep
    // merges through every idle gap.
    let backlog_pages = |e: &FtlEngine| e.backend().merge_backlog_pages();
    let debt = backlog_pages(&engine);
    let quantum =
        8 * geo.channels as u64 * gecko_cfg(sync_merge, shards).merge_step_pages.max(1) as u64;
    // Slack: installs during the drain can cascade-plan further merges.
    let allowed = 4 * debt.div_ceil(quantum) + 16;
    let mut ticks = 0u64;
    while engine.idle_tick() {
        ticks += 1;
        assert!(
            ticks <= allowed,
            "idle quanta must drain merge debt ({debt} pages due, still {} after {ticks})",
            backlog_pages(&engine)
        );
    }
    assert_eq!(backlog_pages(&engine), 0, "idle loop ended with merge debt");

    // Quiesce (sync dirty entries, flush + drain merges), then audit.
    engine.shutdown_clean();
    let oracle_ok = engine.audit().is_ok();

    VariantResult {
        name,
        lat,
        read_lat,
        stall,
        wa_total: delta.wa_breakdown(10.0).total(),
        merge_busy_us: delta.busy_us(IoPurpose::ValidityMerge),
        merge_stall_drains: gecko_after.merge_stall_drains - gecko_before.merge_stall_drains,
        merge_pages_stepped: gecko_after.merge_pages_stepped - gecko_before.merge_pages_stepped,
        merges: gecko_after.merges - gecko_before.merges,
        wall_secs,
        oracle_ok,
    }
}

/// Only simulation-derived numbers go in — wall-clock stays in the console
/// table — so regenerating the committed file is byte-identical whenever
/// behaviour is unchanged.
fn json_variant(v: &VariantResult) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"p50_us\": {:.1},\n",
            "      \"p90_us\": {:.1},\n",
            "      \"p99_us\": {:.1},\n",
            "      \"p999_us\": {:.1},\n",
            "      \"max_us\": {:.1},\n",
            "      \"mean_us\": {:.2},\n",
            "      \"read_p99_us\": {:.1},\n",
            "      \"read_max_us\": {:.1},\n",
            "      \"read_mean_us\": {:.2},\n",
            "      \"merge_stall_p99_us\": {:.1},\n",
            "      \"merge_stall_p999_us\": {:.1},\n",
            "      \"merge_stall_max_us\": {:.1},\n",
            "      \"wa_total\": {:.4},\n",
            "      \"merges\": {},\n",
            "      \"merge_busy_ms\": {:.2},\n",
            "      \"merge_pages_stepped\": {},\n",
            "      \"merge_stall_drains\": {},\n",
            "      \"oracle_ok\": {}\n",
            "    }}"
        ),
        v.lat.quantile(0.50),
        v.lat.quantile(0.90),
        v.lat.quantile(0.99),
        v.lat.quantile(0.999),
        v.lat.max(),
        v.lat.mean(),
        v.read_lat.quantile(0.99),
        v.read_lat.max(),
        v.read_lat.mean(),
        v.stall.quantile(0.99),
        v.stall.quantile(0.999),
        v.stall.max(),
        v.wa_total,
        v.merges,
        v.merge_busy_us / 1e3,
        v.merge_pages_stepped,
        v.merge_stall_drains,
        v.oracle_ok,
    )
}

fn emit_json(sync: &VariantResult, inc: &VariantResult, shards: u32, measured_writes: usize) {
    let pct = |a: f64, b: f64| 100.0 * (1.0 - b / a.max(1e-9));
    let geo = geometry();
    let geo_str = format!(
        "K={} B={} P={} R={} channels={}",
        geo.blocks, geo.pages_per_block, geo.page_bytes, geo.logical_ratio, geo.channels
    );
    let body = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"merge_latency\",\n",
            "  \"workload\": \"mixed 25% reads, zipf(0.99) updates, {} measured writes\",\n",
            "  \"geometry\": \"{}\",\n",
            "  \"merge_step_pages\": {},\n",
            "  \"shards\": {},\n",
            "  \"metric\": \"per-write simulated latency (us), sync vs incremental merges\",\n",
            "  \"variants\": {{\n",
            "    \"sync_merge\": {},\n",
            "    \"incremental\": {}\n",
            "  }},\n",
            "  \"p99_reduction_pct\": {:.2},\n",
            "  \"max_reduction_pct\": {:.2},\n",
            "  \"merge_stall_max_reduction_pct\": {:.2},\n",
            "  \"wa_delta_pct\": {:.2}\n",
            "}}\n"
        ),
        measured_writes,
        geo_str,
        gecko_cfg(false, shards).merge_step_pages,
        shards,
        json_variant(sync),
        json_variant(inc),
        pct(sync.lat.quantile(0.99), inc.lat.quantile(0.99)),
        pct(sync.lat.max(), inc.lat.max()),
        pct(sync.stall.max(), inc.stall.max()),
        100.0 * (inc.wa_total - sync.wa_total) / sync.wa_total.max(1e-9),
    );
    // Anchor to the workspace root regardless of the process cwd, so
    // `reproduce` and `cargo test` refresh the same committed artifact.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_merge_latency.json"
    );
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("   wrote {path}"),
        Err(e) => eprintln!("   could not write {path}: {e}"),
    }
}

/// Run the merge-latency A/B and emit `BENCH_merge_latency.json`. In smoke
/// mode (CI) the measured interval shrinks and the JSON is not rewritten.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let measured_writes = if opts.smoke { 5_000 } else { 40_000 };
    let shards = opts.shards.unwrap_or(1);
    let sync = run_variant(
        "sync merges (paper)".into(),
        true,
        shards,
        measured_writes,
        None,
    );
    // The incremental variant is the one worth a timeline: its merge slices
    // sit between the host IOs they are piggybacked on, which the span and
    // per-channel IO lanes of the Chrome trace make visible.
    let inc = run_variant(
        format!(
            "incremental (step={}, {}ch{})",
            gecko_cfg(false, shards).merge_step_pages,
            geometry().channels,
            if shards > 1 {
                format!(", {shards} shards")
            } else {
                String::new()
            }
        ),
        false,
        shards,
        measured_writes,
        opts.trace.as_deref(),
    );

    // Merge IO is paid by the ops that feed the validity store, never by a
    // read, so the incremental variant's read p99 is no worse than the sync
    // baseline's; and the flush valve never fires at this tuning. Both are
    // checked here, so a regression fails the run, not just a row.
    let read_p99 = [&sync, &inc].map(|v| v.read_lat.quantile(0.99));
    assert!(read_p99[1] <= read_p99[0], "read p99 {read_p99:?}");
    let drains = [&sync, &inc].map(|v| v.merge_stall_drains);
    assert!(drains == [0, 0], "forced merge drains {drains:?}");

    let mut t = Table::new(
        "Write latency — synchronous vs incremental Logarithmic Gecko merges",
        &[
            "variant",
            "p50 (us)",
            "p90 (us)",
            "p99 (us)",
            "p99.9 (us)",
            "max (us)",
            "mean (us)",
            "stall p99.9",
            "stall max",
            "WA",
            "merges",
            "stall drains",
            "oracle",
            "wall (s)",
        ],
    );
    for v in [&sync, &inc] {
        t.row(vec![
            v.name.clone(),
            f3(v.lat.quantile(0.50)),
            f3(v.lat.quantile(0.90)),
            f3(v.lat.quantile(0.99)),
            f3(v.lat.quantile(0.999)),
            f3(v.lat.max()),
            f3(v.lat.mean()),
            f3(v.stall.quantile(0.999)),
            f3(v.stall.max()),
            f3(v.wa_total),
            v.merges.to_string(),
            v.merge_stall_drains.to_string(),
            if v.oracle_ok { "ok" } else { "MISMATCH" }.into(),
            f3(v.wall_secs),
        ]);
    }
    if !opts.smoke {
        emit_json(&sync, &inc, shards, measured_writes);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn incremental_merges_cut_the_write_tail() {
        let tables = super::run(&Default::default());
        let rows = &tables[0].rows;
        let cell = |name_frag: &str, col: usize| -> f64 {
            rows.iter()
                .find(|r| r[0].contains(name_frag))
                .expect("variant row")[col]
                .parse()
                .unwrap()
        };
        let (p99_sync, p99_inc) = (cell("sync", 3), cell("incremental", 3));
        let (p999_sync, p999_inc) = (cell("sync", 4), cell("incremental", 4));
        assert!(
            p99_inc < p99_sync,
            "incremental must cut p99 write latency: {p99_inc} vs {p99_sync}"
        );
        // The single max write is not asserted (one sample: a GC burst
        // landing on merge debt can spike either variant); the p99.9 tail
        // is the robust claim.
        assert!(
            p999_inc < p999_sync,
            "incremental must cut p99.9 write latency: {p999_inc} vs {p999_sync}"
        );
        // Forced drains (none) and the read tail are checked by `run`.
        // The merge-stall component — what the scheduler actually moves off
        // the critical path — must shrink sharply at the tail. (The single
        // worst stall is *not* asserted: a forced drain inside a GC-burst
        // write can concentrate a deferred cascade and land near the sync
        // worst case; the distribution's tail is the meaningful claim.)
        let (stall_sync, stall_inc) = (cell("sync", 7), cell("incremental", 7));
        assert!(
            stall_inc < 0.7 * stall_sync,
            "p99.9 per-write merge stall must shrink ≥30%: {stall_inc} vs {stall_sync}"
        );
        // Same merge work, different timing: WA within 5 % of the baseline.
        let (wa_sync, wa_inc) = (cell("sync", 9), cell("incremental", 9));
        assert!(
            (wa_inc - wa_sync).abs() / wa_sync < 0.05,
            "WA must stay equal: {wa_inc} vs {wa_sync}"
        );
        // The GC auditor must pass for both.
        for r in rows {
            assert_eq!(r[12], "ok", "state oracle failed for {}", r[0]);
        }
    }
}
