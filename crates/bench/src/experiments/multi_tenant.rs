//! Multi-tenant QoS A/B: per-tenant latency isolation with and without the
//! GC-debt budget.
//!
//! Two tenants share one device: tenant 1 is light (mixed reads/writes over
//! a private range), tenant 2 is an overwrite storm that generates nearly
//! all the GC debt. Without QoS, GC triggered by the storm runs inside
//! whichever host write happens to trip the free-block threshold — so the
//! light tenant's p99 write latency absorbs the heavy tenant's cleaning
//! debt. With `qos_headroom_blocks > 0`, a tenant whose accumulated GC debt
//! is above its fair share prepays collection work inside its *own* writes
//! while the pool is inside the headroom band, which keeps the threshold
//! from tripping under the light tenant's ops.
//!
//! The headline metric is the light tenant's p99 (and max) write latency,
//! QoS off vs on, read from the engine's per-tenant accounting
//! ([`geckoftl_core::TenantStats`]). Results are emitted as
//! `BENCH_multi_tenant.json` so the repo carries a machine-readable
//! baseline of the isolation claim.

use super::RunOptions;
use crate::report::{f3, Table};
use flash_sim::{Geometry, Lpn};
use ftl_workloads::{Mixed, OverwriteStorm, TenantMix, Trace, Uniform, WorkloadOp};
use geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;

/// Per-tenant measured outcome of one engine variant.
#[derive(Clone, Copy, Debug, Default)]
struct TenantRow {
    writes: u64,
    gc_operations: u64,
    gc_debt_us: f64,
    write_p99_us: f64,
    write_max_us: f64,
}

struct VariantResult {
    name: &'static str,
    headroom: usize,
    light: TenantRow,
    heavy: TenantRow,
    total_gc: u64,
    wa_total: f64,
}

fn geometry() -> Geometry {
    // 32 MB simulated device at the paper's R = 0.7: small enough that the
    // storm forces sustained GC, big enough for distinct tenant ranges.
    Geometry::new(128, 64, 4096, 0.7)
}

/// The shared two-tenant workload, recorded once so both variants replay
/// the identical op sequence (the A/B differs only in `qos_headroom_blocks`).
fn workload(ops: usize) -> Trace {
    let logical = geometry().logical_pages();
    // Tenant 1 (light): half reads over the upper quarter of the space.
    let light_base = (logical * 3 / 4) as u32;
    // Shifted into the light tenant's private range.
    let light = Mixed::new(11, Uniform::new(13, logical / 4), 0.5, logical / 4)
        .map(move |op| op.map_lpn(|l| Lpn(light_base + l.0)));
    // Tenant 2 (heavy): overwrite storm over the lower half.
    let heavy = OverwriteStorm::new(17, logical / 2, 24, 400);
    let mix = TenantMix::new(
        19,
        vec![
            (
                1,
                1,
                Box::new(light) as Box<dyn Iterator<Item = WorkloadOp> + Send>,
            ),
            (2, 4, Box::new(heavy)),
        ],
    );
    Trace::record_mix(mix, ops)
}

fn run_variant(name: &'static str, headroom: usize, trace: &Trace) -> VariantResult {
    let geo = geometry();
    let cfg = FtlConfig {
        cache_entries: 64,
        qos_headroom_blocks: headroom,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko_cfg = GeckoConfig {
        page_header_bytes: geo.page_bytes - 64,
        ..GeckoConfig::paper_default(&geo)
    };
    let mut engine = FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko_cfg));
    crate::harness::fill_sequential(&mut engine);
    let gc_before = engine.counters.gc_operations;
    let io_before = engine.device().stats().clone();
    crate::harness::replay_trace(&mut engine, trace, 1 << 40);
    let io = engine.device().stats().since(&io_before);

    let row = |id: u8| -> TenantRow {
        engine
            .tenant_stats()
            .get(&id)
            .map(|s| TenantRow {
                writes: s.writes,
                gc_operations: s.gc_operations,
                gc_debt_us: s.gc_debt_us,
                write_p99_us: s.write_lat.quantile(0.99),
                write_max_us: s.write_lat.max(),
            })
            .unwrap_or_default()
    };
    VariantResult {
        name,
        headroom,
        light: row(1),
        heavy: row(2),
        total_gc: engine.counters.gc_operations - gc_before,
        wa_total: io.wa_breakdown(10.0).total(),
    }
}

fn tenant_json(t: &TenantRow) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"writes\": {},\n",
            "      \"gc_operations\": {},\n",
            "      \"gc_debt_us\": {:.3},\n",
            "      \"write_p99_us\": {:.3},\n",
            "      \"write_max_us\": {:.3}\n",
            "    }}"
        ),
        t.writes, t.gc_operations, t.gc_debt_us, t.write_p99_us, t.write_max_us,
    )
}

fn emit_json(off: &VariantResult, on: &VariantResult, ops: usize) {
    let isolation = off.light.write_p99_us / on.light.write_p99_us.max(1e-9);
    let body = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"multi_tenant\",\n",
            "  \"workload\": \"tenant1 light mixed 50% reads vs tenant2 overwrite storm, {} ops\",\n",
            "  \"geometry\": \"K=128 B=64 P=4096 R=0.7\",\n",
            "  \"metric\": \"light tenant write p99 (us), QoS off vs on\",\n",
            "  \"qos_off\": {{\n",
            "    \"light\": {},\n",
            "    \"heavy\": {},\n",
            "    \"total_gc\": {},\n",
            "    \"wa_total\": {:.4}\n",
            "  }},\n",
            "  \"qos_on\": {{\n",
            "    \"headroom_blocks\": {},\n",
            "    \"light\": {},\n",
            "    \"heavy\": {},\n",
            "    \"total_gc\": {},\n",
            "    \"wa_total\": {:.4}\n",
            "  }},\n",
            "  \"light_p99_isolation_factor\": {:.3}\n",
            "}}\n"
        ),
        ops,
        tenant_json(&off.light),
        tenant_json(&off.heavy),
        off.total_gc,
        off.wa_total,
        on.headroom,
        tenant_json(&on.light),
        tenant_json(&on.heavy),
        on.total_gc,
        on.wa_total,
        isolation,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multi_tenant.json");
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("   wrote {path}"),
        Err(e) => eprintln!("   could not write {path}: {e}"),
    }
}

/// Run the per-tenant QoS A/B and emit `BENCH_multi_tenant.json`.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let ops = if opts.smoke { 12_000 } else { 60_000 };
    let trace = workload(ops);
    let off = run_variant("qos off (headroom 0)", 0, &trace);
    let on = run_variant("qos on (headroom 4)", 4, &trace);

    let mut t = Table::new(
        "multi-tenant QoS — per-tenant write-latency isolation under a noisy neighbour",
        &[
            "variant",
            "tenant",
            "writes",
            "gc ops",
            "gc debt (ms)",
            "p99 (us)",
            "max (us)",
            "WA",
        ],
    );
    for v in [&off, &on] {
        for (tenant, r) in [("light (1)", &v.light), ("heavy (2)", &v.heavy)] {
            t.row(vec![
                v.name.into(),
                tenant.into(),
                r.writes.to_string(),
                r.gc_operations.to_string(),
                f3(r.gc_debt_us / 1e3),
                f3(r.write_p99_us),
                f3(r.write_max_us),
                f3(v.wa_total),
            ]);
        }
    }
    if !opts.smoke {
        emit_json(&off, &on, ops);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn qos_improves_light_tenant_tail() {
        let trace = super::workload(40_000);
        let off = super::run_variant("off", 0, &trace);
        let on = super::run_variant("on", 4, &trace);
        assert!(
            off.heavy.gc_debt_us > off.light.gc_debt_us,
            "the storm tenant must carry most GC debt even without QoS"
        );
        assert!(
            on.light.write_p99_us <= off.light.write_p99_us,
            "QoS must not worsen the light tenant's p99: {} (on) vs {} (off)",
            on.light.write_p99_us,
            off.light.write_p99_us
        );
    }
}
