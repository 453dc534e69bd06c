//! Multi-tenant isolation: per-tenant write latency of a light tenant and a
//! noisy neighbour sharing one device under paced GC.
//!
//! Two tenants share one device: tenant 1 is light (mixed reads/writes over
//! a private range), tenant 2 is an overwrite storm that generates nearly
//! all the GC debt. Garbage collection is paced over the host writes that
//! follow a victim pick, whichever tenant issues them, so each write pays a
//! slice sized to the victim's remaining pages; a write that finds the free
//! pages below the floor collects synchronously (`maybe_gc`).
//!
//! The headline metrics are each tenant's p99 and max write latency and the
//! GC debt each carries, read from the engine's per-tenant accounting
//! ([`geckoftl_core::TenantStats`]). Results are emitted as
//! `BENCH_multi_tenant.json` so the repo carries a machine-readable
//! baseline of the isolation the light tenant gets.

use super::RunOptions;
use crate::report::{f3, Table};
use flash_sim::{Geometry, Lpn};
use ftl_workloads::{Mixed, OverwriteStorm, TenantMix, Trace, Uniform, WorkloadOp};
use geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;

/// Per-tenant measured outcome of the run.
#[derive(Clone, Copy, Debug, Default)]
struct TenantRow {
    writes: u64,
    gc_operations: u64,
    gc_debt_us: f64,
    write_p99_us: f64,
    write_max_us: f64,
}

struct RunResult {
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

/// The two-tenant workload, recorded as a trace whose ops carry their
/// tenant.
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

fn run_shared(trace: &Trace) -> RunResult {
    let geo = geometry();
    let cfg = FtlConfig {
        cache_entries: 64,
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
    RunResult {
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

fn emit_json(r: &RunResult, ops: usize) {
    let body = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"multi_tenant\",\n",
            "  \"workload\": \"tenant1 light mixed 50% reads vs tenant2 overwrite storm, {} ops\",\n",
            "  \"geometry\": \"K=128 B=64 P=4096 R=0.7\",\n",
            "  \"metric\": \"per-tenant write p99 (us) on a shared device under paced GC\",\n",
            "  \"shared_device\": {{\n",
            "    \"light\": {},\n",
            "    \"heavy\": {},\n",
            "    \"total_gc\": {},\n",
            "    \"wa_total\": {:.4}\n",
            "  }}\n",
            "}}\n"
        ),
        ops,
        tenant_json(&r.light),
        tenant_json(&r.heavy),
        r.total_gc,
        r.wa_total,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multi_tenant.json");
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("   wrote {path}"),
        Err(e) => eprintln!("   could not write {path}: {e}"),
    }
}

/// Run the two tenants on one device and emit `BENCH_multi_tenant.json`.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let ops = if opts.smoke { 12_000 } else { 60_000 };
    let r = run_shared(&workload(ops));

    let mut t = Table::new(
        "multi-tenant — per-tenant write latency under a noisy neighbour (paced GC)",
        &[
            "tenant",
            "writes",
            "gc ops",
            "gc debt (ms)",
            "p99 (us)",
            "max (us)",
            "WA",
        ],
    );
    for (tenant, row) in [("light (1)", &r.light), ("heavy (2)", &r.heavy)] {
        t.row(vec![
            tenant.into(),
            row.writes.to_string(),
            row.gc_operations.to_string(),
            f3(row.gc_debt_us / 1e3),
            f3(row.write_p99_us),
            f3(row.write_max_us),
            f3(r.wa_total),
        ]);
    }
    if !opts.smoke {
        emit_json(&r, ops);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn the_storm_tenant_carries_most_gc_debt() {
        let r = super::run_shared(&super::workload(40_000));
        assert!(
            r.heavy.gc_debt_us > r.light.gc_debt_us,
            "the storm tenant must carry most GC debt"
        );
    }
}
