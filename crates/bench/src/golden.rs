//! Golden-trace regression corpus: committed workload traces with pinned
//! expected statistics.
//!
//! Each scenario in `traces/golden/` is a recorded [`Trace`] (the
//! `ftl-workloads` text format) replayed against a GeckoFTL engine on the
//! tiny simulation geometry, with the validity store at one tree
//! (`shards = 1`) and at four. The replay's key statistics — op counts, write
//! amplification, reads per GC query, per-tenant splits, latency tails and
//! a full-device content fingerprint — are serialized to a `key = value`
//! text block and compared **byte-identically** against the committed
//! `<name>.shard<N>.expect` file.
//!
//! The point is drift detection: any change to the engine, the validity
//! store, GC victim picking, TRIM handling or the trace format that alters
//! observable behaviour shows up as a precise metric delta in CI, not as a
//! vague downstream benchmark shift. Deliberate behaviour changes re-bless
//! the corpus with `GOLDEN_BLESS=1 cargo test -p gecko-bench --test
//! golden_traces` (see `docs/WORKLOADS.md`).

use crate::harness::{fill_sequential, replay_trace, small_gecko_engine};
use flash_sim::{Geometry, IoPurpose};
use ftl_workloads::{
    BurstyDiurnal, Mixed, OverwriteStorm, Scan, TenantMix, Trace, TrimWave, Uniform, WorkloadOp,
};
use geckoftl_core::ftl::FtlEngine;
use std::path::PathBuf;

/// The committed golden-trace directory, anchored to the workspace root so
/// `reproduce`, `cargo test` and CI all resolve the same files.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../traces/golden")
}

/// FNV-1a over the final logical content: every mapped page's `(lpn,
/// version)` plus the set of unmapped pages, so both lost writes and
/// resurrected trims change the fingerprint.
fn content_fingerprint(engine: &mut FtlEngine) -> u64 {
    let logical = engine.geometry().logical_pages() as u32;
    let mut h: u64 = 0xcbf29ce484222325;
    let mut step = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for lpn in 0..logical {
        match engine.read(flash_sim::Lpn(lpn)) {
            Some(v) => {
                step(lpn as u64);
                step(v);
            }
            None => step(u64::MAX ^ lpn as u64),
        }
    }
    h
}

/// Replay one trace and serialize its pinned statistics. Deterministic:
/// the same trace and shard count produce byte-identical text on every
/// run, platform and build profile (all floats derive from exact integer
/// simulation state through a fixed expression order).
pub fn replay_stats(trace: &Trace, shards: u32) -> String {
    // The tiny geometry (716 logical pages) with 64 cache entries. QoS
    // headroom stays 0: the corpus pins the *default* engine; the QoS path
    // is exercised by the `multi_tenant` experiment.
    let mut engine = small_gecko_engine(Geometry::tiny(), 64, shards);
    fill_sequential(&mut engine);
    let gecko_queries = |e: &FtlEngine| e.backend().gecko_stats().expect("gecko backend").queries;
    let c0 = engine.counters;
    let q0 = gecko_queries(&engine);
    let io0 = engine.device().stats().clone();
    replay_trace(&mut engine, trace, 1 << 40);
    let c = engine.counters;
    let queries = gecko_queries(&engine) - q0;
    let io = engine.device().stats().since(&io0);
    let query_reads = io.counts(IoPurpose::ValidityQuery).page_reads;

    let mut out = String::new();
    let mut kv = |k: &str, v: String| {
        out.push_str(k);
        out.push_str(" = ");
        out.push_str(&v);
        out.push('\n');
    };
    kv("ops", trace.len().to_string());
    kv("shards", shards.to_string());
    kv("engine.writes", (c.writes - c0.writes).to_string());
    kv("engine.reads", (c.reads - c0.reads).to_string());
    kv("engine.trims", (c.trims - c0.trims).to_string());
    kv(
        "engine.gc_operations",
        (c.gc_operations - c0.gc_operations).to_string(),
    );
    kv(
        "engine.gc_migrations",
        (c.gc_migrations - c0.gc_migrations).to_string(),
    );
    kv(
        "io.user_write.page_writes",
        io.counts(IoPurpose::UserWrite).page_writes.to_string(),
    );
    kv("io.validity_query.page_reads", query_reads.to_string());
    kv("gecko.queries", queries.to_string());
    kv("wa_total", format!("{:.6}", io.wa_breakdown(10.0).total()));
    let rpq = query_reads as f64 / queries.max(1) as f64;
    kv("reads_per_query", format!("{rpq:.6}"));

    // Per-tenant splits and latency tails, straight from the engine's
    // tenant accounting (the replay charges every op to its tenant, so
    // untagged traces appear as tenant 0).
    for (id, s) in engine.tenant_stats() {
        let p = format!("tenant.{id}");
        kv(&format!("{p}.writes"), s.writes.to_string());
        kv(&format!("{p}.reads"), s.reads.to_string());
        kv(&format!("{p}.trims"), s.trims.to_string());
        kv(&format!("{p}.gc_operations"), s.gc_operations.to_string());
        kv(&format!("{p}.gc_debt_us"), format!("{:.3}", s.gc_debt_us));
        if s.writes > 0 {
            kv(
                &format!("{p}.write_p99_us"),
                format!("{:.3}", s.write_lat.quantile(0.99)),
            );
            kv(
                &format!("{p}.write_max_us"),
                format!("{:.3}", s.write_lat.max()),
            );
        }
        if s.reads > 0 {
            kv(
                &format!("{p}.read_p99_us"),
                format!("{:.3}", s.read_lat.quantile(0.99)),
            );
        }
    }
    kv(
        "content_fingerprint",
        format!("{:016x}", content_fingerprint(&mut engine)),
    );
    out
}

/// The corpus scenarios, regenerated deterministically from fixed seeds.
/// Every shape stresses a different engine path; `trim_wave` and
/// `multi_tenant` are required by the corpus regression test.
pub fn scenarios() -> Vec<(&'static str, Trace)> {
    let logical = Geometry::tiny().logical_pages(); // 716
    let mut out: Vec<(&'static str, Trace)> = Vec::new();

    // Uniform updates + 25 % reads: the baseline WA workload.
    out.push((
        "uniform_mixed",
        Trace::record(
            Mixed::new(11, Uniform::new(13, logical), 0.25, logical),
            3_000,
        ),
    ));

    // A storm preconditioning phase followed by sequential backup scans.
    let mut t = Trace::record(OverwriteStorm::new(17, logical, 24, 250), 1_800);
    for op in Scan::new(logical, 64).take(1_200) {
        t.push(op);
    }
    out.push(("seq_scan", t));

    out.push((
        "overwrite_storm",
        Trace::record(OverwriteStorm::new(19, logical, 16, 300), 3_000),
    ));

    out.push((
        "bursty_diurnal",
        Trace::record(BurstyDiurnal::new(23, logical, 150, 400), 3_000),
    ));

    out.push((
        "trim_wave",
        Trace::record(TrimWave::new(29, logical, 32), 3_000),
    ));

    // Two tenants on one device: tenant 1 light and read-heavy, tenant 2 an
    // overwrite storm that generates nearly all the GC debt.
    let mix = TenantMix::new(
        31,
        vec![
            (
                1,
                1,
                Box::new(Mixed::new(37, Uniform::new(41, logical), 0.5, logical))
                    as Box<dyn Iterator<Item = WorkloadOp> + Send>,
            ),
            (2, 3, Box::new(OverwriteStorm::new(43, logical, 16, 200))),
        ],
    );
    out.push(("multi_tenant", Trace::record_mix(mix, 3_000)));

    out
}

/// Write (or rewrite) the committed corpus traces. Called by the bless path
/// of the golden-trace test; scenario generation is seed-deterministic, so
/// a re-bless only changes `.trace` files when a shape generator changed.
pub fn write_corpus() -> Result<(), String> {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    for (name, trace) in scenarios() {
        trace.save(dir.join(format!("{name}.trace")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_cover_required_shapes() {
        let a = scenarios();
        let b = scenarios();
        assert_eq!(a.len(), b.len());
        for ((na, ta), (nb, tb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(
                ta.to_text(),
                tb.to_text(),
                "{na} must regenerate identically"
            );
        }
        assert!(a.len() >= 6, "corpus floor is six scenarios");
        let trim = a
            .iter()
            .find(|(n, _)| *n == "trim_wave")
            .expect("trim_wave");
        assert!(trim.1.trims() > 0);
        let mt = a
            .iter()
            .find(|(n, _)| *n == "multi_tenant")
            .expect("multi_tenant");
        assert_eq!(mt.1.tenant_ids(), vec![1, 2]);
    }

    #[test]
    fn replay_stats_are_repeatable_in_process() {
        let trace = Trace::record(TrimWave::new(5, Geometry::tiny().logical_pages(), 16), 400);
        assert_eq!(replay_stats(&trace, 1), replay_stats(&trace, 1));
    }
}
