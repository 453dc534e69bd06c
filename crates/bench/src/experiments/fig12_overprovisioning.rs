//! Figure 12: over-provisioning barely affects Gecko's write-amplification.
//! Lower over-provisioning (higher R) means GC runs more often relative to
//! application writes — more GC *queries* — but queries are cheap reads, so
//! the WA contribution stays small (§5.2).

use super::RunOptions;
use crate::harness::measure_uniform;
use crate::report::{f3, Table};
use flash_sim::{Geometry, IoPurpose, WaCategory};
use ftl_baselines::ftls::build_with;
use ftl_baselines::BaselineKind;
use geckoftl_core::ftl::FtlConfig;

/// Run the Figure-12 sweep over R ∈ {0.5 .. 0.9}.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 12 — Gecko validity IO vs over-provisioning (R = logical/physical)",
        &[
            "R",
            "query reads /10k",
            "validity writes /10k",
            "validity WA",
            "GC ops /10k",
        ],
    );
    for r10 in [5u32, 6, 7, 8, 9] {
        let r = r10 as f64 / 10.0;
        let geo = Geometry::new(1 << 10, 1 << 7, 1 << 12, r);
        let cfg = FtlConfig::geckoftl(&geo);
        let mut engine = build_with(BaselineKind::GeckoFtl, geo, cfg);
        let gcs_before = engine.counters.gc_operations;
        let d = measure_uniform(&mut engine, 40_000, 31);
        let gcs = engine.counters.gc_operations - gcs_before;
        let n = d.logical_writes.max(1) as f64;
        let queries = d.counts(IoPurpose::ValidityQuery).page_reads;
        let writes = d.category_counts(WaCategory::Validity).page_writes;
        t.row(vec![
            format!("{r:.1}"),
            f3(queries as f64 / n * 10_000.0),
            f3(writes as f64 / n * 10_000.0),
            f3(d.wa_breakdown(10.0).validity),
            f3(gcs as f64 / n * 10_000.0),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn queries_rise_with_r_but_wa_stays_low() {
        let tables = super::run(&Default::default());
        let rows = &tables[0].rows;
        let q_low: f64 = rows.first().unwrap()[1].parse().unwrap();
        let q_high: f64 = rows.last().unwrap()[1].parse().unwrap();
        assert!(
            q_high > q_low,
            "GC queries must rise as over-provisioning shrinks"
        );
        for r in rows {
            let wa: f64 = r[3].parse().unwrap();
            assert!(wa < 0.5, "R={}: validity WA {wa} should stay low", r[0]);
        }
    }
}
