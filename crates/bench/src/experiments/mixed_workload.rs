//! Mixed read/write workloads (paper §5, Metrics): the evaluation measures
//! pure-update workloads and notes the results "are easily generalizable to
//! a mixed workload" through
//!
//! ```text
//! slowdown factor = 1 / (RA·RW + WA·δ)
//! ```
//!
//! where `RA` is the read-amplification of fetching mapping entries from
//! flash-resident translation pages and `RW` the application read/write
//! ratio. This experiment measures RA and WA per FTL across read ratios and
//! evaluates the formula — the generalization the paper asserts.

use super::RunOptions;
use crate::harness::{drive, fill_sequential, sim_geometry};
use crate::report::{f3, Table};
use flash_sim::IoPurpose;
use ftl_baselines::{build, BaselineKind};
use ftl_workloads::{Mixed, Uniform};

/// Run the mixed-workload generalization experiment.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let geo = sim_geometry();
    let mut t = Table::new(
        "Mixed workloads — read-amplification, write-amplification and the §5 slowdown factor",
        &[
            "FTL",
            "read ratio",
            "RA (tpage reads/read)",
            "WA",
            "slowdown 1/(RA·RW + WA·δ)",
        ],
    );
    for kind in [
        BaselineKind::Dftl,
        BaselineKind::MuFtl,
        BaselineKind::GeckoFtl,
    ] {
        for read_pct in [25u32, 50, 75] {
            let mut engine = build(kind, geo);
            fill_sequential(&mut engine);
            let logical = geo.logical_pages();
            let gen = Mixed::new(
                read_pct as u64,
                Uniform::new(61, logical),
                read_pct as f64 / 100.0,
                logical,
            );
            // Warm-up then measure.
            let mut gen = gen;
            drive(&mut engine, &mut gen, logical / 2);
            let snap = engine.device().stats().clone();
            drive(&mut engine, &mut gen, 60_000);
            let d = engine.device().stats().since(&snap);
            let ra = d.counts(IoPurpose::TranslationFetch).page_reads as f64
                / d.logical_reads.max(1) as f64;
            let wa = d.wa_breakdown(10.0).total();
            let rw = d.logical_reads as f64 / d.logical_writes.max(1) as f64;
            let slowdown = 1.0 / (ra * rw + wa * 10.0);
            t.row(vec![
                kind.name().into(),
                format!("{read_pct}%"),
                f3(ra),
                f3(wa),
                format!("{slowdown:.4}"),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn geckoftl_generalizes_to_mixed_workloads() {
        let tables = super::run(&Default::default());
        let rows = &tables[0].rows;
        // At every read ratio, GeckoFTL's WA stays below µ-FTL's, so its
        // slowdown factor is at least as good.
        for pct in ["25%", "50%", "75%"] {
            let of = |ftl: &str, col: usize| -> f64 {
                rows.iter().find(|r| r[0] == ftl && r[1] == pct).unwrap()[col]
                    .parse()
                    .unwrap()
            };
            assert!(of("GeckoFTL", 3) < of("u-FTL", 3), "WA at {pct}");
            assert!(of("GeckoFTL", 4) >= of("u-FTL", 4), "slowdown at {pct}");
            // Read amplification is a cache-hit-rate property, roughly equal
            // across FTLs with equal caches.
            let ra_span = (of("GeckoFTL", 2) - of("DFTL", 2)).abs();
            assert!(
                ra_span < 0.4,
                "RA should be comparable, span {ra_span} at {pct}"
            );
        }
    }
}
