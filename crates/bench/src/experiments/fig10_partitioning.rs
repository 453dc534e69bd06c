//! Figure 10: entry-partitioning makes write-amplification independent of
//! the block size B (§3.3, §5.2). Without partitioning (S=1), WA grows with
//! B because fewer entries fit into the buffer; with the tuning rule
//! S = B/key-bits, it stays flat; over-partitioning re-inflates space.

use super::RunOptions;
use crate::harness::measure_uniform;
use crate::report::{f3, Table};
use flash_sim::Geometry;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;

/// Run the Figure-10 sweep: B ∈ {64,128,256,512} × S ∈ {1,2,4,8,16,32}.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 10 — validity WA vs block size B and partitioning factor S (S*=B/32 is the tuning rule)",
        &["B", "S", "V (buffer entries)", "validity WA"],
    );
    let total_pages: u32 = 1 << 17;
    for b in [64u32, 128, 256, 512] {
        let geo = Geometry::new(total_pages / b, b, 1 << 12, 0.7);
        for s in [1u32, 2, 4, 8, 16, 32] {
            let gecko_cfg = GeckoConfig {
                partitions: s,
                ..GeckoConfig::paper_default(&geo)
            };
            let cfg = FtlConfig::geckoftl(&geo);
            let mut engine =
                FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko_cfg));
            let v = gecko_cfg.entries_per_page(&geo);
            let d = measure_uniform(&mut engine, 40_000, 13);
            let wa = d.wa_breakdown(10.0).validity;
            let star = if s == GeckoConfig::recommended_partitions(&geo) {
                "*"
            } else {
                ""
            };
            t.row(vec![
                b.to_string(),
                format!("{s}{star}"),
                v.to_string(),
                f3(wa),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn unpartitioned_wa_grows_with_b_but_tuned_is_flat() {
        let tables = super::run(&Default::default());
        let rows = &tables[0].rows;
        let wa_of = |b: &str, s_prefix: &str| -> f64 {
            rows.iter()
                .find(|r| r[0] == b && (r[1] == s_prefix || r[1] == format!("{s_prefix}*")))
                .map(|r| r[3].parse().unwrap())
                .expect("row present")
        };
        // S=1: B=512 should cost clearly more than B=64.
        assert!(
            wa_of("512", "1") > 1.5 * wa_of("64", "1"),
            "unpartitioned WA must grow with B: {} vs {}",
            wa_of("64", "1"),
            wa_of("512", "1")
        );
        // Tuned S=B/32: flat across B within a modest factor.
        let tuned: Vec<f64> = [("64", "2"), ("128", "4"), ("256", "8"), ("512", "16")]
            .iter()
            .map(|(b, s)| wa_of(b, s))
            .collect();
        let max = tuned.iter().cloned().fold(0.0f64, f64::max);
        let min = tuned.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max < 2.0 * min,
            "tuned WA should be ≈flat across B: {tuned:?}"
        );
    }
}
