//! Figure 11: validity write-amplification as the device grows (number of
//! blocks K). Gecko's costs are logarithmic in K; flash PVB's are constant;
//! the crossover sits at an astronomically large capacity (~2¹⁰⁰× — here
//! computed from the analytical model).

use super::RunOptions;
use crate::harness::measure_uniform;
use crate::report::{f3, Table};
use flash_sim::Geometry;
use ftl_baselines::ftls::build_with;
use ftl_baselines::BaselineKind;
use geckoftl_core::ftl::{FtlConfig, RecoveryPolicy};
use geckoftl_core::gecko::analysis::{crossover_capacity_log2, GeckoCostModel};

/// Run the Figure-11 capacity sweep (K = 2¹⁰ .. 2¹³ simulated, crossover
/// extrapolated analytically).
pub fn run(_: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 11 — validity WA vs number of blocks K (B=128, 4 KB pages, R=0.7)",
        &[
            "K",
            "capacity_MB",
            "gecko WA",
            "gecko levels",
            "flash PVB WA",
        ],
    );
    for shift in [10u32, 11, 12, 13] {
        let geo = Geometry::new(1 << shift, 1 << 7, 1 << 12, 0.7);
        let cfg = FtlConfig::geckoftl(&geo);
        let mut gecko = build_with(BaselineKind::GeckoFtl, geo, cfg);
        let gecko_wa = measure_uniform(&mut gecko, 40_000, 21)
            .wa_breakdown(10.0)
            .validity;
        let levels = gecko
            .backend()
            .gecko()
            .expect("gecko backend")
            .shard_trees()
            .iter()
            .map(|tree| tree.occupied_levels())
            .max()
            .unwrap_or(0);

        let pvb_cfg = FtlConfig {
            recovery: RecoveryPolicy::Battery,
            ..cfg
        };
        let mut pvb = build_with(BaselineKind::MuFtl, geo, pvb_cfg);
        let pvb_wa = measure_uniform(&mut pvb, 40_000, 21)
            .wa_breakdown(10.0)
            .validity;

        t.row(vec![
            (1u64 << shift).to_string(),
            (geo.physical_bytes() >> 20).to_string(),
            f3(gecko_wa),
            levels.to_string(),
            f3(pvb_wa),
        ]);
    }

    let mut x = Table::new(
        "Figure 11 (crossover) — analytical capacity multiplier where flash PVB catches up",
        &["geometry", "log2(multiplier)"],
    );
    let model = GeckoCostModel::paper_default(Geometry::paper_2tb());
    x.row(vec![
        "paper 2 TB".into(),
        f3(crossover_capacity_log2(&model)),
    ]);
    vec![t, x]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn gecko_stays_below_pvb_and_grows_slowly() {
        let tables = super::run(&Default::default());
        let rows = &tables[0].rows;
        for r in rows {
            let gecko: f64 = r[2].parse().unwrap();
            let pvb: f64 = r[4].parse().unwrap();
            assert!(gecko < pvb, "K={}: gecko {gecko} must beat pvb {pvb}", r[0]);
        }
        // 8× more blocks: gecko WA grows, but by far less than 8×.
        let first: f64 = rows.first().unwrap()[2].parse().unwrap();
        let last: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last < 4.0 * first.max(0.02),
            "gecko growth too steep: {first} → {last}"
        );
        // The crossover is astronomically far (paper: ≈2¹⁰⁰).
        let log2x: f64 = tables[1].rows[0][1].parse().unwrap();
        assert!(log2x > 60.0);
    }
}
