//! Figure 9: Logarithmic Gecko vs flash-resident PVB under uniformly random
//! updates, for size ratios T ∈ {2, 4, 8, 16}. The paper's headline §5.1
//! result: Gecko wins under every tuning and T = 2 is optimal.
//!
//! Top panel: internal reads/writes caused by validity-metadata maintenance
//! per interval of 10 000 application writes. Bottom panel: the same as
//! write-amplification (`w + r/δ`).

use super::RunOptions;
use crate::harness::{drive, sim_geometry, warm_up_uniform};
use crate::report::{f3, Table};
use flash_sim::{IoStats, WaCategory};
use ftl_baselines::ftls::build_with;
use ftl_baselines::BaselineKind;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, RecoveryPolicy, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;

/// Warm up (seed 42), then return the IO delta of each of ten 10 000-write
/// windows.
fn measure_windows(engine: &mut FtlEngine) -> Vec<IoStats> {
    let mut gen = warm_up_uniform(engine, 42);
    (0..10)
        .map(|_| {
            let snap = engine.device().stats().clone();
            drive(engine, &mut gen, 10_000);
            engine.device().stats().since(&snap)
        })
        .collect()
}

/// Run the Figure-9 comparison.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let geo = sim_geometry();
    let base_cfg = FtlConfig::geckoftl(&geo);

    let mut per_interval = Table::new(
        "Figure 9 (top) — validity-metadata reads/writes per 10k-write interval",
        &["technique", "interval", "writes", "reads"],
    );
    let mut summary = Table::new(
        "Figure 9 (bottom) — validity write-amplification (w + r/δ, δ=10)",
        &["technique", "writes/10k", "reads/10k", "WA"],
    );

    let mut techniques: Vec<(String, Vec<IoStats>)> = Vec::new();
    for t in [2u32, 4, 8, 16] {
        let gecko_cfg = GeckoConfig {
            size_ratio: t,
            ..GeckoConfig::paper_default(&geo)
        };
        let mut engine =
            FtlEngine::format(geo, base_cfg, ValidityBackend::gecko_for(geo, gecko_cfg));
        techniques.push((format!("Gecko T={t}"), measure_windows(&mut engine)));
    }
    {
        // µ-FTL's flash PVB with the same GC scheme (apples-to-apples).
        let cfg = FtlConfig {
            recovery: RecoveryPolicy::Battery,
            ..base_cfg
        };
        let mut engine = build_with(BaselineKind::MuFtl, geo, cfg);
        techniques.push(("Flash PVB".into(), measure_windows(&mut engine)));
    }

    for (name, windows) in &techniques {
        let mut total_r = 0u64;
        let mut total_w = 0u64;
        let mut total_writes = 0u64;
        for (index, delta) in windows.iter().enumerate() {
            let validity = delta.category_counts(WaCategory::Validity);
            let (r, w) = (validity.page_reads, validity.page_writes);
            per_interval.row(vec![
                name.clone(),
                index.to_string(),
                w.to_string(),
                r.to_string(),
            ]);
            total_r += r;
            total_w += w;
            total_writes += delta.logical_writes;
        }
        let n = total_writes.max(1) as f64;
        let wa = total_w as f64 / n + total_r as f64 / n / 10.0;
        summary.row(vec![
            name.clone(),
            f3(total_w as f64 / total_writes as f64 * 10_000.0),
            f3(total_r as f64 / total_writes as f64 * 10_000.0),
            f3(wa),
        ]);
    }

    vec![summary, per_interval]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn t2_is_optimal_and_all_geckos_beat_pvb() {
        let tables = super::run(&Default::default());
        let summary = &tables[0];
        let wa: Vec<f64> = summary.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // rows: T=2, T=4, T=8, T=16, PVB
        let pvb = wa[4];
        for (i, w) in wa[..4].iter().enumerate() {
            assert!(w < &pvb, "gecko row {i} ({w}) must beat PVB ({pvb})");
        }
        assert!(
            wa[0] <= wa[1] && wa[0] <= wa[2] && wa[0] <= wa[3],
            "T=2 must be optimal: {wa:?}"
        );
        // PVB ≈ 1 + 1/δ.
        assert!((0.9..1.4).contains(&pvb), "PVB WA = {pvb}");
    }
}
