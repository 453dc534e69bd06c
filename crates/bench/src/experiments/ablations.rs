//! Ablations of GeckoFTL's design choices (docs/DESIGN.md, "Design choices
//! with an ablation"):
//!
//! 1. Multi-way merging (Appendix A) on/off.
//! 2. Metadata-aware GC (§4.2) vs the greedy policy.
//! 3. Checkpoints (§4.3) on/off: runtime sync cost vs recovery-scan size.

use super::RunOptions;
use crate::harness::{measure_uniform, sim_geometry};
use crate::report::{f3, Table};
use ftl_baselines::ftls::build_with;
use ftl_baselines::BaselineKind;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, GcPolicy, RecoveryPolicy, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;
use geckoftl_core::recovery::{gecko_recover, RecoveryStep};

/// Run all ablations.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let geo = sim_geometry();

    // ---- 1. Multi-way merging. ------------------------------------------
    let mut merges = Table::new(
        "Ablation — multi-way merging (Appendix A)",
        &["merging", "validity WA", "merge ops", "entries dropped"],
    );
    for multiway in [true, false] {
        let gecko_cfg = GeckoConfig {
            multiway_merge: multiway,
            ..GeckoConfig::paper_default(&geo)
        };
        let mut engine = FtlEngine::format(
            geo,
            FtlConfig::geckoftl(&geo),
            ValidityBackend::gecko_for(geo, gecko_cfg),
        );
        let d = measure_uniform(&mut engine, 60_000, 51);
        let stats = engine.backend().gecko().expect("gecko").stats();
        merges.row(vec![
            if multiway { "multi-way" } else { "two-way" }.into(),
            f3(d.wa_breakdown(10.0).validity),
            stats.merges.to_string(),
            stats.entries_dropped.to_string(),
        ]);
    }

    // ---- 2. GC victim policy. ---------------------------------------------
    let mut gc = Table::new(
        "Ablation — metadata-aware GC (§4.2) vs greedy",
        &[
            "policy",
            "user",
            "translation",
            "validity",
            "total WA",
            "migrations",
        ],
    );
    for policy in [GcPolicy::MetadataAware, GcPolicy::GreedyAll] {
        // GeckoFTL and DFTL: the policy matters most for FTLs whose greedy
        // collector would migrate translation/PVB blocks (the baselines).
        for kind in [BaselineKind::GeckoFtl, BaselineKind::Dftl] {
            let cfg = FtlConfig {
                gc_policy: policy,
                recovery: kind.recovery_policy(),
                ..FtlConfig::geckoftl(&geo)
            };
            let mut engine = build_with(kind, geo, cfg);
            let before = engine.counters.gc_migrations;
            let d = measure_uniform(&mut engine, 60_000, 52);
            let b = d.wa_breakdown(10.0);
            gc.row(vec![
                format!("{} / {policy:?}", kind.name()),
                f3(b.user),
                f3(b.translation),
                f3(b.validity),
                f3(b.total()),
                (engine.counters.gc_migrations - before).to_string(),
            ]);
        }
    }

    // ---- 3. Checkpoints. ---------------------------------------------------
    let mut ckpt = Table::new(
        "Ablation — checkpoints (§4.3): runtime syncs vs recovery-scan size",
        &[
            "checkpoints",
            "translation WA",
            "syncs",
            "recovery scan (spare reads)",
        ],
    );
    for recovery in [RecoveryPolicy::CheckpointDeferred, RecoveryPolicy::Battery] {
        let cfg = FtlConfig {
            recovery,
            ..FtlConfig::geckoftl(&geo)
        };
        let gecko_cfg = GeckoConfig::paper_default(&geo);
        let mut engine = FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko_cfg));
        let d = measure_uniform(&mut engine, 40_000, 53);
        let syncs = engine.counters.syncs;
        let cfg = engine.config();
        let dev = engine.crash();
        let (_, report) = gecko_recover(dev, cfg, gecko_cfg);
        let scan = report
            .steps
            .iter()
            .find(|(s, _)| *s == RecoveryStep::DirtyEntries)
            .map(|(_, c)| c.spare_reads)
            .unwrap_or(0);
        ckpt.row(vec![
            if recovery == RecoveryPolicy::CheckpointDeferred {
                "on (period C)"
            } else {
                "off"
            }
            .into(),
            f3(d.wa_breakdown(10.0).translation),
            syncs.to_string(),
            scan.to_string(),
        ]);
    }

    vec![merges, gc, ckpt]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn ablations_show_expected_tradeoffs() {
        let tables = super::run(&Default::default());
        // Metadata-aware GC must not be worse overall than greedy, and for
        // DFTL (whose greedy collector migrates translation blocks) it must
        // cut translation WA.
        let gc = &tables[1];
        let gecko_aware: f64 = gc.rows[0][4].parse().unwrap();
        let gecko_greedy: f64 = gc.rows[2][4].parse().unwrap();
        assert!(
            gecko_aware <= gecko_greedy * 1.1,
            "{gecko_aware} vs {gecko_greedy}"
        );
        let dftl_aware_t: f64 = gc.rows[1][2].parse().unwrap();
        let dftl_greedy_t: f64 = gc.rows[3][2].parse().unwrap();
        assert!(
            dftl_aware_t < dftl_greedy_t,
            "metadata-aware must cut DFTL translation WA: {dftl_aware_t} vs {dftl_greedy_t}"
        );
        // Checkpoints bound the recovery scan.
        let ckpt = &tables[2];
        let scan_on: u64 = ckpt.rows[0][3].parse().unwrap();
        let scan_off: u64 = ckpt.rows[1][3].parse().unwrap();
        assert!(
            scan_on < scan_off,
            "checkpointed scan {scan_on} must be below unbounded {scan_off}"
        );
    }
}
