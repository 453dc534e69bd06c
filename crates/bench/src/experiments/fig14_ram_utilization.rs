//! Figure 14: even when integrated RAM is plentiful enough to hold the PVB,
//! GeckoFTL wins by spending that RAM on a larger mapping cache instead
//! (§5.4).
//!
//! Three FTLs share one RAM budget (scaled from the paper's ≈70 MB):
//! * DFTL keeps the PVB in RAM and gets only the small cache;
//! * µ-FTL pushes the PVB to flash and gets the big cache — but pays PVB IO;
//! * GeckoFTL gets the big cache *and* cheap validity maintenance.
//!
//! All three run GeckoFTL's garbage-collection scheme, per the paper's
//! apples-to-apples setup.

use super::RunOptions;
use crate::harness::{measure_uniform, sim_geometry};
use crate::report::{f3, Table};
use ftl_baselines::{build_with, BaselineKind};
use geckoftl_core::ftl::{FtlConfig, GcPolicy, RecoveryPolicy};

/// Run the Figure-14 comparison.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let geo = sim_geometry();
    // Budget: the RAM PVB size converted into cache entries (8 B each),
    // mirroring the paper's 64 MB → +60 MB-of-cache trade.
    let small_cache = FtlConfig::scaled_cache_entries(&geo);
    let pvb_entries = (geo.total_pages() / 8 / 8) as usize;
    let big_cache =
        (small_cache + pvb_entries).min((geo.overprovisioned_pages() / 2 - 64) as usize);

    let mut t = Table::new(
        "Figure 14 — same RAM budget: RAM-PVB + small cache vs flash validity + big cache",
        &[
            "FTL",
            "cache entries",
            "user",
            "translation",
            "validity",
            "total WA",
        ],
    );
    let cases = [
        (
            BaselineKind::Dftl,
            small_cache,
            "DFTL (RAM PVB, small cache)",
        ),
        (
            BaselineKind::MuFtl,
            big_cache,
            "u-FTL (flash PVB, big cache)",
        ),
        (
            BaselineKind::GeckoFtl,
            big_cache,
            "GeckoFTL (gecko, big cache)",
        ),
    ];
    for (kind, cache, label) in cases {
        let cfg = FtlConfig {
            cache_entries: cache,
            // The paper gives DFTL and µ-FTL GeckoFTL's GC scheme here.
            gc_policy: GcPolicy::MetadataAware,
            recovery: match kind {
                BaselineKind::GeckoFtl => RecoveryPolicy::CheckpointDeferred,
                _ => RecoveryPolicy::Battery,
            },
            qos_headroom_blocks: 0,
        };
        let mut engine = build_with(kind, geo, cfg);
        let d = measure_uniform(&mut engine, 60_000, 14);
        let b = d.wa_breakdown(10.0);
        t.row(vec![
            label.into(),
            cache.to_string(),
            f3(b.user),
            f3(b.translation),
            f3(b.validity),
            f3(b.total()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn geckoftl_gets_best_of_both_worlds() {
        let tables = super::run(&Default::default());
        let rows = &tables[0].rows;
        let get = |i: usize, col: usize| -> f64 { rows[i][col].parse().unwrap() };
        let (dftl, mu, gecko) = (0, 1, 2);
        // DFTL: no validity IO, but high translation overhead (small cache).
        assert!(get(dftl, 4) < 0.05);
        // Big-cache FTLs amortize synchronization far better.
        assert!(
            get(mu, 3) < get(dftl, 3) / 2.0,
            "µ-FTL translation must drop"
        );
        assert!(
            get(gecko, 3) < get(dftl, 3) / 2.0,
            "GeckoFTL translation must drop"
        );
        // µ-FTL pays for its flash PVB; GeckoFTL doesn't.
        assert!(get(mu, 4) > 0.5);
        assert!(get(gecko, 4) < get(mu, 4) / 5.0);
        // Net: GeckoFTL has the lowest total WA.
        assert!(get(gecko, 5) < get(mu, 5));
        assert!(get(gecko, 5) < get(dftl, 5));
    }
}
