//! Device endurance: the paper's introduction motivates low
//! write-amplification with device *lifetime* — "flash blocks have a limited
//! lifetime with respect to the number of times they have each been
//! overwritten" (§1, §2 idiosyncrasy 3). This experiment runs the same
//! workload on every FTL and reports the erase pressure each design puts on
//! the device, plus the wear spread an Appendix-D leveler (not simulated)
//! would have to even out.

use super::RunOptions;
use crate::harness::{drive, sim_geometry, warm_up_uniform};
use crate::report::{f3, Table};
use ftl_baselines::{build, BaselineKind};

/// Run the endurance comparison.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let geo = sim_geometry();
    let mut t = Table::new(
        "Endurance — erase pressure per FTL for the same 60k-update workload",
        &[
            "FTL",
            "total erases",
            "erases /1k writes",
            "max block erases",
            "mean erases",
            "projected lifetime (×)",
        ],
    );
    let mut baseline_rate = None;
    for kind in BaselineKind::ALL {
        let mut engine = build(kind, geo);
        let mut gen = warm_up_uniform(&mut engine, 99);
        let snap_erases: u64 = geo
            .iter_blocks()
            .map(|b| engine.device().erase_count(b) as u64)
            .sum();
        drive(&mut engine, &mut gen, 60_000);
        let counts: Vec<u64> = geo
            .iter_blocks()
            .map(|b| engine.device().erase_count(b) as u64)
            .collect();
        let total: u64 = counts.iter().sum::<u64>() - snap_erases;
        let max = counts.iter().max().copied().unwrap_or(0);
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let rate = total as f64 / 60.0; // erases per 1k writes
        let lifetime = match baseline_rate {
            None => {
                baseline_rate = Some(rate);
                1.0
            }
            Some(base) => base / rate,
        };
        t.row(vec![
            kind.name().into(),
            total.to_string(),
            f3(rate),
            max.to_string(),
            f3(mean),
            f3(lifetime),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn geckoftl_extends_lifetime_over_flash_pvb() {
        let tables = super::run(&Default::default());
        let rows = &tables[0].rows;
        let rate = |ftl: &str| -> f64 {
            rows.iter().find(|r| r[0] == ftl).unwrap()[2]
                .parse()
                .unwrap()
        };
        // Erase pressure tracks write-amplification: µ-FTL (flash PVB)
        // erases the most; GeckoFTL the least of the flash-validity FTLs.
        assert!(rate("GeckoFTL") < rate("u-FTL"));
        assert!(rate("GeckoFTL") < rate("IB-FTL"));
        assert!(rate("GeckoFTL") <= rate("DFTL") * 1.05);
    }
}
