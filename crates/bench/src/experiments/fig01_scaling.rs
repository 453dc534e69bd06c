//! Figure 1: LazyFTL's integrated-RAM requirement and recovery time as
//! device capacity grows (the paper's motivation figure). Pure model, at
//! full paper scale, exactly as the paper derives it.

use super::RunOptions;
use crate::report::{human_bytes, Table};
use ftl_baselines::BaselineKind;
use ftl_models::capacity_sweep;

/// Run the Figure-1 sweep: 8 GB → 16 TB.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 1 — LazyFTL RAM requirement and recovery time vs device capacity",
        &["capacity", "ram", "ram_bytes", "recovery_s"],
    );
    for p in capacity_sweep(BaselineKind::LazyFtl, 1 << 14, 1 << 25) {
        t.row(vec![
            human_bytes(p.capacity_bytes),
            human_bytes(p.ram_bytes),
            p.ram_bytes.to_string(),
            format!("{:.1}", p.recovery_seconds),
        ]);
    }

    let mut g = Table::new(
        "Figure 1 (companion) — the same sweep for GeckoFTL",
        &["capacity", "ram", "ram_bytes", "recovery_s"],
    );
    for p in capacity_sweep(BaselineKind::GeckoFtl, 1 << 14, 1 << 25) {
        g.row(vec![
            human_bytes(p.capacity_bytes),
            human_bytes(p.ram_bytes),
            p.ram_bytes.to_string(),
            format!("{:.1}", p.recovery_seconds),
        ]);
    }
    vec![t, g]
}

#[cfg(test)]
mod tests {
    #[test]
    fn produces_monotone_curves() {
        let tables = super::run(&Default::default());
        assert_eq!(tables.len(), 2);
        let ram: Vec<u64> = tables[0]
            .rows
            .iter()
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(ram.windows(2).all(|w| w[1] > w[0]));
    }
}
