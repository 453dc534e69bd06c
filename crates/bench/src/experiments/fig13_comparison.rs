//! Figure 13: the full five-FTL comparison — integrated RAM (top), recovery
//! time (middle) and write-amplification decomposition (bottom).
//!
//! RAM and recovery panels are analytical at the paper's 2 TB scale (as in
//! the paper); the WA panel replays one recorded uniform-update trace
//! against all five simulated FTLs.

use super::RunOptions;
use crate::harness::{measure_uniform, sim_geometry};
use crate::report::{f3, human_bytes, Table};
use flash_sim::Geometry;
use ftl_baselines::{build, BaselineKind};
use ftl_models::{ram_model, recovery_model};

const PAPER_CACHE: u64 = 1 << 19;

/// Run the three Figure-13 panels.
pub fn run(_: &RunOptions) -> Vec<Table> {
    let paper = Geometry::paper_2tb();

    // ---- Top: integrated RAM by structure (2 TB, model). ----------------
    let mut ram = Table::new(
        "Figure 13 (top) — integrated RAM by data structure, 2 TB device",
        &["FTL", "structure", "bytes", "human"],
    );
    let mut ram_total = Table::new(
        "Figure 13 (top, totals) — integrated RAM per FTL",
        &["FTL", "total_bytes", "human", "battery"],
    );
    for kind in BaselineKind::ALL {
        let m = ram_model(kind, &paper, PAPER_CACHE);
        for c in &m.components {
            ram.row(vec![
                kind.name().into(),
                c.name.into(),
                c.bytes.to_string(),
                human_bytes(c.bytes),
            ]);
        }
        ram_total.row(vec![
            kind.name().into(),
            m.total().to_string(),
            human_bytes(m.total()),
            if kind.needs_battery() { "yes" } else { "no" }.into(),
        ]);
    }

    // ---- Middle: recovery time by step (2 TB, model). -------------------
    let mut rec = Table::new(
        "Figure 13 (middle) — recovery time by step, 2 TB device (battery FTLs skip dirty-entry sync)",
        &["FTL", "step", "seconds"],
    );
    let mut rec_total = Table::new(
        "Figure 13 (middle, totals) — recovery seconds per FTL",
        &["FTL", "seconds", "battery"],
    );
    for kind in BaselineKind::ALL {
        let m = recovery_model(kind, &paper, PAPER_CACHE);
        for c in &m.components {
            rec.row(vec![kind.name().into(), c.name.into(), f3(c.seconds())]);
        }
        rec_total.row(vec![
            kind.name().into(),
            f3(m.total_seconds()),
            if kind.needs_battery() { "yes" } else { "no" }.into(),
        ]);
    }

    // ---- Bottom: simulated WA decomposition (identical trace). ----------
    let geo = sim_geometry();
    let mut wa = Table::new(
        "Figure 13 (bottom) — write-amplification by category (uniform updates, simulated)",
        &["FTL", "user", "translation", "validity", "total"],
    );
    for kind in BaselineKind::ALL {
        let mut engine = build(kind, geo);
        let d = measure_uniform(&mut engine, 60_000, 77);
        let b = d.wa_breakdown(10.0);
        wa.row(vec![
            kind.name().into(),
            f3(b.user),
            f3(b.translation),
            f3(b.validity),
            f3(b.total()),
        ]);
    }

    vec![ram_total, ram, rec_total, rec, wa]
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn headline_claims_hold() {
        let tables = super::run(&Default::default());
        let ram_total = &tables[0];
        let rec_total = &tables[2];
        let wa = &tables[4];

        let ram_of = |n: &str| -> u64 {
            ram_total.rows.iter().find(|r| r[0] == n).unwrap()[1]
                .parse()
                .unwrap()
        };
        // GeckoFTL and µ-FTL far below DFTL/LazyFTL on RAM.
        assert!(ram_of("GeckoFTL") < ram_of("DFTL") / 3);
        assert!(ram_of("u-FTL") <= ram_of("GeckoFTL"));

        let rec_of = |n: &str| -> f64 {
            rec_total.rows.iter().find(|r| r[0] == n).unwrap()[1]
                .parse()
                .unwrap()
        };
        // ≥51 % recovery reduction vs LazyFTL, without a battery.
        assert!(rec_of("GeckoFTL") < 0.49 * rec_of("LazyFTL"));

        let wa_of = |n: &str, col: usize| -> f64 {
            wa.rows.iter().find(|r| r[0] == n).unwrap()[col]
                .parse()
                .unwrap()
        };
        // µ-FTL has the highest validity WA; GeckoFTL is far lower.
        assert!(wa_of("u-FTL", 3) > 5.0 * wa_of("GeckoFTL", 3));
        // RAM-PVB FTLs have ~zero validity WA.
        assert!(wa_of("DFTL", 3) < 0.05);
        // Restricted-dirty FTLs pay more translation WA than battery FTLs.
        assert!(wa_of("LazyFTL", 2) > wa_of("DFTL", 2));
        // GeckoFTL's total is the lowest of the flash-validity FTLs.
        assert!(wa_of("GeckoFTL", 4) < wa_of("u-FTL", 4));
        assert!(wa_of("GeckoFTL", 4) < wa_of("IB-FTL", 4));
    }
}
