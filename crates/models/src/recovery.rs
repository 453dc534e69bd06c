//! Recovery-time models (paper §2, §4.3, Appendix C; Figure 13 middle).
//!
//! Recovery cost is a sum of per-structure rebuild steps, each a count of
//! spare reads (3 µs), page reads (100 µs) and page writes (1 ms). Battery-
//! backed FTLs skip the steps their battery pre-pays (annotated so figures
//! can show the "battery" tags of Figure 13).

use crate::ram::{gecko_entries_per_page, gecko_pages, pvb_bytes, translation_table_bytes};
use flash_sim::{Geometry, LatencyModel};
use ftl_baselines::BaselineKind;
use geckoftl_core::ftl::RESTRICTED_DIRTY_FRACTION;

/// One recovery step in the model.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryComponent {
    /// Step name as labelled in Figure 13 (middle).
    pub name: &'static str,
    /// Spare-area reads.
    pub spare_reads: u64,
    /// Full page reads.
    pub page_reads: u64,
    /// Full page writes.
    pub page_writes: u64,
}

impl RecoveryComponent {
    /// Simulated seconds under the paper's latency model.
    pub fn seconds(&self) -> f64 {
        let lat = LatencyModel::paper();
        (self.spare_reads as f64 * lat.spare_read_us
            + self.page_reads as f64 * lat.page_read_us
            + self.page_writes as f64 * lat.page_write_us)
            / 1e6
    }
}

/// Full recovery model for one FTL.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryModel {
    /// Which FTL this models.
    pub ftl: BaselineKind,
    /// Steps in execution order.
    pub components: Vec<RecoveryComponent>,
}

impl RecoveryModel {
    /// Total recovery time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.components.iter().map(RecoveryComponent::seconds).sum()
    }

    /// Seconds spent in one named step (0 if absent).
    pub fn component_seconds(&self, name: &str) -> f64 {
        self.components
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, RecoveryComponent::seconds)
    }
}

/// Number of translation pages (live versions) in the device.
fn translation_pages(geo: &Geometry) -> u64 {
    translation_table_bytes(geo).div_ceil(geo.page_bytes as u64)
}

/// The brute-force alternative the paper rules out (§2): scanning every
/// spare area in the device — ≈26 minutes at 2 TB.
pub fn brute_force_scan_seconds(geo: &Geometry) -> f64 {
    geo.total_pages() as f64 * LatencyModel::paper().spare_read_us / 1e6
}

/// Recovery model for one FTL at a geometry with an LRU cache of
/// `cache_entries` (`C`) entries, of which the restricted-dirty FTLs keep at
/// most [`RESTRICTED_DIRTY_FRACTION`] dirty.
pub fn recovery_model(ftl: BaselineKind, geo: &Geometry, cache_entries: u64) -> RecoveryModel {
    let k = geo.blocks as u64;
    let tpages = translation_pages(geo);
    let mut components = Vec::new();

    // Step shared by all FTLs: classify every block (BID-style init scan).
    components.push(RecoveryComponent {
        name: "init scan",
        spare_reads: k,
        page_reads: 0,
        page_writes: 0,
    });

    // Rebuilding the translation directory (GMD or B-tree root): scan the
    // spare areas of all pages in translation blocks (live + stale ≈ 2×).
    components.push(RecoveryComponent {
        name: "translation",
        spare_reads: 2 * tpages,
        page_reads: 0,
        page_writes: 0,
    });

    match ftl {
        BaselineKind::Dftl => {
            // Battery persisted PVB at shutdown; read it back from flash.
            components.push(RecoveryComponent {
                name: "PVB",
                spare_reads: 0,
                page_reads: pvb_bytes(geo).div_ceil(geo.page_bytes as u64),
                page_writes: 0,
            });
            // Dirty entries: battery → free.
        }
        BaselineKind::LazyFtl => {
            // Rebuild the RAM PVB by scanning the whole translation table.
            components.push(RecoveryComponent {
                name: "PVB",
                spare_reads: 0,
                page_reads: tpages,
                page_writes: 0,
            });
            // Synchronize the ≤ f·C dirty entries before resuming: each is
            // a translation-page read-modify-write.
            let dirty = (cache_entries as f64 * RESTRICTED_DIRTY_FRACTION) as u64;
            components.push(RecoveryComponent {
                name: "LRU cache",
                spare_reads: 0,
                page_reads: dirty,
                page_writes: dirty,
            });
        }
        BaselineKind::MuFtl => {
            // PVB already in flash; rebuild BVC by reading it once.
            components.push(RecoveryComponent {
                name: "validity metadata",
                spare_reads: 0,
                page_reads: pvb_bytes(geo).div_ceil(geo.page_bytes as u64),
                page_writes: 0,
            });
            // Dirty entries: battery → free.
        }
        BaselineKind::IbFtl => {
            // Scan the entire page validity log (size bounded to 2·D
            // entries by cleaning) to rebuild chain heads and BVC.
            let entries_per_page = (geo.page_bytes as u64 - 32) / 16;
            let log_pages = (2 * geo.overprovisioned_pages()).div_ceil(entries_per_page);
            components.push(RecoveryComponent {
                name: "validity metadata",
                spare_reads: 0,
                page_reads: log_pages,
                page_writes: 0,
            });
            let dirty = (cache_entries as f64 * RESTRICTED_DIRTY_FRACTION) as u64;
            components.push(RecoveryComponent {
                name: "LRU cache",
                spare_reads: 0,
                page_reads: dirty,
                page_writes: dirty,
            });
        }
        BaselineKind::GeckoFtl => {
            // Run directories: spare-scan the Gecko pages + read one
            // postamble per run (≈ L pages), the paper's App. C.1. The
            // engine reads no page here: each page's spare area carries its
            // run's span, level and page count and its own key range, which
            // decide liveness and rebuild the directories. Its spare scan
            // covers every written Gecko page, merged-away runs included, so
            // it can exceed `gpages` (ROADMAP item 8).
            let gpages = gecko_pages(geo);
            components.push(RecoveryComponent {
                name: "run directories",
                spare_reads: gpages,
                page_reads: 20, // preambles/postambles: one or two per run
                page_writes: 0,
            });
            // Buffer recovery: compare up to 2·V translation pages (C.2.2).
            let v = gecko_entries_per_page(geo);
            components.push(RecoveryComponent {
                name: "gecko buffer",
                spare_reads: v, // before-image spot checks
                page_reads: 2 * v,
                page_writes: 0,
            });
            // BVC: read every live Gecko page once (step 5).
            components.push(RecoveryComponent {
                name: "validity metadata",
                spare_reads: 0,
                page_reads: gpages,
                page_writes: 0,
            });
            // Dirty entries: K recency probes + 2·C backwards-scan spare
            // reads; synchronization deferred (no reads/writes here —
            // that is the paper's headline recovery win). The paper's
            // count: the engine orders the blocks by step 1's BID scan
            // instead of K probes (docs/DESIGN.md, "Deviations").
            components.push(RecoveryComponent {
                name: "LRU cache",
                spare_reads: k + 2 * cache_entries,
                page_reads: 0,
                page_writes: 0,
            });
        }
    }

    RecoveryModel { ftl, components }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: u64 = 1 << 19;

    #[test]
    fn brute_force_takes_about_26_minutes() {
        let g = Geometry::paper_2tb();
        let secs = brute_force_scan_seconds(&g);
        assert!(
            (1500.0..1700.0).contains(&secs),
            "brute force = {secs:.0} s"
        );
    }

    #[test]
    fn lazyftl_pvb_rebuild_takes_about_36_seconds() {
        let g = Geometry::paper_2tb();
        let m = recovery_model(BaselineKind::LazyFtl, &g, C);
        let pvb = m.component_seconds("PVB");
        assert!((33.0..40.0).contains(&pvb), "PVB rebuild = {pvb:.1} s");
    }

    #[test]
    fn unrestricted_sync_would_take_about_7_minutes() {
        // min(C, TT/P) page reads+writes if all dirty entries had to be
        // synchronized before resuming (paper §2).
        let g = Geometry::paper_2tb();
        let lat = LatencyModel::paper();
        let tpages = translation_table_bytes(&g).div_ceil(g.page_bytes as u64);
        let n = C.min(tpages);
        let secs = n as f64 * (lat.page_read_us + lat.page_write_us) / 1e6;
        assert!((380.0..440.0).contains(&secs), "full sync = {secs:.0} s");
    }

    #[test]
    fn geckoftl_recovers_at_least_51_percent_faster_than_lazyftl() {
        let g = Geometry::paper_2tb();
        let lazy = recovery_model(BaselineKind::LazyFtl, &g, C).total_seconds();
        let gecko = recovery_model(BaselineKind::GeckoFtl, &g, C).total_seconds();
        let reduction = 1.0 - gecko / lazy;
        assert!(
            reduction >= 0.51,
            "reduction = {reduction:.3} (lazy {lazy:.1}s, gecko {gecko:.1}s)"
        );
    }

    #[test]
    fn battery_ftls_skip_dirty_entry_recovery() {
        let g = Geometry::paper_2tb();
        for ftl in [BaselineKind::Dftl, BaselineKind::MuFtl] {
            let m = recovery_model(ftl, &g, C);
            assert_eq!(m.component_seconds("LRU cache"), 0.0, "{:?}", ftl);
            assert!(ftl.needs_battery());
        }
    }

    #[test]
    fn init_scan_is_shared_bottleneck() {
        // "the time to initially scan the device ... is emerging as a
        // bottleneck for all FTLs."
        let g = Geometry::paper_2tb();
        for ftl in BaselineKind::ALL {
            let m = recovery_model(ftl, &g, C);
            let scan = m.component_seconds("init scan");
            assert!(
                (12.0..14.0).contains(&scan),
                "{:?}: init scan = {scan:.1} s",
                ftl
            );
        }
    }

    #[test]
    fn recovery_time_grows_with_capacity() {
        let small = recovery_model(BaselineKind::LazyFtl, &Geometry::paper_scaled(1 << 20), C)
            .total_seconds();
        let big = recovery_model(BaselineKind::LazyFtl, &Geometry::paper_scaled(1 << 23), C)
            .total_seconds();
        // The capacity-proportional steps (init scan, PVB rebuild) grow 8×;
        // the constant dirty-entry sync term dampens the total.
        assert!(
            big > 2.0 * small,
            "8× capacity should grow recovery >2×: {small:.1} → {big:.1}"
        );
    }
}
