//! Integrated-RAM models (paper §2 + Appendix B, Figure 13 top).

use flash_sim::Geometry;
use ftl_baselines::BaselineKind;
use geckoftl_core::gecko::GeckoConfig;

/// One RAM-resident data structure and its size.
#[derive(Clone, Debug, PartialEq)]
pub struct RamComponent {
    /// Structure name as labelled in Figure 13 (top).
    pub name: &'static str,
    /// Size in bytes.
    pub bytes: u64,
}

/// Full RAM breakdown for one FTL.
#[derive(Clone, Debug, PartialEq)]
pub struct RamModel {
    /// Which FTL this models.
    pub ftl: BaselineKind,
    /// Per-structure sizes.
    pub components: Vec<RamComponent>,
}

impl RamModel {
    /// Total integrated RAM in bytes.
    pub fn total(&self) -> u64 {
        self.components.iter().map(|c| c.bytes).sum()
    }

    /// Size of one named component (0 if absent).
    pub fn component(&self, name: &str) -> u64 {
        self.components
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.bytes)
    }
}

/// `TT`: flash-resident translation-table size in bytes (`4·K·B·R`).
pub fn translation_table_bytes(geo: &Geometry) -> u64 {
    geo.translation_table_bytes()
}

/// GMD size: one 4-byte pointer per translation page (`4·TT/P`).
pub fn gmd_bytes(geo: &Geometry) -> u64 {
    4 * (translation_table_bytes(geo).div_ceil(geo.page_bytes as u64))
}

/// RAM-resident PVB size: one bit per physical page (`B·K/8`).
pub fn pvb_bytes(geo: &Geometry) -> u64 {
    geo.total_pages() / 8
}

/// BVC size: 2 bytes per block (Appendix B).
pub fn bvc_bytes(geo: &Geometry) -> u64 {
    2 * geo.blocks as u64
}

/// LRU mapping-cache size: 8 bytes per entry (paper §5 default assumption).
pub fn cache_bytes(cache_entries: u64) -> u64 {
    8 * cache_entries
}

/// `V`: entries in one Gecko flash page under the paper tuning
/// ([`GeckoConfig::paper_default`]).
pub fn gecko_entries_per_page(geo: &Geometry) -> u64 {
    GeckoConfig::paper_default(geo).entries_per_page(geo) as u64
}

/// Flash pages occupied by Logarithmic Gecko: the largest run holds one
/// entry per (block, part); smaller runs at most double it (Appendix B).
pub fn gecko_pages(geo: &Geometry) -> u64 {
    let cfg = GeckoConfig::paper_default(geo);
    let v = cfg.entries_per_page(geo) as u64;
    2 * cfg.max_entries(geo).div_ceil(v)
}

/// Gecko run-directory RAM: two 4-byte words per Gecko page (Appendix B).
pub fn gecko_run_dir_bytes(geo: &Geometry) -> u64 {
    8 * gecko_pages(geo)
}

/// Gecko buffer RAM: the insert buffer plus `L` multi-way-merge input
/// buffers and one output buffer: `P · (2 + L)` (Appendix B).
pub fn gecko_buffer_bytes(geo: &Geometry) -> u64 {
    let levels = GeckoConfig::paper_default(geo).levels(geo) as u64;
    geo.page_bytes as u64 * (2 + levels)
}

/// Flash-PVB segment directory: one 4-byte pointer per PVB flash page.
pub fn flash_pvb_dir_bytes(geo: &Geometry) -> u64 {
    4 * pvb_bytes(geo).div_ceil(geo.page_bytes as u64)
}

/// IB-FTL chain metadata: a chain-head pointer and an erase timestamp per
/// block (Appendix E extension).
pub fn pvl_ram_bytes(geo: &Geometry) -> u64 {
    8 * geo.blocks as u64
}

/// A B-tree-structured translation table keeps only its root resident
/// (µ-FTL, IB-FTL): one page.
pub fn btree_root_bytes(geo: &Geometry) -> u64 {
    geo.page_bytes as u64
}

/// Full RAM model for one FTL at a geometry and cache size.
pub fn ram_model(ftl: BaselineKind, geo: &Geometry, cache_entries: u64) -> RamModel {
    let cache = RamComponent {
        name: "LRU cache",
        bytes: cache_bytes(cache_entries),
    };
    let components = match ftl {
        BaselineKind::Dftl | BaselineKind::LazyFtl => vec![
            RamComponent {
                name: "GMD",
                bytes: gmd_bytes(geo),
            },
            RamComponent {
                name: "PVB",
                bytes: pvb_bytes(geo),
            },
            cache,
        ],
        BaselineKind::MuFtl => vec![
            RamComponent {
                name: "B-tree root",
                bytes: btree_root_bytes(geo),
            },
            RamComponent {
                name: "PVB directory",
                bytes: flash_pvb_dir_bytes(geo),
            },
            RamComponent {
                name: "BVC",
                bytes: bvc_bytes(geo),
            },
            cache,
        ],
        BaselineKind::IbFtl => vec![
            RamComponent {
                name: "B-tree root",
                bytes: btree_root_bytes(geo),
            },
            RamComponent {
                name: "PVL chains",
                bytes: pvl_ram_bytes(geo),
            },
            RamComponent {
                name: "BVC",
                bytes: bvc_bytes(geo),
            },
            cache,
        ],
        BaselineKind::GeckoFtl => vec![
            RamComponent {
                name: "GMD",
                bytes: gmd_bytes(geo),
            },
            RamComponent {
                name: "run directories",
                bytes: gecko_run_dir_bytes(geo),
            },
            RamComponent {
                name: "gecko buffers",
                bytes: gecko_buffer_bytes(geo),
            },
            RamComponent {
                name: "BVC",
                bytes: bvc_bytes(geo),
            },
            cache,
        ],
    };
    RamModel { ftl, components }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn paper() -> Geometry {
        Geometry::paper_2tb()
    }

    /// Cache size in the paper's default configuration: 4 MB / 8 B = 2¹⁹.
    const C: u64 = 1 << 19;

    #[test]
    fn paper_constants() {
        let g = paper();
        // TT ≈ 1.4–1.5 GB, GMD ≈ 1.4 MB, PVB = 64 MB.
        assert!((1_400 * MB..1_500 * MB).contains(&translation_table_bytes(&g)));
        let gmd = gmd_bytes(&g);
        assert!((1_300_000..1_600_000).contains(&gmd), "GMD = {gmd}");
        assert_eq!(pvb_bytes(&g), 64 * MB);
        assert_eq!(cache_bytes(C), 4 * MB);
    }

    #[test]
    fn pvb_dominates_dftl_ram() {
        let m = ram_model(BaselineKind::Dftl, &paper(), C);
        // "PVB accounts for 95% of all RAM-resident metadata" (metadata =
        // everything except the cache, whose size is a free choice).
        let metadata = m.total() - m.component("LRU cache");
        let share = m.component("PVB") as f64 / metadata as f64;
        assert!(share > 0.9, "PVB share = {share:.3}");
    }

    #[test]
    fn geckoftl_reduces_ram_by_95_percent() {
        let g = paper();
        let dftl = ram_model(BaselineKind::Dftl, &g, C);
        let gecko = ram_model(BaselineKind::GeckoFtl, &g, C);
        // Compare the *validity metadata* (the component Gecko replaces):
        // PVB (64 MB) vs run directories + buffers + BVC.
        let dftl_validity = dftl.component("PVB");
        let gecko_validity = gecko.component("run directories")
            + gecko.component("gecko buffers")
            + gecko.component("BVC");
        let reduction = 1.0 - gecko_validity as f64 / dftl_validity as f64;
        assert!(reduction > 0.80, "validity-RAM reduction = {reduction:.3}");
        // And the overall footprint (cache excluded) drops by ≥90 %.
        let dftl_meta = dftl.total() - dftl.component("LRU cache");
        let gecko_meta = gecko.total() - gecko.component("LRU cache");
        assert!(
            (gecko_meta as f64) < 0.25 * dftl_meta as f64,
            "gecko metadata = {gecko_meta}, dftl = {dftl_meta}"
        );
    }

    #[test]
    fn mu_ftl_is_smallest_geckoftl_close_behind() {
        let g = paper();
        let mu = ram_model(BaselineKind::MuFtl, &g, C).total();
        let gecko = ram_model(BaselineKind::GeckoFtl, &g, C).total();
        let dftl = ram_model(BaselineKind::Dftl, &g, C).total();
        let ib = ram_model(BaselineKind::IbFtl, &g, C).total();
        // Paper: µ-FTL slightly smaller than GeckoFTL (B-tree root vs GMD);
        // both far below DFTL/LazyFTL; IB-FTL in between.
        assert!(mu < gecko, "mu = {mu}, gecko = {gecko}");
        assert!(gecko < ib, "gecko = {gecko}, ib = {ib}");
        assert!(ib < dftl, "ib = {ib}, dftl = {dftl}");
        assert!((gecko as f64) < 0.3 * dftl as f64);
    }

    #[test]
    fn bvc_is_bottleneck_for_gecko_and_mu() {
        let g = paper();
        for ftl in [BaselineKind::GeckoFtl, BaselineKind::MuFtl] {
            let m = ram_model(ftl, &g, C);
            let bvc = m.component("BVC");
            let other_meta: u64 = m
                .components
                .iter()
                .filter(|c| c.name != "LRU cache" && c.name != "BVC" && c.name != "GMD")
                .map(|c| c.bytes)
                .sum();
            assert!(
                bvc > other_meta,
                "{:?}: BVC {bvc} vs rest {other_meta}",
                ftl
            );
        }
    }

    #[test]
    fn ram_scales_linearly_with_capacity_for_pvb_ftls() {
        let small = ram_model(BaselineKind::LazyFtl, &Geometry::paper_scaled(1 << 20), C);
        let big = ram_model(BaselineKind::LazyFtl, &Geometry::paper_scaled(1 << 22), C);
        let ratio = (big.total() - big.component("LRU cache")) as f64
            / (small.total() - small.component("LRU cache")) as f64;
        assert!(
            (3.5..4.5).contains(&ratio),
            "4× capacity → ~4× metadata RAM, got {ratio:.2}"
        );
    }
}
