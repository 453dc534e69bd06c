//! Closed-form cost model for Logarithmic Gecko (paper §3.2, Table 1).
//!
//! | Technique          | Update (R, W)            | GC query (R)      | RAM          |
//! |--------------------|--------------------------|-------------------|--------------|
//! | RAM-resident PVB   | 0, 0                     | 0                 | O(B·K) bits  |
//! | Flash-resident PVB | 1, 1                     | 1                 | O(B·K/P)     |
//! | Logarithmic Gecko  | O(T/V·log_T(K/V)) each   | O(log_T(K/V))     | O(B·K/P)     |
//!
//! These formulas drive the Table-1 reproduction and the analytical curves
//! of Figure 11 (capacity scaling and the ≈2¹⁰⁰ crossover claim).

use crate::gecko::config::GeckoConfig;
use flash_sim::Geometry;

/// Analytical cost model for a Logarithmic Gecko configuration.
#[derive(Clone, Copy, Debug)]
pub struct GeckoCostModel {
    /// Tuning in effect.
    pub cfg: GeckoConfig,
    /// Device geometry.
    pub geo: Geometry,
}

impl GeckoCostModel {
    /// Build a model for a geometry with its paper-default tuning.
    pub fn paper_default(geo: Geometry) -> Self {
        GeckoCostModel {
            cfg: GeckoConfig::paper_default(&geo),
            geo,
        }
    }

    /// `L`: number of levels.
    pub fn levels(&self) -> f64 {
        self.cfg.levels(&self.geo) as f64
    }

    /// Amortized flash *reads* per update: `(T/V) · log_T(K·S/V)`.
    pub fn update_reads(&self) -> f64 {
        self.cfg.size_ratio as f64 / self.cfg.entries_per_page(&self.geo) as f64 * self.levels()
    }

    /// Amortized flash *writes* per update (same form as reads).
    pub fn update_writes(&self) -> f64 {
        self.update_reads()
    }

    /// Flash reads per GC query: one per level.
    pub fn query_reads(&self) -> f64 {
        self.levels()
    }

    /// Amortized write-amplification contribution of one update at
    /// write/read cost ratio `delta`: `w + r/δ` (paper §5 metric).
    pub fn update_wa(&self, delta: f64) -> f64 {
        self.update_writes() + self.update_reads() / delta
    }

    /// Expected WA contribution of page-validity maintenance per logical
    /// write, given the expected number of GC operations per logical write
    /// (`gc_per_write`, a function of over-provisioning).
    ///
    /// Each logical write eventually invalidates one page (one update);
    /// each GC operation issues one query plus `S` erase-marker inserts.
    pub fn validity_wa(&self, delta: f64, gc_per_write: f64) -> f64 {
        let erase_inserts = self.cfg.partitions as f64;
        self.update_wa(delta)
            + gc_per_write * (self.query_reads() / delta + erase_inserts * self.update_wa(delta))
    }

    /// Total flash space occupied by Logarithmic Gecko in bytes, bounded by
    /// ≈2× the largest run (§3.2 space-amplification ≤ 2).
    pub fn flash_bytes(&self) -> u64 {
        let entry_bytes = (self.cfg.bits_per_entry(&self.geo) as u64).div_ceil(8);
        2 * self.cfg.max_entries(&self.geo) * entry_bytes
    }
}

/// Cost model for a flash-resident PVB (the paper's baseline): one page read
/// + one page write per update, one read per GC query.
#[derive(Clone, Copy, Debug)]
pub struct FlashPvbCostModel;

impl FlashPvbCostModel {
    /// WA contribution of one update: `1 + 1/δ`.
    pub fn update_wa(delta: f64) -> f64 {
        1.0 + 1.0 / delta
    }

    /// WA contribution of page-validity maintenance per logical write.
    pub fn validity_wa(delta: f64, gc_per_write: f64) -> f64 {
        Self::update_wa(delta) + gc_per_write / delta
    }
}

/// The capacity factor at which flash-PVB catches up with Logarithmic Gecko:
/// solves for the K-multiplier `x` where gecko's logarithmic update cost
/// equals PVB's constant cost (Figure 11's "≈2¹⁰⁰" claim). Returns
/// `log2(x)` so the result stays representable. `δ` cancels out of both
/// sides, so the crossover does not depend on it.
pub fn crossover_capacity_log2(model: &GeckoCostModel) -> f64 {
    // update_wa grows with levels: (T/V)(1 + 1/δ) · L(K).
    // Crossover when (T/V)(1+1/δ)·L = (1+1/δ)  ⇔  L = V/T.
    // L = log_T(K·S/V) = V/T  ⇔  K·S/V = T^(V/T).
    let v = model.cfg.entries_per_page(&model.geo) as f64;
    let t = model.cfg.size_ratio as f64;
    let target_levels = v / t;
    let current_levels = model.levels();
    // Each extra level multiplies K by T; log2 of the required multiplier:
    (target_levels - current_levels) * t.log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_cost_is_subconstant() {
        let m = GeckoCostModel::paper_default(Geometry::paper_2tb());
        // "each update costs a small fraction of a flash read and write"
        assert!(
            m.update_writes() < 0.2,
            "update writes = {}",
            m.update_writes()
        );
        assert!(m.update_wa(10.0) < FlashPvbCostModel::update_wa(10.0));
    }

    #[test]
    fn query_cost_is_logarithmic() {
        let small = GeckoCostModel::paper_default(Geometry::paper_scaled(1 << 12));
        let big = GeckoCostModel::paper_default(Geometry::paper_scaled(1 << 22));
        assert!(big.query_reads() > small.query_reads());
        // 1024× more blocks at T=2 adds exactly 10 levels.
        assert!((big.query_reads() - small.query_reads() - 10.0).abs() < 1.5);
    }

    #[test]
    fn crossover_is_absurdly_far() {
        let m = GeckoCostModel::paper_default(Geometry::paper_2tb());
        let log2x = crossover_capacity_log2(&m);
        // The paper reports capacity must grow by ≈2^100 for PVB to win.
        assert!(log2x > 60.0, "crossover at 2^{log2x}");
    }

    #[test]
    fn higher_t_means_fewer_levels_costlier_updates() {
        let geo = Geometry::paper_2tb();
        let t2 = GeckoCostModel {
            cfg: GeckoConfig {
                size_ratio: 2,
                ..GeckoConfig::paper_default(&geo)
            },
            geo,
        };
        let t8 = GeckoCostModel {
            cfg: GeckoConfig {
                size_ratio: 8,
                ..GeckoConfig::paper_default(&geo)
            },
            geo,
        };
        assert!(t8.query_reads() < t2.query_reads());
        assert!(t8.update_wa(10.0) > t2.update_wa(10.0));
    }

    #[test]
    fn space_is_linear_in_blocks() {
        let geo = Geometry::paper_2tb();
        let m = GeckoCostModel::paper_default(geo);
        // O(B·K) bits ⇒ comparable to PVB's 64 MB, within a small factor.
        let pvb_bytes = geo.total_pages() / 8;
        let ratio = m.flash_bytes() as f64 / pvb_bytes as f64;
        assert!((1.0..8.0).contains(&ratio), "ratio = {ratio}");
    }
}
