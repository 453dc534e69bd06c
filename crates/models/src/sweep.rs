//! Capacity sweeps: the data behind Figure 1 ("RAM-resident FTL metadata
//! and recovery time are increasing unsustainably as device capacity
//! grows").

use crate::ram::ram_model;
use crate::recovery::recovery_model;
use flash_sim::Geometry;
use ftl_baselines::BaselineKind;
use geckoftl_core::ftl::FtlConfig;

/// One capacity point of the Figure-1 curves.
#[derive(Clone, Debug, PartialEq)]
pub struct CapacityPoint {
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of blocks (`K`).
    pub blocks: u32,
    /// Total integrated RAM required, in bytes.
    pub ram_bytes: u64,
    /// Recovery time, in seconds.
    pub recovery_seconds: f64,
}

/// Sweep device capacity for one FTL, doubling `K` from `min_blocks` to
/// `max_blocks` while keeping the paper's B, P, R and cache configuration.
///
/// The cache is scaled with capacity at the paper's ratio (2¹⁹ entries per
/// 2 TB, [`FtlConfig::scaled_cache_entries`]) so Figure 1 reflects a
/// constant *fraction* of the logical space.
pub fn capacity_sweep(ftl: BaselineKind, min_blocks: u32, max_blocks: u32) -> Vec<CapacityPoint> {
    let mut out = Vec::new();
    let mut k = min_blocks;
    while k <= max_blocks {
        let geo = Geometry::paper_scaled(k);
        let cache_entries = FtlConfig::scaled_cache_entries(&geo) as u64;
        let ram = ram_model(ftl, &geo, cache_entries);
        let rec = recovery_model(ftl, &geo, cache_entries);
        out.push(CapacityPoint {
            capacity_bytes: geo.physical_bytes(),
            blocks: k,
            ram_bytes: ram.total(),
            recovery_seconds: rec.total_seconds(),
        });
        if k > max_blocks / 2 {
            break;
        }
        k *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_shape_for_lazyftl() {
        // 64 GB → 8 TB sweep.
        let pts = capacity_sweep(BaselineKind::LazyFtl, 1 << 17, 1 << 24);
        assert!(pts.len() >= 7);
        // Monotonic growth in both metrics.
        for w in pts.windows(2) {
            assert!(w[1].ram_bytes > w[0].ram_bytes);
            assert!(w[1].recovery_seconds > w[0].recovery_seconds);
        }
        // "integrated RAM reemerges as a dominant cost for low-end devices
        // at capacities of ≈128 GB, at which point 4 MB of SRAM are needed"
        let at_128gb = pts
            .iter()
            .find(|p| p.capacity_bytes == 1 << 37)
            .expect("128 GB point");
        assert!(
            (3 * (1 << 20)..16 * (1 << 20)).contains(&at_128gb.ram_bytes),
            "RAM at 128 GB = {} MB",
            at_128gb.ram_bytes >> 20
        );
        // "recovery time becomes impractical at ≈2 TB, at which point
        // recovery takes tens of seconds."
        let at_2tb = pts
            .iter()
            .find(|p| p.capacity_bytes == 1 << 41)
            .expect("2 TB point");
        assert!(
            (10.0..120.0).contains(&at_2tb.recovery_seconds),
            "recovery at 2 TB = {:.1} s",
            at_2tb.recovery_seconds
        );
    }

    #[test]
    fn geckoftl_flattens_both_curves() {
        let lazy = capacity_sweep(BaselineKind::LazyFtl, 1 << 20, 1 << 23);
        let gecko = capacity_sweep(BaselineKind::GeckoFtl, 1 << 20, 1 << 23);
        for (l, g) in lazy.iter().zip(&gecko) {
            assert!(g.ram_bytes < l.ram_bytes / 2, "RAM at {} blocks", l.blocks);
            assert!(
                g.recovery_seconds < l.recovery_seconds,
                "recovery at {} blocks",
                l.blocks
            );
        }
    }
}
