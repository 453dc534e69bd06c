//! Tuning knobs of Logarithmic Gecko (paper §3.2–3.3, Figure 2 terms).

use flash_sim::Geometry;

/// Size of a Gecko key in bytes: a block ID, 4 in the paper. Sizes entries
/// ([`GeckoConfig::bits_per_entry`]) and the §3.3 partitioning rule.
pub const KEY_BYTES: u32 = 4;

/// Configuration of a [`crate::gecko::ShardedGecko`] store and its
/// per-shard [`crate::gecko::LogGecko`] trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeckoConfig {
    /// `T`: size ratio between runs at adjacent levels. Controls the
    /// update-cost vs query-cost trade-off; minimum (and, per §5.1, optimal)
    /// value is 2.
    pub size_ratio: u32,
    /// `S`: entry-partitioning factor (§3.3). Each block's B-bit bitmap is
    /// split into S sub-entries of B/S bits. Must divide the block size.
    pub partitions: u32,
    /// Whether merges use the multi-way policy of Appendix A (merge all
    /// cascading runs at once) instead of recursive two-way merges.
    pub multiway_merge: bool,
    /// Bytes reserved per run page for an in-page header. A run page holds
    /// only its entries: its spare area describes the run and the page
    /// ([`flash_sim::MetaTag::Run`]), so the header holds no pre- or
    /// postamble (Appendix C.1).
    pub page_header_bytes: u32,
    /// RAM bits per key for the per-run blocked Bloom filter built at
    /// flush/merge time (see [`crate::gecko::filter`]). 0 disables filters
    /// (the `gecko_query` experiment's baseline: every run covering an open
    /// key is probed); 8 (the default) targets a ≈2–3 % false-positive rate,
    /// letting GC queries skip runs that cannot contain the victim's keys.
    pub bloom_bits_per_key: u32,
    /// Run merges to completion inside the update path (the paper's
    /// behavior). When false — the default — a due merge is enqueued on the
    /// tree's merge-job queue ([`crate::gecko::merge_job`]) and drained
    /// in bounded steps charged to subsequent updates or idle ticks. A flush
    /// does not wait for pending jobs, so the two modes plan *different*
    /// merge sequences (new runs are pushed while older merges are still in
    /// flight); what they share is every query answer and the settled shape
    /// once drained. Kept as the A/B baseline for the `merge_latency`
    /// experiment.
    pub sync_merge: bool,
    /// Page-IO budget (run-page reads + writes) of one incremental merge
    /// step. Each application write piggybacks at most one step per tree.
    /// Ignored when [`GeckoConfig::sync_merge`] is true. Must be ≥ 1.
    pub merge_step_pages: u32,
    /// Number of independent Gecko trees the validity store is split into.
    /// Block `b` belongs to shard `b % shards`; each shard has its own
    /// buffer, flush cadence, watermark and merge queue, and a smaller tree
    /// to query. `1` (the default) is one tree for the whole device — the
    /// paper's layout and the baseline the sharded layouts are
    /// property-tested against. Must be ≥ 1.
    pub shards: u32,
}

impl Default for GeckoConfig {
    /// Geometry-independent defaults: the paper's `T = 2` with multi-way
    /// merging, no entry-partitioning (callers size `S` from the geometry
    /// via [`GeckoConfig::paper_default`]), and Bloom filters on.
    fn default() -> Self {
        GeckoConfig {
            size_ratio: 2,
            partitions: 1,
            multiway_merge: true,
            page_header_bytes: 32,
            bloom_bits_per_key: 8,
            sync_merge: false,
            merge_step_pages: 4,
            shards: 1,
        }
    }
}

impl GeckoConfig {
    /// The paper's recommended tuning for a device geometry: `T = 2`
    /// (Figure 9) and `S = B / key-bits` (§3.3), with multi-way merging.
    pub fn paper_default(geo: &Geometry) -> Self {
        let cfg = GeckoConfig {
            partitions: Self::recommended_partitions(geo),
            ..GeckoConfig::default()
        };
        cfg.validate(geo);
        cfg
    }

    /// The §3.3 tuning rule `S = B / key` (in bits), clamped to a divisor of
    /// B and at least 1.
    pub fn recommended_partitions(geo: &Geometry) -> u32 {
        let key_bits = KEY_BYTES * 8;
        let b = geo.pages_per_block;
        let mut s = (b / key_bits).max(1);
        while !b.is_multiple_of(s) {
            s -= 1;
        }
        s
    }

    /// Panic if this configuration is inconsistent with the geometry.
    pub fn validate(&self, geo: &Geometry) {
        assert!(self.size_ratio >= 2, "size ratio T must be at least 2");
        assert!(
            self.partitions >= 1,
            "partitioning factor S must be at least 1"
        );
        assert_eq!(
            geo.pages_per_block % self.partitions,
            0,
            "S must divide the block size B"
        );
        assert!(
            self.entries_per_page(geo) >= 2,
            "a Gecko page must hold at least two entries (page too small or B/S too large)"
        );
        assert!(
            self.merge_step_pages >= 1,
            "an incremental merge step must make progress (merge_step_pages ≥ 1)"
        );
        assert!(
            self.shards >= 1,
            "the validity store needs at least 1 shard"
        );
        assert!(
            self.shards <= geo.blocks,
            "cannot have more shards than blocks"
        );
    }

    /// Width in bits of one sub-entry's bitmap: `B / S`.
    pub fn sub_bits(&self, geo: &Geometry) -> u32 {
        geo.pages_per_block / self.partitions
    }

    /// Size of one (sub-)entry in bits: key + bitmap slice + erase flag.
    /// The sub-key is packed into the key field's spare high bits, as in the
    /// paper's S=4 example ("a 32 bits key and a 32 bits chunk").
    pub fn bits_per_entry(&self, geo: &Geometry) -> u32 {
        KEY_BYTES * 8 + self.sub_bits(geo) + 1
    }

    /// `V`: number of Gecko entries that fit into one flash page (and hence
    /// into the RAM buffer, whose size is one flash page).
    pub fn entries_per_page(&self, geo: &Geometry) -> u32 {
        let usable_bits = (geo.page_bytes - self.page_header_bytes) * 8;
        usable_bits / self.bits_per_entry(geo)
    }

    /// Maximum number of entries Logarithmic Gecko can hold: one sub-entry
    /// per (block, part).
    pub fn max_entries(&self, geo: &Geometry) -> u64 {
        geo.blocks as u64 * self.partitions as u64
    }

    /// `L = ⌈log_T(max-entries / V)⌉`: number of levels (§3.2).
    pub fn levels(&self, geo: &Geometry) -> u32 {
        let v = self.entries_per_page(geo) as f64;
        let max_pages = (self.max_entries(geo) as f64 / v).max(1.0);
        max_pages.log(self.size_ratio as f64).ceil().max(1.0) as u32
    }

    /// Level a run of `pages` flash pages belongs to: the unique `i` with
    /// `T^i ≤ pages ≤ T^(i+1) − 1` (Figure 2).
    pub fn level_for(&self, pages: u64) -> u32 {
        debug_assert!(pages >= 1);
        let mut level = 0u32;
        let mut bound = self.size_ratio as u64;
        while pages >= bound {
            level += 1;
            bound = bound.saturating_mul(self.size_ratio as u64);
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_tuning_rules() {
        let geo = Geometry::paper_2tb();
        let cfg = GeckoConfig::paper_default(&geo);
        assert_eq!(cfg.size_ratio, 2);
        // B=128, key=32 bits → S = 4, sub-entries of 32 bits (§3.3 example).
        assert_eq!(cfg.partitions, 4);
        assert_eq!(cfg.sub_bits(&geo), 32);
        assert_eq!(cfg.bits_per_entry(&geo), 32 + 32 + 1);
    }

    /// A run page's spare area holds its seq and its tag
    /// ([`flash_sim::MetaTag::Run`]): seq 8 + kind 1 + id 8 + span 16 +
    /// level 1 + page count 4 + two keys of `KEY_BYTES` = 46 bytes, within
    /// the 128 of the paper's 4 KB page (P/32). The 256-byte pages of some
    /// test geometries have 8, below every tag: a simulation convenience.
    #[test]
    fn run_page_spare_tag_fits_the_paper_spare_area() {
        let tag_bytes = 8 + 1 + 8 + 16 + 1 + 4 + 2 * KEY_BYTES;
        assert_eq!(tag_bytes, 46);
        let geo = Geometry::paper_2tb();
        assert_eq!(geo.spare_bytes, 128);
        assert!(tag_bytes <= geo.spare_bytes);
    }

    #[test]
    fn entries_per_page_shrinks_with_block_size() {
        let small_b = Geometry::new(1024, 64, 4096, 0.7);
        let big_b = Geometry::new(1024, 512, 4096, 0.7);
        let unpartitioned = |geo: &Geometry| {
            GeckoConfig {
                size_ratio: 2,
                partitions: 1,
                multiway_merge: true,
                page_header_bytes: 32,
                ..GeckoConfig::default()
            }
            .entries_per_page(geo)
        };
        assert!(unpartitioned(&small_b) > unpartitioned(&big_b));
    }

    #[test]
    fn partitioning_decouples_v_from_block_size() {
        // With S = B/32, bits-per-entry is constant, so V is too (§3.3).
        let mut vs = Vec::new();
        for b in [64, 128, 256, 512] {
            let geo = Geometry::new(1024, b, 4096, 0.7);
            let cfg = GeckoConfig::paper_default(&geo);
            vs.push(cfg.entries_per_page(&geo));
        }
        assert!(
            vs.windows(2).all(|w| w[0] == w[1]),
            "V must be independent of B: {vs:?}"
        );
    }

    #[test]
    fn level_placement_boundaries() {
        let cfg = GeckoConfig {
            size_ratio: 2,
            partitions: 1,
            multiway_merge: true,
            page_header_bytes: 32,
            ..GeckoConfig::default()
        };
        assert_eq!(cfg.level_for(1), 0);
        assert_eq!(cfg.level_for(2), 1);
        assert_eq!(cfg.level_for(3), 1);
        assert_eq!(cfg.level_for(4), 2);
        assert_eq!(cfg.level_for(7), 2);
        assert_eq!(cfg.level_for(8), 3);
        let t4 = GeckoConfig {
            size_ratio: 4,
            ..cfg
        };
        assert_eq!(t4.level_for(1), 0);
        assert_eq!(t4.level_for(3), 0);
        assert_eq!(t4.level_for(4), 1);
        assert_eq!(t4.level_for(15), 1);
        assert_eq!(t4.level_for(16), 2);
    }

    #[test]
    fn level_count_is_logarithmic() {
        let geo = Geometry::paper_2tb();
        let cfg = GeckoConfig::paper_default(&geo);
        let l = cfg.levels(&geo);
        // K·S = 2^24 entries, V ≈ 500 ⇒ ~2^15 pages ⇒ ~15 levels at T=2.
        assert!((10..=20).contains(&l), "levels = {l}");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn validate_rejects_non_divisor_partitions() {
        let geo = Geometry::tiny(); // B = 16
        let cfg = GeckoConfig {
            size_ratio: 2,
            partitions: 3,
            multiway_merge: true,
            page_header_bytes: 32,
            ..GeckoConfig::default()
        };
        cfg.validate(&geo);
    }
}
