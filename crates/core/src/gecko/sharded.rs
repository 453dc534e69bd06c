//! The Logarithmic Gecko validity store: `shards` independent [`LogGecko`]
//! trees, with block `b` owned by shard `b % shards`. `shards == 1` is the
//! paper's single tree; it is the same code path, not a separate backend.
//!
//! The shard function partitions the *keys* (user blocks), not the flash
//! pages a tree touches: every shard's run pages are appended to the same
//! active metadata block, so a shard is not pinned to a channel, and all
//! IO is charged serially on the simulated clock. What sharding buys is
//! independence — per-shard buffers, flush cadence, watermarks and merge
//! queues — and smaller trees (see `docs/CONCURRENCY.md`).
//!
//! Every operation routes to exactly one shard (invalidations, erases, GC
//! queries are all per-block), so shard trees never share state and every
//! shard count is *logically* equivalent: the same queries return the same
//! bitmaps. Physical layout differs — each shard flushes and merges on its
//! own cadence — which is why the equivalence property tests compare query
//! bits and settled invariants, not bytes (`tests/sharded.rs`).
//!
//! A batch of reports (one synchronization's before-images) is not split
//! into per-shard lists: shard by shard, each tree buffers the pages it owns
//! straight from the caller's slice, in the caller's order, and then checks
//! its flush threshold once.

use super::{Bitmap, GeckoConfig, GeckoStats, LogGecko, Run};
use crate::validity::{MetaSink, ValidityStore};
use flash_sim::{BlockId, FlashDevice, Geometry, IoPurpose, Ppn};
use std::collections::HashMap;

/// The shard function: block `b` of a store of `shards` trees belongs to tree
/// `b % shards`.
pub(crate) fn shard_index(block: BlockId, shards: usize) -> usize {
    (block.0 % shards as u32) as usize
}

/// The Gecko-family validity store: `shards` independent [`LogGecko`] trees.
#[derive(Debug)]
pub struct ShardedGecko {
    shards: Vec<LogGecko>,
    geo: Geometry,
}

impl ShardedGecko {
    /// Create `cfg.shards` empty trees. Each tree uses the full-device
    /// geometry for entry sizing (entries look the same at every shard
    /// count); only the key population is partitioned.
    pub fn new(geo: Geometry, cfg: GeckoConfig) -> Self {
        cfg.validate(&geo);
        let shards = (0..cfg.shards.max(1))
            .map(|_| LogGecko::new(geo, cfg))
            .collect();
        ShardedGecko { shards, geo }
    }

    /// Reassemble from per-shard recovered trees (recovery partitions the
    /// run candidates by shard before rebuilding each tree).
    pub fn from_shards(geo: Geometry, shards: Vec<LogGecko>) -> Self {
        assert!(!shards.is_empty(), "a sharded store needs at least 1 shard");
        ShardedGecko { shards, geo }
    }

    /// The shard owning `block`: `block % shards`.
    pub fn shard_of(&self, block: BlockId) -> usize {
        shard_index(block, self.shards.len())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard trees, in shard order.
    pub fn shard_trees(&self) -> &[LogGecko] {
        &self.shards
    }

    /// Configuration in effect (identical across shards).
    pub fn config(&self) -> GeckoConfig {
        self.shards[0].config()
    }

    /// Lifetime counters summed over all shards.
    pub fn stats(&self) -> GeckoStats {
        let mut total = GeckoStats::default();
        for s in &self.shards {
            total.buffer_inserts += s.stats.buffer_inserts;
            total.flushes += s.stats.flushes;
            total.merges += s.stats.merges;
            total.queries += s.stats.queries;
            total.entries_dropped += s.stats.entries_dropped;
            total.bloom_skips += s.stats.bloom_skips;
            total.fence_probes += s.stats.fence_probes;
            total.merge_pages_stepped += s.stats.merge_pages_stepped;
            total.merge_stall_drains += s.stats.merge_stall_drains;
        }
        total
    }

    /// The conservative flush watermark: the *oldest* shard flush. Recovery
    /// must replay host activity from the point where the *least* advanced
    /// shard last emptied its buffer, so the aggregate watermark is the
    /// minimum — any shard with a newer watermark simply re-absorbs
    /// duplicates idempotently.
    pub fn last_flush_seq(&self) -> u64 {
        self.shards
            .iter()
            .map(LogGecko::last_flush_seq)
            .min()
            .unwrap_or(0)
    }

    /// The *durable watermark*, `newest` being the seq of the device's
    /// newest write: the reports of every translation-page version written
    /// at or before it are on flash. It is the minimum over shards of the
    /// last flush, where a shard with an empty buffer counts as flushed at
    /// `newest` — it holds no report at all. The engine releases protections
    /// and bounds the version chain against it, keeping the maximum it has
    /// seen (a report made later cannot make an earlier one volatile again);
    /// recovery, which cannot see buffers, keeps the persisted
    /// [`ShardedGecko::last_flush_seq`] (DESIGN.md invariant 6).
    pub fn durable_watermark(&self, newest: u64) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                if s.buffer_len() == 0 {
                    newest
                } else {
                    s.last_flush_seq()
                }
            })
            .min()
            .unwrap_or(newest)
    }

    /// Per-shard flush watermarks, in shard order (recovery uses these to
    /// bound each shard's buffer-refill window independently).
    pub fn shard_flush_seqs(&self) -> Vec<u64> {
        self.shards.iter().map(LogGecko::last_flush_seq).collect()
    }

    /// Total entries buffered across all shards.
    pub fn buffer_len(&self) -> usize {
        self.shards.iter().map(LogGecko::buffer_len).sum()
    }

    /// All live runs of every shard (no global order guarantee — data-age
    /// order is only meaningful within a shard).
    pub fn all_runs(&self) -> impl Iterator<Item = &Run> {
        self.shards.iter().flat_map(LogGecko::runs_newest_first)
    }

    /// Advance every shard's pending merge work by one bounded slice each
    /// (so one call costs up to `shards × budget` page-IOs, charged
    /// serially). Returns `true` while any shard has work left.
    pub fn pump_merges(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        budget: u64,
    ) -> bool {
        let mut more = false;
        for s in &mut self.shards {
            more |= s.pump_merges(dev, sink, budget);
        }
        more
    }

    /// Run all shards' pending merge work to completion (quiescence for
    /// shutdown/recovery/tests). Delegates to each shard's drain, which
    /// owns the forced-stall accounting.
    pub fn drain_merges(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        for s in &mut self.shards {
            s.drain_merges(dev, sink);
        }
    }

    /// Pending incremental merge work across all shards, in page-IOs.
    pub fn merge_backlog_pages(&self) -> u64 {
        self.shards.iter().map(LogGecko::merge_backlog_pages).sum()
    }

    /// Merge jobs queued or in flight across all shards.
    pub fn merge_jobs_pending(&self) -> usize {
        self.shards.iter().map(LogGecko::merge_jobs_pending).sum()
    }

    /// Unsealed merge-output pages across all shards (crash-orphan count).
    pub fn unsealed_merge_pages(&self) -> u64 {
        self.shards.iter().map(LogGecko::unsealed_merge_pages).sum()
    }

    /// BVC recovery scan: union of every shard's full-bitmap scan (see
    /// [`LogGecko::scan_all_bitmaps`]). Shards partition the block space, so
    /// the per-shard maps are disjoint.
    pub fn scan_all_bitmaps(
        &mut self,
        dev: &mut FlashDevice,
        purpose: IoPurpose,
    ) -> HashMap<BlockId, Bitmap> {
        let mut all = HashMap::new();
        for s in &mut self.shards {
            all.extend(s.scan_all_bitmaps(dev, purpose));
        }
        all
    }

    /// Seed the owning shard's buffer with a recovered erase marker.
    pub fn recover_erase_marker(&mut self, block: BlockId) {
        let shard = self.shard_of(block);
        self.shards[shard].recover_erase_marker(block);
    }

    /// Seed the owning shard's buffer with a recovered invalidation.
    pub fn recover_invalidation(&mut self, ppn: Ppn) {
        let shard = self.shard_of(self.geo.block_of(ppn));
        self.shards[shard].recover_invalidation(ppn);
    }
}

/// The family's one [`ValidityStore`] implementation.
impl ValidityStore for ShardedGecko {
    /// Report an invalidated physical page to its owning shard.
    fn mark_invalid(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, ppn: Ppn) {
        let shard = self.shard_of(self.geo.block_of(ppn));
        self.shards[shard].mark_invalid(dev, sink, ppn);
    }

    fn mark_invalid_batch(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, ppns: &[Ppn]) {
        // Shard by shard, each tree takes its pages straight from the
        // caller's slice, in the caller's order, and checks its flush
        // threshold once after the last: the no-straddled-flush guarantee
        // holds *within* each shard (each shard flushes on its own fill, so
        // cross-shard atomicity is not a meaningful notion here), and a
        // shard that owns none of the pages is left alone.
        let (geo, n) = (self.geo, self.shards.len());
        for (shard, tree) in self.shards.iter_mut().enumerate() {
            let owned = ppns
                .iter()
                .copied()
                .filter(|&ppn| shard_index(geo.block_of(ppn), n) == shard);
            tree.mark_invalid_batch(dev, sink, owned);
        }
    }

    /// Report an erased block to its owning shard.
    fn note_erase(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, block: BlockId) {
        let shard = self.shard_of(block);
        self.shards[shard].note_erase(dev, sink, block);
    }

    /// GC query, routed to the owning shard.
    fn gc_query(
        &mut self,
        dev: &mut FlashDevice,
        _sink: &mut dyn MetaSink,
        block: BlockId,
    ) -> Bitmap {
        let shard = self.shard_of(block);
        self.shards[shard].gc_query(dev, block)
    }

    /// Integrated-RAM footprint: sum of the shard trees'.
    fn ram_bytes(&self) -> u64 {
        self.shards.iter().map(LogGecko::ram_bytes).sum()
    }

    /// Flush every shard's buffer. Shards flush independently in steady
    /// state (each tracks its own fill); this forces all of them, for
    /// shutdown/checkpoint quiescence.
    fn flush(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        for s in &mut self.shards {
            s.flush(dev, sink);
        }
    }
}
