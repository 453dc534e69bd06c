//! Logarithmic Gecko: the paper's write-optimized, flash-resident replacement
//! for the Page Validity Bitmap (§3).
//!
//! Updates (page invalidations, block erases) are absorbed by a one-page RAM
//! buffer; full buffers are flushed to flash as sorted *runs* organized into
//! levels with exponentially growing sizes, merged LSM-style to keep GC
//! queries at one flash read per run. Erases are handled with a one-bit erase
//! flag per entry instead of in-place deletion, so an erase costs one buffer
//! insertion rather than `O(L)` flash IOs.
//!
//! The buffer (`gecko/buffer.rs`) holds its entries in arrival order behind
//! a dense key → position index, so an insertion, an erase-marker replace
//! and a query probe are array accesses; a flush sorts the entries by key
//! once and writes them as one run of `⌈n/V⌉` pages.
//!
//! See [`entry`] for the entry format, [`run`] for the on-flash run layout,
//! [`config`] for tuning (`T`, `S`, multi-way merging), [`merge_job`] for
//! the incremental merge state machine that keeps merges off the update
//! path, and [`analysis`] for the closed-form cost model of Table 1.

pub mod analysis;
mod buffer;
pub mod config;
pub mod entry;
pub mod filter;
pub mod merge_job;
pub mod run;
pub mod sharded;

pub use analysis::GeckoCostModel;
pub use config::{GeckoConfig, KEY_BYTES};
pub use entry::{Bitmap, GeckoEntry, GeckoKey};
pub use filter::RunFilter;
pub use merge_job::{FinishedMerge, MergeJob};
pub use run::{GeckoPagePayload, Run, RunDirEntry, RunId, RunMeta};
pub use sharded::ShardedGecko;

use crate::validity::MetaSink;
use flash_sim::{BlockId, FlashDevice, Geometry, IoPurpose, Ppn, SpanKind};
use std::collections::{HashSet, VecDeque};

/// The Logarithmic Gecko structure: RAM buffer + run directories in RAM,
/// runs in flash.
#[derive(Debug)]
pub struct LogGecko {
    cfg: GeckoConfig,
    geo: Geometry,
    /// The paper's one-page RAM buffer: the entries awaiting the next flush.
    buffer: buffer::Buffer,
    /// Every live run, newest data first (strictly descending
    /// [`RunMeta::data_age`]) — the traversal order of queries and of the
    /// merge planner. A run's level is [`RunMeta::level`], not its position:
    /// with merge jobs overlapping, level does not imply data age (see
    /// [`LogGecko::runs_newest_first`]).
    runs: Vec<Run>,
    /// Reusable scratch buffers for the query hot path, so
    /// steady-state operation allocates nothing per call.
    scratch: Scratch,
    /// Planned merges, in plan order: the tree's one FIFO of resumable
    /// [`MergeJob`]s, whose head job takes each pump's slice (see
    /// [`merge_job`] for the state machine and its invariants). Jobs behind
    /// the head are planned but untouched; planning around them is sound
    /// because output identities are reserved at plan time and plans are
    /// span-contiguous (invariant 4). Under [`GeckoConfig::sync_merge`] the
    /// same machinery runs, drained to completion inside `flush`. A job's
    /// inputs stay installed in `runs` (and queryable) until its output is
    /// sealed, but must not be planned into a second merge.
    jobs: VecDeque<MergeJob>,
    /// Lifetime counters for analysis/ablation reporting.
    pub stats: GeckoStats,
}

/// Preallocated scratch space reused across queries.
/// Capacities grow to the workload's high-water mark and stay there.
/// (Merge buffers live in the [`MergeJob`] in flight — they are queued-job
/// state, accounted by [`LogGecko::ram_bytes`].)
#[derive(Debug, Default)]
struct Scratch {
    /// The sub-keys of the query in flight that no erase flag has closed.
    open: Vec<GeckoKey>,
    /// Flash-page probe list for the run under inspection.
    probe_ppns: Vec<Ppn>,
}

/// Internal operation counters (not IO — the device tracks IO).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GeckoStats {
    /// Entry insertions into the buffer (updates + erase markers).
    pub buffer_inserts: u64,
    /// Buffer flushes (each writes one run, at the level its page count
    /// calls for).
    pub flushes: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// GC queries served.
    pub queries: u64,
    /// Entries dropped as obsolete during merges.
    pub entries_dropped: u64,
    /// Per-key run probes skipped because the run's Bloom filter proved the
    /// key absent (each skip avoids up to one flash read).
    pub bloom_skips: u64,
    /// Flash pages actually read by fence-pointer probes.
    pub fence_probes: u64,
    /// Flash page-IOs performed by incremental merge steps (reads of
    /// participant pages + writes of output pages), including forced drains.
    pub merge_pages_stepped: u64,
    /// Forced synchronous drains, counted once per drain: a flush whose
    /// merge debt ran past the backpressure ceiling drained the excess
    /// inline, or a caller needing quiescence (clean shutdown, recovery,
    /// tests) found merge work still pending and ran the remainder inline.
    /// Flushes do not otherwise wait for pending jobs ([`merge_job`]
    /// invariant 4).
    pub merge_stall_drains: u64,
}

impl LogGecko {
    /// Create an empty Logarithmic Gecko for a device geometry.
    pub fn new(geo: Geometry, cfg: GeckoConfig) -> Self {
        cfg.validate(&geo);
        LogGecko {
            cfg,
            geo,
            buffer: buffer::Buffer::new(&geo, &cfg),
            runs: Vec::new(),
            scratch: Scratch::default(),
            jobs: VecDeque::new(),
            stats: GeckoStats::default(),
        }
    }

    /// Rebuild a Logarithmic Gecko from recovered runs (Appendix C.1); the
    /// buffer starts empty and is refilled by the caller (Appendix C.2).
    pub fn from_recovered(geo: Geometry, cfg: GeckoConfig, runs: Vec<Run>) -> Self {
        let mut g = LogGecko::new(geo, cfg);
        for run in runs {
            g.insert_run(run);
        }
        g
    }

    /// Install a run at its place in the newest-data-first order. A flush
    /// run carries the newest data and lands at the front.
    fn insert_run(&mut self, run: Run) {
        let age = run.meta.data_age();
        let at = self.runs.partition_point(|r| r.meta.data_age() > age);
        self.runs.insert(at, run);
    }

    /// Configuration in effect.
    pub fn config(&self) -> GeckoConfig {
        self.cfg
    }

    /// Number of entries currently buffered in RAM.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// `V`: buffer capacity in entries.
    pub fn buffer_capacity(&self) -> u32 {
        self.cfg.entries_per_page(&self.geo)
    }

    /// Device sequence number of the last buffer flush (0 if never
    /// flushed): the newest run's `supersedes_upto` ([`RunMeta`] says why).
    /// Recovery's buffer reconstruction (App. C.2) keys off this.
    pub fn last_flush_seq(&self) -> u64 {
        self.runs.first().map_or(0, |r| r.meta.supersedes_upto)
    }

    /// All live runs, newest data first (descending
    /// [`RunMeta::data_age`]) — the traversal order of GC queries. With
    /// merge jobs overlapping, level order no longer implies data-age
    /// order: a late-planned job over fresh flushes can install its output
    /// deeper than an earlier job's output over older runs. Live spans are
    /// pairwise disjoint ([`merge_job`] invariant 4), so data age is a
    /// total order.
    pub fn runs_newest_first(&self) -> impl Iterator<Item = &Run> {
        self.runs.iter()
    }

    /// Total flash pages currently occupied by live runs.
    pub fn total_run_pages(&self) -> u64 {
        self.runs_newest_first().map(Run::num_pages).sum()
    }

    /// Total live entries across all runs.
    pub fn total_run_entries(&self) -> u64 {
        self.runs_newest_first().map(|r| r.entry_count).sum()
    }

    /// Number of levels that currently hold at least one run.
    pub fn occupied_levels(&self) -> usize {
        self.runs_per_level().iter().filter(|&&n| n > 0).count()
    }

    /// Number of installed runs at each level, up to the deepest level
    /// present. A fully drained tree holds at most one run per level (the
    /// planner keeps scheduling until no level has two settled runs), which
    /// tests use as the settled-shape invariant.
    pub fn runs_per_level(&self) -> Vec<usize> {
        let mut counts = Vec::new();
        for run in &self.runs {
            let level = run.meta.level as usize;
            if counts.len() <= level {
                counts.resize(level + 1, 0);
            }
            counts[level] += 1;
        }
        counts
    }

    /// Integrated-RAM footprint per Appendix B: run directories (two 4-byte
    /// words per run page) and the one-page update buffer, plus the per-run
    /// Bloom filters of the query path and the buffers of
    /// queued/in-flight [`MergeJob`]s (neither in the paper's accounting —
    /// reported honestly as part of the validity store). Merge buffers are
    /// charged as the actual queued-job state rather than the paper's
    /// static input/output-page allowance: since the scheduler refactor
    /// they exist only while a job is in flight, so a static term would
    /// double-count mid-merge and charge phantom memory when idle.
    pub fn ram_bytes(&self) -> u64 {
        let dir_bytes = 8 * self.total_run_pages();
        let filter_bytes: u64 = self.runs_newest_first().map(Run::filter_bytes).sum();
        let entry_bytes = self.entry_ram_bytes();
        let job_bytes: u64 = self.jobs.iter().map(|j| j.ram_bytes(entry_bytes)).sum();
        dir_bytes + filter_bytes + self.geo.page_bytes as u64 + job_bytes
    }

    /// Approximate RAM of one entry buffered in a merge job: key + flags
    /// plus the bitmap slice's words.
    fn entry_ram_bytes(&self) -> u64 {
        24 + u64::from(self.cfg.sub_bits(&self.geo).div_ceil(64)) * 8
    }

    fn key_of(&self, ppn: Ppn) -> (GeckoKey, u32) {
        let block = self.geo.block_of(ppn);
        let off = self.geo.offset_of(ppn).0;
        let sub = self.cfg.sub_bits(&self.geo);
        (
            GeckoKey {
                block,
                part: (off / sub) as u16,
            },
            off % sub,
        )
    }

    /// Report an invalidated physical page (Algorithm 1).
    pub fn mark_invalid(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, ppn: Ppn) {
        self.mark_invalid_batch(dev, sink, [ppn]);
    }

    /// Report several invalidated pages as one flush generation: the whole
    /// batch is inserted before the flush threshold is checked, so it never
    /// straddles a flush (see [`ValidityStore::mark_invalid_batch`]). An
    /// empty batch touches nothing — [`ShardedGecko`] hands every tree the
    /// caller's batch filtered down to that tree's blocks.
    ///
    /// [`ValidityStore::mark_invalid_batch`]: crate::validity::ValidityStore::mark_invalid_batch
    pub fn mark_invalid_batch(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        ppns: impl IntoIterator<Item = Ppn>,
    ) {
        let mut inserted = false;
        for ppn in ppns {
            // The bare buffer insert, shared with recovery's refill.
            self.recover_invalidation(ppn);
            self.stats.buffer_inserts += 1;
            inserted = true;
        }
        if inserted {
            self.maybe_flush(dev, sink);
        }
    }

    /// Report an erased block (Algorithm 2). With entry-partitioning, one
    /// erase marker is inserted per sub-entry so that queries for every part
    /// of the block terminate correctly.
    ///
    /// Divergence from the paper's Algorithm 2 pseudo-code: if the buffer
    /// already holds an entry for the key, we *replace* it with the erase
    /// marker (its pre-erase bits are obsolete) instead of leaving it
    /// untouched — leaving stale bits would mark post-erase pages invalid.
    pub fn note_erase(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink, block: BlockId) {
        let sub = self.cfg.sub_bits(&self.geo);
        for part in 0..self.cfg.partitions as u16 {
            let key = GeckoKey { block, part };
            self.buffer.put(GeckoEntry::erase_marker(key, sub));
            self.stats.buffer_inserts += 1;
        }
        self.maybe_flush(dev, sink);
    }

    /// GC query (Figure 5): assemble the full B-bit invalid bitmap for
    /// `block` by consulting the buffer and then every run from newest to
    /// oldest, stopping per sub-key at erase flags.
    ///
    /// Each run costs at most one flash read per *open sub-key present in
    /// the run*: the per-run Bloom filter skips runs that cannot contain a
    /// key, and fence-pointer binary search pins each surviving key to its
    /// unique page. With filters off ([`GeckoConfig::bloom_bits_per_key`]
    /// `= 0`) cost reverts to the paper's bound of one read per run covering
    /// a still-open sub-key.
    pub fn gc_query(&mut self, dev: &mut FlashDevice, block: BlockId) -> Bitmap {
        self.stats.queries += 1;
        let sub = self.cfg.sub_bits(&self.geo);
        let mut result = Bitmap::new(self.geo.pages_per_block);
        let mut absorb = |entry: &GeckoEntry| {
            for bit in entry.bitmap.iter_ones() {
                result.set(entry.key.part as u32 * sub + bit);
            }
        };
        // The block's S sub-keys, in key order; a key leaves at its first
        // (newest) erase flag.
        let mut open = std::mem::take(&mut self.scratch.open);
        open.clear();
        open.extend((0..self.cfg.partitions as u16).map(|part| GeckoKey { block, part }));

        // 1. The RAM buffer holds the newest information.
        let buffer = &self.buffer;
        open.retain(|&key| match buffer.get(key) {
            Some(entry) => {
                absorb(entry);
                !entry.erase_flag
            }
            None => true,
        });

        // 2. Runs, newest data first.
        let mut ppns = std::mem::take(&mut self.scratch.probe_ppns);
        for run in &self.runs {
            if open.is_empty() {
                break;
            }
            ppns.clear();
            // Keys are sorted, so probes arrive in page order; once a
            // page is queued, every following key up to its fence upper
            // bound lands on it and needs neither filter nor search (the
            // common case: one block's S sub-keys share a run page).
            let mut queued_up_to: Option<GeckoKey> = None;
            for &key in open.iter() {
                if queued_up_to.is_some_and(|last| key <= last) {
                    continue;
                }
                if !run.may_contain(key) {
                    self.stats.bloom_skips += 1;
                    continue;
                }
                if let Some(page) = run.page_for(key) {
                    debug_assert!(ppns.last() != Some(&page.ppn));
                    ppns.push(page.ppn);
                    queued_up_to = Some(page.last);
                }
            }
            self.stats.fence_probes += ppns.len() as u64;
            for &ppn in &ppns {
                let data = dev
                    .read_page(ppn, IoPurpose::ValidityQuery)
                    .expect("run directory points at a written page");
                let payload = data
                    .blob::<GeckoPagePayload>()
                    .expect("gecko block page holds a gecko payload");
                // Page entries and `open` are both key-sorted: a
                // two-pointer merge scan finds matches in one compare
                // per entry instead of a binary search per entry.
                let mut oi = 0usize;
                for entry in &payload.entries {
                    while oi < open.len() && open[oi] < entry.key {
                        oi += 1;
                    }
                    if oi >= open.len() {
                        break;
                    }
                    if open[oi] != entry.key {
                        continue;
                    }
                    absorb(entry);
                    if entry.erase_flag {
                        // Close the key; `oi` now points at the next
                        // open key, which only larger entries can match.
                        open.remove(oi);
                    }
                }
            }
        }
        ppns.clear();
        self.scratch.probe_ppns = ppns;
        self.scratch.open = open;
        result
    }

    /// Probe-every-run oracle: assemble the bitmap by reading **every** page
    /// of every run, newest first, using no run directories, fence pointers
    /// or filters. Deliberately the slowest possible correct implementation,
    /// kept only as the oracle the property tests check the query path
    /// against byte-for-byte. The `gecko_query` experiment's baseline is the
    /// query path with filters off (`bloom_bits_per_key = 0`).
    pub fn gc_query_naive(&mut self, dev: &mut FlashDevice, block: BlockId) -> Bitmap {
        let s = self.cfg.partitions as usize;
        let sub = self.cfg.sub_bits(&self.geo);
        let mut result = Bitmap::new(self.geo.pages_per_block);
        let mut open = vec![true; s];

        let mut absorb = |entry: &GeckoEntry, open: &mut Vec<bool>| {
            if entry.key.block != block {
                return;
            }
            let part = entry.key.part as usize;
            if !open[part] {
                return;
            }
            for bit in entry.bitmap.iter_ones() {
                result.set(part as u32 * sub + bit);
            }
            if entry.erase_flag {
                open[part] = false;
            }
        };

        for part in 0..s as u16 {
            if let Some(entry) = self.buffer.get(GeckoKey { block, part }) {
                absorb(entry, &mut open);
            }
        }
        for run in &self.runs {
            for page in &run.pages {
                let data = dev
                    .read_page(page.ppn, IoPurpose::ValidityQuery)
                    .expect("run directory points at a written page");
                let payload = data
                    .blob::<GeckoPagePayload>()
                    .expect("gecko block page holds a gecko payload");
                for entry in &payload.entries {
                    absorb(entry, &mut open);
                }
            }
        }
        result
    }

    fn maybe_flush(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        if self.buffer.len() >= self.buffer_capacity() as usize {
            self.flush(dev, sink);
        }
    }

    /// Flush the buffer as one run and schedule merges. Public so that
    /// shutdown paths can force persistence. Merges scheduled by the push
    /// are left to the pump — callers needing full quiescence (clean
    /// shutdown, tests) follow up with [`LogGecko::drain_merges`] or keep
    /// ticking [`crate::ftl::FtlEngine::idle_tick`].
    ///
    /// Erase markers can overshoot the buffer past `V` entries (Algorithm 2
    /// inserts S sub-entries at once); the run then has `⌈n/V⌉` pages and
    /// the level its page count calls for. It becomes real only when its
    /// last page is programmed: a power cut before that leaves fewer pages
    /// than the run's spare tags count, a partial run GeckoRec discards, and
    /// the watermark on flash stays the previous run's, so recovery
    /// re-derives the whole buffer.
    ///
    /// Pushes do not wait for pending merge jobs: output identities are
    /// reserved at plan time and plans are span-contiguous ([`merge_job`]
    /// invariant 4), so planning with jobs in flight is sound. Only the
    /// backpressure valve below drains merge work inline, as a counted
    /// stall, when the debt runs past `merge_debt_ceiling`.
    pub fn flush(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        if self.buffer.is_empty() {
            return;
        }
        self.stats.flushes += 1;
        let span_t0 = dev.clock().now_us();
        let span_entries = self.buffer.len() as u32;
        // The run's identity and point span are the device sequence now:
        // every report it holds was buffered before, so its span end is the
        // tree's flush watermark once it seals.
        let seq = dev.now_seq();
        let meta = RunMeta {
            id: RunId(seq),
            level: 0,
            supersedes_since: seq,
            supersedes_upto: seq,
        };
        // The buffer is emptied up front — nothing reads or inserts into it
        // while the run is written — and gets its storage back after.
        let mut writer = merge_job::RunWriter::new(
            &self.cfg,
            &self.geo,
            meta,
            self.buffer.take_sorted(),
            IoPurpose::ValidityUpdate,
        );
        while !writer.write_next_page(dev, sink) {}
        let (run, storage) = writer.into_run();
        self.buffer.recycle(storage);
        self.insert_run(run);
        self.schedule_merges(dev);
        // The knob's one reader: the paper's inline merges are the same
        // jobs run to completion before the flush returns, so the queue is
        // empty whenever `flush` is not on the stack and every other pump
        // or drain finds nothing to do.
        if self.cfg.sync_merge {
            while self.pump_merges(dev, sink, u64::MAX) {}
        }
        // Backpressure valve: merge IO is normally pumped between flushes
        // (the engine piggybacks slices on writes and idle ticks), but a
        // caller that only ever inserts must not accumulate unbounded merge
        // debt — space amplification and metadata-block pressure grow with
        // the backlog. Only when the debt runs far past the ceiling does
        // the flush drain the excess inline, as a counted stall.
        if self.merge_backlog_pages() > self.merge_debt_ceiling() {
            self.stats.merge_stall_drains += 1;
            while self.merge_backlog_pages() > self.merge_debt_ceiling()
                && self.pump_merges(dev, sink, self.cfg.merge_step_pages as u64)
            {}
        }
        let now = dev.clock().now_us();
        dev.telemetry_mut()
            .record_span(SpanKind::BufferFlush, span_entries, span_t0, now);
    }

    /// Pending-merge-IO ceiling for the [`LogGecko::flush`] backpressure
    /// valve, in estimated flash page-IOs: 16 slice budgets (the
    /// granularity at which debt drains) per channel. The channel factor
    /// models nothing — all IO is charged serially; it stays because it is
    /// the ceiling the 4-channel experiments and the benchmark were tuned
    /// and blessed with, and a 1-channel device keeps the smaller one.
    fn merge_debt_ceiling(&self) -> u64 {
        16 * self.cfg.merge_step_pages.max(1) as u64 * self.geo.channels.max(1) as u64
    }

    /// Plan due merges (§3.1, Appendix A): whenever a level holds two or
    /// more settled runs whose spans form a contiguous block of data-age
    /// history, enqueue a [`MergeJob`] folding them — plus, under the
    /// multi-way policy, the runs of every deeper level the output would
    /// cascade into anyway. Planning only *queues* work; the IO is paid by
    /// [`LogGecko::pump_merges`] / [`LogGecko::drain_merges`].
    ///
    /// Plans are made while earlier jobs are still in flight: their inputs
    /// stay installed (and are excluded from new plans), and the
    /// span-contiguity rule ([`merge_job`] invariant 4) rejects any
    /// candidate set whose combined span would overlap an outside live run
    /// — which keeps live spans pairwise disjoint no matter how plans
    /// interleave.
    fn schedule_merges(&mut self, dev: &mut FlashDevice) {
        // Planning installs and retires nothing, so the deepest level
        // present is fixed for the whole pass.
        let Some(deepest_level) = self.runs.iter().map(|r| r.meta.level).max() else {
            return;
        };
        'planning: loop {
            for start in 0..=deepest_level {
                let Some(inputs) = self.plan_at_level(start) else {
                    continue;
                };
                let planned = |id: RunId| inputs.iter().any(|i| i.meta.id == id);
                // Is the merge output going to carry the oldest live data?
                // If so, erase flags carry no further information and
                // fully-empty entries can be dropped ("removes obsolete
                // entries during merge operations"). With spans pairwise
                // disjoint this is exactly "every outside run is newer";
                // level depth alone no longer orders data age once jobs
                // overlap.
                let span_lo = inputs
                    .iter()
                    .map(|i| i.meta.supersedes_since)
                    .min()
                    .unwrap_or(0);
                let output_is_largest = self
                    .runs
                    .iter()
                    .filter(|r| !planned(r.meta.id))
                    .all(|r| r.meta.supersedes_upto > span_lo);
                let job = MergeJob::new(dev, inputs, output_is_largest);
                self.stats.merges += 1;
                self.jobs.push_back(job);
                continue 'planning;
            }
            return;
        }
    }

    /// Try to build a span-contiguous merge plan triggered by level
    /// `start` holding ≥ 2 settled runs.
    ///
    /// Live spans are pairwise disjoint, so global data-age order is also
    /// span order — the order `runs` is kept in — and a candidate set is
    /// span-contiguous **iff** it is a consecutive subsequence of it. The
    /// plan is therefore built positionally: within a maximal consecutive
    /// segment of settled runs,
    /// take the window from the newest to the oldest run of level `start`
    /// — including any *bridge* runs of other levels whose spans sit
    /// between them (skipping a bridge would leave a forever-unmergeable
    /// gap: nothing younger can ever span across it) — then cascade
    /// older-ward per the multi-way policy, absorbing each next-older run
    /// whose level the combined output would reach anyway.
    ///
    /// Returns the inputs newest data first, a consecutive stretch of
    /// `runs`, or `None` if no segment holds two settled runs of level
    /// `start`.
    fn plan_at_level(&self, start: u32) -> Option<&[Run]> {
        // The maximal segments of settled runs: what is left between runs
        // already in a pending merge.
        let merging = |r: &Run| self.jobs.iter().any(|j| j.folds(r.meta.id));
        for seg in self.runs.split(merging) {
            let first = seg.iter().position(|r| r.meta.level == start);
            let last = seg.iter().rposition(|r| r.meta.level == start);
            let (Some(first), Some(mut last)) = (first, last) else {
                continue;
            };
            if last == first {
                continue; // a single run of this level: nothing due here
            }
            if self.cfg.multiway_merge {
                let mut pages: u64 = seg[first..=last].iter().map(Run::num_pages).sum();
                for r in &seg[last + 1..] {
                    if pages < (self.cfg.size_ratio as u64).pow(r.meta.level) {
                        break;
                    }
                    last += 1;
                    pages += r.num_pages();
                }
            }
            let cand = &seg[first..=last];
            debug_assert!(self.span_contiguous(cand));
            return Some(cand);
        }
        None
    }

    /// Invariant-4 check: does the candidate set's combined span
    /// `[min supersedes_since, max supersedes_upto]` avoid the span of
    /// every live run outside the set? (In-flight jobs need no separate
    /// check — their participants stay installed until the output is
    /// sealed, and an output's span is the union of its participants'.)
    fn span_contiguous(&self, cand: &[Run]) -> bool {
        let lo = cand.iter().map(|r| r.meta.supersedes_since).min().unwrap();
        let hi = cand.iter().map(|r| r.meta.supersedes_upto).max().unwrap();
        self.runs
            .iter()
            .filter(|r| !cand.iter().any(|c| c.meta.id == r.meta.id))
            .all(|r| r.meta.supersedes_upto < lo || hi < r.meta.supersedes_since)
    }

    /// Advance pending merge work by one bounded slice: the head job of the
    /// tree's FIFO performs at most `budget` run-page reads/writes. A sealed
    /// output is installed atomically (inputs retired, output pushed,
    /// follow-on cascade merges planned). Returns `true` while work remains.
    ///
    /// The FTL engine piggybacks one slice on every application write and
    /// donates slices from idle ticks; standalone users may call it at any
    /// cadence — queries stay correct mid-merge.
    pub fn pump_merges(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        budget: u64,
    ) -> bool {
        let Some(job) = self.jobs.front_mut() else {
            return false;
        };
        let span_t0 = dev.clock().now_us();
        let mut remaining = budget;
        let finished = job.step(
            &self.cfg,
            &self.geo,
            &self.runs,
            dev,
            sink,
            &mut remaining,
            &mut self.stats.entries_dropped,
        );
        let stepped = budget - remaining;
        self.stats.merge_pages_stepped += stepped;
        if let Some(done) = finished {
            self.jobs.pop_front();
            self.install_merge(dev, sink, done);
        }
        let now = dev.clock().now_us();
        dev.telemetry_mut()
            .record_span(SpanKind::MergeSlice, stepped as u32, span_t0, now);
        !self.jobs.is_empty()
    }

    /// Run all pending merge work to completion. Counted as a forced stall
    /// when work was actually pending (never under
    /// [`GeckoConfig::sync_merge`]: `flush` leaves no job behind).
    pub fn drain_merges(&mut self, dev: &mut FlashDevice, sink: &mut dyn MetaSink) {
        if self.jobs.is_empty() {
            return;
        }
        self.stats.merge_stall_drains += 1;
        while self.pump_merges(dev, sink, u64::MAX) {}
    }

    /// Atomically switch queries from a merge's inputs to its output: the
    /// participants leave the run list and have their pages retired, and the
    /// sealed output run is installed. Follow-on cascade merges are planned
    /// immediately.
    ///
    /// With the output on flash, no recovery reads an input again — GeckoRec
    /// step 3 skips every run whose span lies strictly inside a kept run's
    /// (DESIGN.md invariant 16) — so the inputs' payloads are reclaimed
    /// (invariant 17).
    fn install_merge(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        done: FinishedMerge,
    ) {
        let retired = |r: &Run| done.inputs.contains(&r.meta.id);
        for input in self.runs.iter().filter(|r| retired(r)) {
            for page in &input.pages {
                dev.reclaim_payload(page.ppn);
                sink.meta_page_obsolete(dev, page.ppn);
            }
        }
        self.runs.retain(|r| !retired(r));
        self.insert_run(done.output);
        self.schedule_merges(dev);
    }

    /// Pending incremental merge work, in estimated flash page-IOs
    /// (0 when the structure is settled).
    pub fn merge_backlog_pages(&self) -> u64 {
        self.jobs.iter().map(MergeJob::debt_pages).sum()
    }

    /// Number of merge jobs queued or in flight.
    pub fn merge_jobs_pending(&self) -> usize {
        self.jobs.len()
    }

    /// Output pages already on flash for merges whose output run is not yet
    /// sealed — orphans a crash right now would leave behind (and that
    /// GeckoRec must discard). Test/diagnostic introspection.
    pub fn unsealed_merge_pages(&self) -> u64 {
        self.jobs.iter().map(MergeJob::unsealed_output_pages).sum()
    }

    /// Reconstruct the invalid-page bitmap of **every** block by scanning
    /// all runs once plus the buffer — BVC recovery, Appendix C step 5.
    /// Every live run page costs one page read charged to `purpose`.
    ///
    /// Since the scan reads every run page anyway, it doubles as a repair
    /// pass at no extra IO: runs missing their RAM-resident Bloom filter
    /// (recovered runs — filters are not persisted) get one rebuilt from
    /// the keys streaming past, and zeroed `entry_count`s are refilled, so
    /// recovered runs serve filtered queries immediately instead of
    /// degrading to probe-per-run until the next merge.
    pub fn scan_all_bitmaps(
        &mut self,
        dev: &mut FlashDevice,
        purpose: IoPurpose,
    ) -> std::collections::HashMap<BlockId, Bitmap> {
        use std::collections::HashMap;
        let sub = self.cfg.sub_bits(&self.geo);
        let b = self.geo.pages_per_block;
        let bloom_bits = self.cfg.bloom_bits_per_key;
        let mut closed: HashSet<GeckoKey> = HashSet::new();
        let mut result: HashMap<BlockId, Bitmap> = HashMap::new();
        let absorb = |entry: &GeckoEntry,
                      closed: &mut HashSet<GeckoKey>,
                      result: &mut HashMap<BlockId, Bitmap>| {
            if closed.contains(&entry.key) {
                return;
            }
            let bm = result
                .entry(entry.key.block)
                .or_insert_with(|| Bitmap::new(b));
            for bit in entry.bitmap.iter_ones() {
                bm.set(entry.key.part as u32 * sub + bit);
            }
            if entry.erase_flag {
                closed.insert(entry.key);
            }
        };
        for entry in self.buffer.iter() {
            absorb(entry, &mut closed, &mut result);
        }
        let mut keys: Vec<GeckoKey> = Vec::new();
        // Newest data first: `absorb` honors the first erase flag seen per
        // key.
        for run in &mut self.runs {
            let rebuild_filter = bloom_bits > 0 && run.filter.is_none();
            keys.clear();
            let mut entries_seen = 0u64;
            for page in &run.pages {
                let data = dev
                    .read_page(page.ppn, purpose)
                    .expect("live run page readable");
                let payload = data.blob::<GeckoPagePayload>().expect("gecko page payload");
                entries_seen += payload.entries.len() as u64;
                for entry in &payload.entries {
                    absorb(entry, &mut closed, &mut result);
                    if rebuild_filter {
                        keys.push(entry.key);
                    }
                }
            }
            if run.entry_count == 0 {
                run.entry_count = entries_seen;
            }
            if rebuild_filter {
                let mut f = RunFilter::new(keys.len(), bloom_bits);
                for &k in &keys {
                    f.insert(k);
                }
                run.filter = Some(f);
            }
        }
        result
    }

    /// Seed the buffer with a recovered erase marker (Appendix C.2.1).
    /// Does not flush — recovery completes before normal flushing resumes.
    pub fn recover_erase_marker(&mut self, block: BlockId) {
        let sub = self.cfg.sub_bits(&self.geo);
        for part in 0..self.cfg.partitions as u16 {
            let key = GeckoKey { block, part };
            self.buffer.put(GeckoEntry::erase_marker(key, sub));
        }
    }

    /// Seed the buffer with a recovered invalidation (Appendix C.2.2):
    /// set `ppn`'s bit without counting or flushing.
    pub fn recover_invalidation(&mut self, ppn: Ppn) {
        let (key, bit) = self.key_of(ppn);
        let sub = self.cfg.sub_bits(&self.geo);
        self.buffer.get_or_blank(key, sub).bitmap.set(bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::FlatMetaSink;
    use std::collections::HashMap;

    /// Reference model: an exact RAM-resident validity map.
    #[derive(Default)]
    struct Model {
        invalid: HashMap<BlockId, Vec<bool>>,
    }

    impl Model {
        fn mark_invalid(&mut self, geo: &Geometry, ppn: Ppn) {
            let b = geo.block_of(ppn);
            let off = geo.offset_of(ppn).0 as usize;
            self.invalid
                .entry(b)
                .or_insert_with(|| vec![false; geo.pages_per_block as usize])[off] = true;
        }

        fn note_erase(&mut self, geo: &Geometry, block: BlockId) {
            self.invalid
                .insert(block, vec![false; geo.pages_per_block as usize]);
        }

        fn query(&self, geo: &Geometry, block: BlockId) -> Vec<bool> {
            self.invalid
                .get(&block)
                .cloned()
                .unwrap_or_else(|| vec![false; geo.pages_per_block as usize])
        }
    }

    fn harness(cfg: GeckoConfig) -> (FlashDevice, FlatMetaSink, LogGecko, Geometry) {
        let geo = Geometry::tiny();
        let dev = FlashDevice::new(geo);
        // Plenty of metadata blocks for runs.
        let sink = FlatMetaSink::new((32..64).map(BlockId).collect());
        let gecko = LogGecko::new(geo, cfg);
        (dev, sink, gecko, geo)
    }

    fn paper_cfg() -> GeckoConfig {
        GeckoConfig::paper_default(&Geometry::tiny())
    }

    /// Tiny pages so flushes/merges happen quickly in tests.
    fn small_page_cfg(t: u32, s: u32) -> GeckoConfig {
        GeckoConfig {
            size_ratio: t,
            partitions: s,
            multiway_merge: true,
            // Leave room for ~6 entries per page: shrink the usable space
            // via a huge header so flushes/merges happen at test scale.
            page_header_bytes: 4096 - 40,
            ..GeckoConfig::default()
        }
    }

    fn check_equiv(
        gecko: &mut LogGecko,
        model: &Model,
        dev: &mut FlashDevice,
        geo: &Geometry,
        block: BlockId,
    ) {
        let got = gecko.gc_query(dev, block);
        let want = model.query(geo, block);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(
                got.get(i as u32),
                *w,
                "bit {i} of {block:?} diverges from the reference model"
            );
        }
    }

    #[test]
    fn buffer_absorbs_repeated_updates_without_io() {
        // With the paper tuning on a tiny device, all 32 block keys fit in
        // the buffer: no flash IO at all, ever (pure RAM coalescing).
        let (mut dev, mut sink, mut gecko, geo) = harness(paper_cfg());
        for p in 0..geo.total_pages() as u32 / 2 {
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(p));
        }
        assert_eq!(gecko.stats.flushes, 0);
        assert_eq!(dev.stats().counts(IoPurpose::ValidityUpdate).page_writes, 0);
    }

    #[test]
    fn updates_and_queries_match_reference_model() {
        let (mut dev, mut sink, mut gecko, geo) = harness(small_page_cfg(2, 1));
        let mut model = Model::default();
        // Invalidate a deterministic pseudo-random page sequence.
        let mut x: u64 = 42;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64); // user area only
            let ppn = Ppn(page as u32);
            gecko.mark_invalid(&mut dev, &mut sink, ppn);
            model.mark_invalid(&geo, ppn);
        }
        for b in 0..32 {
            check_equiv(&mut gecko, &model, &mut dev, &geo, BlockId(b));
        }
        assert!(gecko.stats.flushes > 0, "workload must have flushed");
    }

    #[test]
    fn erase_markers_supersede_older_bits() {
        for multiway in [false, true] {
            let mut cfg = small_page_cfg(2, 1);
            cfg.multiway_merge = multiway;
            let (mut dev, mut sink, mut gecko, geo) = harness(cfg);
            let mut model = Model::default();
            let mut x: u64 = 7;
            for i in 0..3000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let choice = x >> 60;
                if choice < 3 && i % 7 == 3 {
                    let b = BlockId(((x >> 20) % 32) as u32);
                    gecko.note_erase(&mut dev, &mut sink, b);
                    model.note_erase(&geo, b);
                } else {
                    let page = (x >> 33) % (32 * geo.pages_per_block as u64);
                    let ppn = Ppn(page as u32);
                    gecko.mark_invalid(&mut dev, &mut sink, ppn);
                    model.mark_invalid(&geo, ppn);
                }
            }
            for b in 0..32 {
                check_equiv(&mut gecko, &model, &mut dev, &geo, BlockId(b));
            }
            assert!(gecko.stats.merges > 0, "workload must have merged");
        }
    }

    #[test]
    fn partitioned_entries_match_reference_model() {
        for s in [1u32, 2, 4, 8] {
            let cfg = GeckoConfig {
                partitions: s,
                ..small_page_cfg(2, s)
            };
            let (mut dev, mut sink, mut gecko, geo) = harness(cfg);
            let mut model = Model::default();
            let mut x: u64 = 1234 + s as u64;
            for _ in 0..1500 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 62 == 0 {
                    let b = BlockId(((x >> 20) % 32) as u32);
                    gecko.note_erase(&mut dev, &mut sink, b);
                    model.note_erase(&geo, b);
                } else {
                    let page = (x >> 33) % (32 * geo.pages_per_block as u64);
                    gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
                    model.mark_invalid(&geo, Ppn(page as u32));
                }
            }
            for b in 0..32 {
                check_equiv(&mut gecko, &model, &mut dev, &geo, BlockId(b));
            }
        }
    }

    #[test]
    fn at_most_one_settled_run_per_level() {
        let cfg = GeckoConfig {
            sync_merge: true,
            ..small_page_cfg(2, 1)
        };
        let (mut dev, mut sink, mut gecko, geo) = harness(cfg);
        let mut x: u64 = 99;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
            // After each operation (merges run synchronously), each level
            // holds at most one run.
            for (lvl, runs) in gecko.runs_per_level().iter().enumerate() {
                assert!(*runs <= 1, "level {lvl} holds {runs} runs");
            }
        }
    }

    #[test]
    fn incremental_mode_settles_to_one_run_per_level() {
        // Same invariant as above, but under the incremental scheduler the
        // structure is only settled once pending jobs drain; mid-flight a
        // level legally holds the (still queryable) merge participants.
        let (mut dev, mut sink, mut gecko, geo) = harness(GeckoConfig {
            sync_merge: false,
            ..small_page_cfg(2, 1)
        });
        let mut x: u64 = 99;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
            // Pump at an arbitrary cadence, as an engine would.
            if i % 3 == 0 {
                gecko.pump_merges(&mut dev, &mut sink, 2);
            }
        }
        gecko.drain_merges(&mut dev, &mut sink);
        assert_eq!(gecko.merge_jobs_pending(), 0);
        assert_eq!(gecko.merge_backlog_pages(), 0);
        for (lvl, runs) in gecko.runs_per_level().iter().enumerate() {
            assert!(*runs <= 1, "level {lvl} holds {runs} runs");
        }
        assert!(
            gecko.stats.merge_pages_stepped > 0,
            "merge IO must flow through the scheduler"
        );
    }

    /// The watermark is a view of the newest run's span end: a flush sets
    /// it to the flush's seq, and no merge step or install moves it.
    #[test]
    fn only_a_flush_moves_the_watermark() {
        let (mut dev, mut sink, mut gecko, geo) = harness(small_page_cfg(2, 1));
        assert_eq!(gecko.last_flush_seq(), 0, "never flushed");
        let mut installs = 0;
        let mut x: u64 = 11;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64);
            // Nothing is written before a tripped flush mints its run.
            let (seq, flushes) = (dev.now_seq(), gecko.stats.flushes);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
            if gecko.stats.flushes > flushes {
                assert_eq!(gecko.last_flush_seq(), seq, "op {i}: the flush's seq");
            }
            if i % 3 == 0 {
                let (watermark, jobs) = (gecko.last_flush_seq(), gecko.merge_jobs_pending());
                gecko.pump_merges(&mut dev, &mut sink, 2);
                installs += usize::from(gecko.merge_jobs_pending() < jobs);
                assert_eq!(gecko.last_flush_seq(), watermark, "op {i}: a pump");
            }
        }
        assert!(gecko.merge_jobs_pending() > 0, "a job left to drain");
        let watermark = gecko.last_flush_seq();
        gecko.drain_merges(&mut dev, &mut sink);
        assert_eq!(gecko.last_flush_seq(), watermark, "the drain");
        assert!(installs > 0, "pumps must have installed merges");
    }

    #[test]
    fn level_placement_follows_size_rule() {
        let (mut dev, mut sink, mut gecko, geo) = harness(small_page_cfg(2, 1));
        let mut x: u64 = 5;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
        }
        for run in gecko.runs_newest_first() {
            let by_size = gecko.cfg.level_for(run.num_pages());
            assert!(
                run.meta.level >= by_size,
                "run {:?} at level {} but sized for {}",
                run.meta.id,
                run.meta.level,
                by_size
            );
        }
    }

    #[test]
    fn space_amplification_is_bounded() {
        let (mut dev, mut sink, mut gecko, geo) = harness(small_page_cfg(2, 1));
        let mut x: u64 = 17;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
        }
        // Settle pending merge jobs, then check the bound: at most 32
        // blocks × S sub-entries of live information; total run entries may
        // double that (§3.2: space-amplification ≤ ≈2), plus the transient
        // level-0/1 runs.
        gecko.drain_merges(&mut dev, &mut sink);
        let max_live = 32 * gecko.cfg.partitions as u64;
        assert!(
            gecko.total_run_entries() <= 3 * max_live,
            "entries = {}, live keys ≤ {max_live}",
            gecko.total_run_entries()
        );
    }

    #[test]
    fn query_reads_at_most_one_page_per_run() {
        let (mut dev, mut sink, mut gecko, geo) = harness(small_page_cfg(2, 1));
        let mut x: u64 = 3;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
        }
        let runs = gecko.runs_newest_first().count() as u64;
        let before = dev.stats().counts(IoPurpose::ValidityQuery).page_reads;
        gecko.gc_query(&mut dev, BlockId(9));
        let reads = dev.stats().counts(IoPurpose::ValidityQuery).page_reads - before;
        assert!(reads <= runs, "query read {reads} pages across {runs} runs");
    }

    #[test]
    fn recovered_runs_answer_queries_identically() {
        let (mut dev, mut sink, mut gecko, geo) = harness(small_page_cfg(2, 1));
        let mut model = Model::default();
        let mut x: u64 = 77;
        for _ in 0..2500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (32 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
            model.mark_invalid(&geo, Ppn(page as u32));
        }
        gecko.flush(&mut dev, &mut sink); // persist the tail
        let runs: Vec<Run> = gecko.runs_newest_first().cloned().collect();
        let cfg = gecko.config();
        drop(gecko);
        let mut recovered = LogGecko::from_recovered(geo, cfg, runs);
        for b in 0..32 {
            check_equiv(&mut recovered, &model, &mut dev, &geo, BlockId(b));
        }
    }

    #[test]
    fn scan_all_bitmaps_agrees_with_queries() {
        let (mut dev, mut sink, mut gecko, geo) = harness(small_page_cfg(2, 1));
        let mut x: u64 = 21;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x >> 62 == 0 {
                gecko.note_erase(&mut dev, &mut sink, BlockId(((x >> 20) % 32) as u32));
            } else {
                let page = (x >> 33) % (32 * geo.pages_per_block as u64);
                gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
            }
        }
        let maps = gecko.scan_all_bitmaps(&mut dev, IoPurpose::Recovery);
        for b in 0..32 {
            let q = gecko.gc_query(&mut dev, BlockId(b));
            let scanned = maps.get(&BlockId(b));
            for i in 0..geo.pages_per_block {
                let s = scanned.is_some_and(|m| m.get(i));
                assert_eq!(q.get(i), s, "scan vs query mismatch at {b}:{i}");
            }
        }
    }
}
