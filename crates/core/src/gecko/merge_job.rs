//! The resumable merge job ([`MergeJob`]) and the run writer of Logarithmic
//! Gecko's incremental merging.
//!
//! The paper runs merges synchronously inside the update path: an update
//! that trips a level-N merge pays the entire merge's flash IO as latency —
//! exactly the tail-latency cliff the amortized analysis of Table 1 argues
//! against. A [`MergeJob`] takes the merge off the critical path: when a
//! merge becomes due, [`crate::gecko::LogGecko`] queues a job instead of
//! running it inline, and the job is *pumped* in bounded steps
//! (at most [`crate::gecko::GeckoConfig::merge_step_pages`] run-page reads
//! or writes per step) piggybacked on subsequent updates or donated by idle
//! ticks. A tree keeps its jobs in one FIFO and a pump steps the head job,
//! so a step's budget bounds the merge IO one pump performs per tree; every
//! page IO is charged serially on the simulated clock.
//!
//! # State machine
//!
//! A job moves through two IO-charged phases plus a free in-RAM fold:
//!
//! ```text
//! Read ──(all participant pages read)──▶ fold (RAM, no IO)
//!      ──▶ Write ──(last page written = sealed)──▶ install
//! ```
//!
//! * **Read**: participant run pages are read into one entry buffer, up to
//!   `budget` pages per step, in data-age order: participants newest
//!   first, each participant's pages in key order.
//! * **Fold**: the collision-resolving merge of Algorithm 3 runs entirely
//!   in RAM the moment the last page arrives — a stable sort of the buffer
//!   by key, then one in-place pass that folds each equal-key group into
//!   its first entry. The sort's stability is the newest-first tie-break:
//!   it alone keeps a key's entries in the order they were read, which is
//!   what tells the pass which side of a collision is the newer one.
//! * **Write**: the output run is written page by page through a
//!   `RunWriter`, up to `budget` pages per step. The run becomes *real*
//!   only when its final page is programmed: every page's spare tag counts
//!   the run's pages, so recovery tells a complete run from a cut one.
//!
//! # Invariants (what keeps queries and crashes correct)
//!
//! 1. **Participants stay installed.** The input runs remain in
//!    `LogGecko::runs` (and therefore queryable, in correct data-age
//!    order) for the whole life of the job; they are only removed — and
//!    their pages only retired — at *install time*, after the output run is
//!    sealed. A GC query never observes both the inputs and the output. The
//!    job names its inputs by [`RunId`] and reads their directories there:
//!    they are a consecutive stretch of the tree's newest-first run list
//!    (invariant 4), so nothing is copied.
//! 2. **Atomic install.** Sealing + install happen inside one pump call
//!    with no intervening flash state change, so the switch from "query the
//!    inputs" to "query the output" is atomic with respect to queries.
//! 3. **Crash = forget the job.** A partially written output run has fewer
//!    pages on flash than its spare tags count, so GeckoRec's run recovery
//!    (Appendix C.1) discards it; the participants are still complete and
//!    live on flash.
//!    A crash after sealing recovers the output and treats the inputs as
//!    merged-away by span containment. Either way no scheduler state needs
//!    to be persisted.
//! 4. **Reserved identities + span-contiguous plans.** Several jobs may be
//!    pending per tree at once, the head one part-way through its IO:
//!    flushes do not drain pending work, so new plans are made around it.
//!    Two rules keep that sound without persisting any scheduler state:
//!
//!    * A job's output identity ([`RunId`]) is **reserved
//!      from the device sequence at plan time**
//!      ([`flash_sim::FlashDevice::reserve_seq`]), not minted when the
//!      write phase starts — so a flush run written while the job waits
//!      can never collide with it, and the identity is unique across power
//!      failures because the reservation advances the sequence.
//!    * A plan may only fold a **data-age-contiguous** set of runs: the
//!      candidate set's combined span `[min supersedes_since, max
//!      supersedes_upto]` must not intersect the span of any live run
//!      outside the set. Live spans therefore stay pairwise disjoint and
//!      merging stays laminar, which is exactly what makes
//!      newest-span-first query order and recovery's span-containment
//!      liveness rule ([`crate::gecko::run::RunMeta::supersedes_upto`])
//!      correct with jobs pending.

use crate::gecko::config::GeckoConfig;
use crate::gecko::entry::GeckoEntry;
use crate::gecko::filter::RunFilter;
use crate::gecko::run::{GeckoPagePayload, Run, RunDirEntry, RunId, RunMeta};
use crate::validity::MetaSink;
use flash_sim::{FlashDevice, Geometry, IoPurpose, MetaKind, MetaTag, PageData};

/// A completed merge, ready for [`crate::gecko::LogGecko`] to install:
/// retire the inputs' pages, remove them from the run list, and push the
/// sealed output run.
#[derive(Debug)]
pub struct FinishedMerge {
    /// The participants to retire, newest data first.
    pub inputs: Vec<RunId>,
    /// The sealed output run. There always is one: a fold that would drop
    /// every entry keeps the last key's erase marker (see `fold`).
    pub output: Run,
}

/// Incremental writer of one run: emits the pages of a sorted entry
/// sequence one flash write at a time, each with the spare tag that
/// describes the run and the page's key range. Both the merge state machine
/// and the synchronous flush path write runs through this, so the on-flash
/// layout has a single source of truth.
#[derive(Debug)]
pub(crate) struct RunWriter {
    meta: RunMeta,
    entries: Vec<GeckoEntry>,
    /// Entry cursor: `entries[..next]` have been written out.
    next: usize,
    /// `V`: entries per page.
    v: usize,
    n_pages: usize,
    dir: Vec<RunDirEntry>,
    filter: Option<RunFilter>,
    purpose: IoPurpose,
}

impl RunWriter {
    /// Start writing `entries` (sorted, non-empty) as the run `meta`
    /// describes. The caller builds the metadata it means — a buffer flush
    /// mints identity and point span from the current device sequence, a
    /// merge job passes the identity it reserved at plan time and its
    /// inputs' span union (see [`RunMeta`]) — and `meta.level` is a floor:
    /// the writer raises it to the level the run's page count calls for, so
    /// merge output never lands above a participant's level when collisions
    /// shrink it.
    pub(crate) fn new(
        cfg: &GeckoConfig,
        geo: &Geometry,
        mut meta: RunMeta,
        entries: Vec<GeckoEntry>,
        purpose: IoPurpose,
    ) -> Self {
        debug_assert!(!entries.is_empty());
        debug_assert!(
            entries.windows(2).all(|w| w[0].key < w[1].key),
            "run entries must be sorted"
        );
        let v = cfg.entries_per_page(geo) as usize;
        let n_pages = entries.len().div_ceil(v);
        meta.level = meta.level.max(cfg.level_for(n_pages as u64));
        // Build the run's Bloom filter while the keys are in RAM anyway.
        let filter = (cfg.bloom_bits_per_key > 0).then(|| {
            let mut f = RunFilter::new(entries.len(), cfg.bloom_bits_per_key);
            for e in &entries {
                f.insert(e.key);
            }
            f
        });
        RunWriter {
            meta,
            entries,
            next: 0,
            v,
            n_pages,
            dir: Vec::with_capacity(n_pages),
            filter,
            purpose,
        }
    }

    /// Whether every page has been written.
    pub(crate) fn sealed(&self) -> bool {
        self.dir.len() == self.n_pages
    }

    /// Program the next page of the run. Returns `true` once sealed.
    pub(crate) fn write_next_page(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
    ) -> bool {
        debug_assert!(!self.sealed());
        let end = (self.next + self.v).min(self.entries.len());
        let chunk: Vec<GeckoEntry> = self.entries[self.next..end].to_vec();
        self.next = end;
        let (first, last) = (chunk[0].key, chunk[chunk.len() - 1].key);
        let payload = GeckoPagePayload { entries: chunk };
        // Every page's spare area describes the run and the page's key
        // range, so recovery judges the run's liveness and rebuilds its
        // directory without reading a page.
        let tag = MetaTag::Run {
            id: self.meta.id.0,
            span: self.meta.span(),
            level: self.meta.level,
            pages: self.n_pages as u32,
            first: first.into(),
            last: last.into(),
        };
        let ppn = sink.append_meta(
            dev,
            MetaKind::GeckoRun,
            tag,
            PageData::blob_of(payload),
            self.purpose,
        );
        self.dir.push(RunDirEntry { ppn, first, last });
        self.sealed()
    }

    /// Consume the sealed writer into its run directory, handing the (now
    /// drained) entry buffer back for reuse.
    pub(crate) fn into_run(mut self) -> (Run, Vec<GeckoEntry>) {
        debug_assert!(self.sealed());
        let entry_count = self.entries.len() as u64;
        self.entries.clear();
        (
            Run {
                meta: self.meta,
                pages: self.dir,
                entry_count,
                filter: self.filter,
            },
            self.entries,
        )
    }

    /// RAM currently held by the writer (Appendix-B style accounting).
    fn ram_bytes(&self, entry_bytes: u64) -> u64 {
        self.entries.len() as u64 * entry_bytes
            + self.dir.capacity() as u64 * std::mem::size_of::<RunDirEntry>() as u64
            + self.filter.as_ref().map_or(0, RunFilter::ram_bytes)
    }
}

/// The resumable state of one merge: which runs it folds, and how far the
/// Read → fold → Write pipeline has progressed.
#[derive(Debug)]
pub struct MergeJob {
    /// Participants in data-age order, newest first: a consecutive stretch
    /// of the owning tree's run list, where the job reads their directories
    /// (invariant 1).
    inputs: Vec<RunId>,
    /// Run pages to read: the sum of the participants' page counts.
    total_pages: usize,
    /// The output run's id, reserved from the device
    /// sequence at plan time (invariant 4: concurrent write phases must
    /// never mint colliding identities).
    reserved_seq: u64,
    /// Whether the output will be the deepest run, allowing pure
    /// tombstones and empty entries to be dropped.
    output_is_largest: bool,
    phase: Phase,
}

#[derive(Debug)]
enum Phase {
    /// Reading participant pages; `next` is a flat cursor over the
    /// concatenation of all participants' page lists, `entries` what the
    /// pages before it held, in the order read.
    Read {
        next: usize,
        entries: Vec<GeckoEntry>,
    },
    /// Writing the folded output.
    Write(RunWriter),
}

impl MergeJob {
    /// Plan a merge of `inputs` (a consecutive stretch of the owning tree's
    /// run list, newest data first), reserving the output run's identity
    /// from the device sequence now — before any other job's write phase
    /// can run — so concurrent jobs never collide.
    pub fn new(dev: &mut FlashDevice, inputs: &[Run], output_is_largest: bool) -> Self {
        let entry_count: u64 = inputs.iter().map(|r| r.entry_count).sum();
        MergeJob {
            inputs: inputs.iter().map(|r| r.meta.id).collect(),
            total_pages: inputs.iter().map(|r| r.pages.len()).sum(),
            reserved_seq: dev.reserve_seq(),
            output_is_largest,
            phase: Phase::Read {
                next: 0,
                entries: Vec::with_capacity(entry_count as usize),
            },
        }
    }

    /// Whether run `id` is one of this job's inputs.
    pub(super) fn folds(&self, id: RunId) -> bool {
        self.inputs.contains(&id)
    }

    /// The runs `ids` names as installed in `runs`, the owning tree's run
    /// list (invariant 1).
    fn installed<'r>(ids: &[RunId], runs: &'r [Run]) -> &'r [Run] {
        let at = runs
            .iter()
            .position(|r| r.meta.id == ids[0])
            .expect("merge inputs stay installed");
        let inputs = &runs[at..at + ids.len()];
        debug_assert!(inputs.iter().map(|r| r.meta.id).eq(ids.iter().copied()));
        inputs
    }

    /// Total flash pages this job still has to read and write. The write
    /// side is unknown until the fold runs; it is bounded by (and typically
    /// close to) the total read side, so the estimate is the remaining
    /// reads plus one write per input page.
    pub fn debt_pages(&self) -> u64 {
        match &self.phase {
            Phase::Read { next, .. } => (self.total_pages - next + self.total_pages) as u64,
            Phase::Write(w) => (w.n_pages - w.dir.len()) as u64,
        }
    }

    /// Output pages already programmed by a not-yet-sealed write phase
    /// (orphans on flash if a crash hits now — recovery must discard them).
    pub fn unsealed_output_pages(&self) -> u64 {
        match &self.phase {
            Phase::Read { .. } => 0,
            Phase::Write(w) => w.dir.len() as u64,
        }
    }

    /// Run up to `budget` page-IOs of this job, decrementing `budget` by
    /// the IOs performed; returns the finished merge once the job completes
    /// (the caller installs it), `None` while IO remains. `cfg`, `geo` and
    /// `runs` are the owning tree's tuning, geometry and run list, which
    /// holds the inputs; `entries_dropped` counts entries the fold discards
    /// as obsolete (Algorithm 3's collision resolution plus largest-run
    /// tombstone dropping).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn step(
        &mut self,
        cfg: &GeckoConfig,
        geo: &Geometry,
        runs: &[Run],
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        budget: &mut u64,
        entries_dropped: &mut u64,
    ) -> Option<FinishedMerge> {
        match &mut self.phase {
            Phase::Read { next, entries } => {
                let inputs = Self::installed(&self.inputs, runs);
                while *next < self.total_pages && *budget > 0 {
                    // Map the flat cursor to (participant, page).
                    let (mut p, mut off) = (0usize, *next);
                    while off >= inputs[p].pages.len() {
                        off -= inputs[p].pages.len();
                        p += 1;
                    }
                    let ppn = inputs[p].pages[off].ppn;
                    let data = dev
                        .read_page(ppn, IoPurpose::ValidityMerge)
                        .expect("run page readable during merge");
                    let payload = data.blob::<GeckoPagePayload>().expect("gecko page payload");
                    entries.extend_from_slice(&payload.entries);
                    *next += 1;
                    *budget -= 1;
                }
                if *next < self.total_pages {
                    return None;
                }
                // All pages in RAM: fold now (no IO, free in simulated
                // time) and move to the write phase.
                let mut merged = std::mem::take(entries);
                fold(&mut merged, self.output_is_largest, entries_dropped);
                // The output's span is the union of its inputs', and its
                // level floor the deepest input's: inputs stay installed
                // with the levels they were planned at (invariant 1).
                let meta = RunMeta {
                    id: RunId(self.reserved_seq),
                    level: inputs.iter().map(|r| r.meta.level).max().unwrap_or(0),
                    supersedes_since: inputs
                        .iter()
                        .map(|r| r.meta.supersedes_since)
                        .min()
                        .unwrap_or(0),
                    supersedes_upto: inputs
                        .iter()
                        .map(|r| r.meta.supersedes_upto)
                        .max()
                        .unwrap_or(0),
                };
                self.phase = Phase::Write(RunWriter::new(
                    cfg,
                    geo,
                    meta,
                    merged,
                    IoPurpose::ValidityMerge,
                ));
                // End the step at the phase boundary even with budget
                // left, so a step is all reads or all writes and the
                // leftover budget goes unspent. This is pacing only —
                // nothing is incorrect about writing now — and it is the
                // pacing the golden traces pin.
                None
            }
            Phase::Write(writer) => {
                while *budget > 0 {
                    *budget -= 1;
                    if writer.write_next_page(dev, sink) {
                        let Phase::Write(writer) = std::mem::replace(
                            &mut self.phase,
                            Phase::Read {
                                next: 0,
                                entries: Vec::new(),
                            },
                        ) else {
                            unreachable!("phase checked above")
                        };
                        let (output, _) = writer.into_run();
                        return Some(FinishedMerge {
                            inputs: std::mem::take(&mut self.inputs),
                            output,
                        });
                    }
                }
                None
            }
        }
    }

    /// RAM held by this job's buffers: the entries read so far or the folded
    /// output.
    pub(super) fn ram_bytes(&self, entry_bytes: u64) -> u64 {
        match &self.phase {
            Phase::Read { entries, .. } => entries.len() as u64 * entry_bytes,
            Phase::Write(w) => w.ram_bytes(entry_bytes),
        }
    }
}

/// Collision folding (Algorithm 3) over `entries` as the read phase left
/// them — participants newest first, each in key order — in place: the
/// stable sort brings every key's entries together still newest first, and
/// the pass folds each such group into its head, compacting the survivors to
/// the front.
///
/// A fold that would drop every entry keeps the last key's instead, an
/// erase marker with no invalidation since (what a largest output drops),
/// which changes no query answer. So every merge writes a run: it keeps its
/// tree's flush watermark on flash, and its span records its inputs' death
/// (docs/DESIGN.md invariants 16 and 17).
fn fold(entries: &mut Vec<GeckoEntry>, output_is_largest: bool, entries_dropped: &mut u64) {
    entries.sort_by_key(|e| e.key);
    // `entries[..kept]` is the folded output so far; `head` starts a group.
    let (mut kept, mut head, mut last) = (0, 0, 0);
    while head < entries.len() {
        let mut next = head + 1;
        while next < entries.len() && entries[next].key == entries[head].key {
            let (newer, older) = entries.split_at_mut(next);
            newer[head].absorb_older(&older[0]);
            *entries_dropped += 1;
            next += 1;
        }
        let entry = &entries[head];
        let keep = if entry.erase_flag {
            // Erase markers with no newer bits are pure tombstones; they
            // can be dropped once nothing older can exist below them.
            !(output_is_largest && entry.bitmap.is_empty())
        } else {
            !entry.bitmap.is_empty()
        };
        if keep {
            entries.swap(kept, head);
            kept += 1;
        } else {
            *entries_dropped += 1;
        }
        last = head;
        head = next;
    }
    if kept == 0 && !entries.is_empty() {
        entries.swap(0, last);
        kept = 1;
        *entries_dropped -= 1;
    }
    entries.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gecko::entry::GeckoKey;
    use crate::validity::FlatMetaSink;
    use flash_sim::BlockId;

    /// Algorithm 3's collision rule, written out here rather than calling
    /// [`GeckoEntry::absorb_older`]: the reference model must not share the
    /// rule with the code under test.
    fn merge_collision(newer: &GeckoEntry, older: &GeckoEntry) -> GeckoEntry {
        if newer.erase_flag {
            newer.clone()
        } else {
            let mut bitmap = newer.bitmap.clone();
            bitmap.or_assign(&older.bitmap);
            GeckoEntry {
                key: newer.key,
                bitmap,
                erase_flag: older.erase_flag,
            }
        }
    }

    /// The fold this file had before it sorted — a k-way min-scan over one
    /// entry stream per participant, newest stream first — kept as the
    /// reference model of [`fold`], with its rule that a fold that would drop
    /// every entry keeps the last key's.
    fn fold_streams(
        streams: Vec<Vec<GeckoEntry>>,
        output_is_largest: bool,
        entries_dropped: &mut u64,
    ) -> Vec<GeckoEntry> {
        let mut cursors = vec![0usize; streams.len()];
        let mut merged = Vec::new();
        let mut last = None;
        loop {
            let mut min_key: Option<GeckoKey> = None;
            for (s, stream) in streams.iter().enumerate() {
                if let Some(e) = stream.get(cursors[s]) {
                    if min_key.is_none_or(|m| e.key < m) {
                        min_key = Some(e.key);
                    }
                }
            }
            let Some(key) = min_key else { break };
            let mut folded: Option<GeckoEntry> = None;
            for (s, stream) in streams.iter().enumerate() {
                if let Some(e) = stream.get(cursors[s]) {
                    if e.key == key {
                        cursors[s] += 1;
                        folded = Some(match folded {
                            None => e.clone(),
                            Some(newer) => {
                                *entries_dropped += 1;
                                merge_collision(&newer, e)
                            }
                        });
                    }
                }
            }
            let entry = folded.expect("at least one stream supplied the key");
            let keep = if entry.erase_flag {
                // Erase markers with no newer bits are pure tombstones; they
                // can be dropped once nothing older can exist below them.
                !(output_is_largest && entry.bitmap.is_empty())
            } else {
                !entry.bitmap.is_empty()
            };
            if keep {
                merged.push(entry);
            } else {
                *entries_dropped += 1;
                last = Some(entry);
            }
        }
        if merged.is_empty() {
            if let Some(entry) = last {
                merged.push(entry);
                *entries_dropped -= 1;
            }
        }
        merged
    }

    struct Lcg(u64);
    impl Lcg {
        /// A pseudo-random number below `n`.
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// The entry of key number `key` (four sub-entries per block) with a
    /// `bits`-wide bitmap holding `ones`.
    fn entry(key: u32, bits: u32, erase_flag: bool, ones: &[u32]) -> GeckoEntry {
        let key = GeckoKey {
            block: BlockId(key / 4),
            part: (key % 4) as u16,
        };
        let mut e = GeckoEntry::blank(key, bits);
        e.erase_flag = erase_flag;
        ones.iter().for_each(|&i| e.bitmap.set(i));
        e
    }

    /// Merge `streams` — one participant each, newest first, sorted by key —
    /// with a real [`MergeJob`]: written to a device as runs of V = 31
    /// entries per page, then read, folded and written in 7-page steps, so a
    /// step ends mid-participant. Returns the output run's entries and the
    /// job's drop count.
    fn merge_through_job(
        streams: &[Vec<GeckoEntry>],
        output_is_largest: bool,
    ) -> (Vec<GeckoEntry>, u64) {
        let levels = vec![0; streams.len()];
        let (_, merged, dropped) = merge_at_levels(streams, &levels, output_is_largest);
        (merged, dropped)
    }

    /// [`merge_through_job`] with participant `i` installed at `levels[i]`;
    /// also returns the output run.
    fn merge_at_levels(
        streams: &[Vec<GeckoEntry>],
        levels: &[u32],
        output_is_largest: bool,
    ) -> (Run, Vec<GeckoEntry>, u64) {
        let geo = Geometry::tiny();
        let cfg = GeckoConfig {
            page_header_bytes: geo.page_bytes - 190,
            ..GeckoConfig::default()
        };
        assert_eq!(cfg.entries_per_page(&geo), 31);
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((0..geo.blocks).map(BlockId).collect());
        // Oldest participant first, so sequence numbers grow with data age.
        let mut runs: Vec<Run> = streams
            .iter()
            .zip(levels)
            .rev()
            .map(|(entries, &level)| {
                let seq = dev.reserve_seq();
                let meta = RunMeta {
                    id: RunId(seq),
                    level,
                    supersedes_since: seq,
                    supersedes_upto: seq,
                };
                if entries.is_empty() {
                    // No run is empty; a participant without pages still
                    // exercises the read cursor's skip.
                    return Run {
                        meta,
                        pages: Vec::new(),
                        entry_count: 0,
                        filter: None,
                    };
                }
                let purpose = IoPurpose::ValidityUpdate;
                let mut w = RunWriter::new(&cfg, &geo, meta, entries.clone(), purpose);
                while !w.write_next_page(&mut dev, &mut sink) {}
                w.into_run().0
            })
            .collect();
        runs.reverse();

        let mut job = MergeJob::new(&mut dev, &runs, output_is_largest);
        let mut dropped = 0;
        let done = loop {
            let mut budget = 7;
            let step = job.step(
                &cfg,
                &geo,
                &runs,
                &mut dev,
                &mut sink,
                &mut budget,
                &mut dropped,
            );
            if let Some(done) = step {
                break done;
            }
        };
        assert_eq!(done.inputs.len(), streams.len());
        let mut merged = Vec::new();
        for page in &done.output.pages {
            let data = dev.read_page(page.ppn, IoPurpose::ValidityMerge).unwrap();
            merged.extend_from_slice(&data.blob::<GeckoPagePayload>().unwrap().entries);
        }
        (done.output, merged, dropped)
    }

    fn assert_matches_reference(streams: Vec<Vec<GeckoEntry>>, output_is_largest: bool) {
        let (merged, dropped) = merge_through_job(&streams, output_is_largest);
        let mut want_dropped = 0;
        let shape: Vec<usize> = streams.iter().map(Vec::len).collect();
        let want = fold_streams(streams, output_is_largest, &mut want_dropped);
        let label = format!("participants {shape:?}, output_is_largest {output_is_largest}");
        assert_eq!(merged, want, "{label}");
        assert_eq!(dropped, want_dropped, "entries_dropped, {label}");
    }

    /// Seeded cases: 1–8 participants of 0–400 entries over a key universe
    /// small enough that keys collide across any number of them, erase flags
    /// and empty bitmaps anywhere, inline (32-bit) and heap (512-bit)
    /// bitmaps, both tombstone rules. A case whose participants are all empty
    /// is skipped: a merge always has a non-empty run.
    #[test]
    fn fold_matches_reference_on_seeded_inputs() {
        let mut rng = Lcg(0x22_F01D);
        for case in 0..120 {
            let bits = if case % 2 == 0 { 32 } else { 512 };
            let universe = 1 + rng.below(400) as u32;
            let streams: Vec<Vec<GeckoEntry>> = (0..1 + rng.below(8))
                .map(|_| {
                    // Eighths of the universe this participant holds: none
                    // to all of it.
                    let density = rng.below(9);
                    let mut entries = Vec::new();
                    for key in 0..universe {
                        if rng.below(8) >= density {
                            continue;
                        }
                        let ones: Vec<u32> = (0..rng.below(4))
                            .map(|_| rng.below(bits as u64) as u32)
                            .collect();
                        entries.push(entry(key, bits, rng.below(4) == 0, &ones));
                    }
                    entries
                })
                .collect();
            let largest = rng.below(2) == 0;
            if streams.iter().all(Vec::is_empty) {
                continue;
            }
            assert_matches_reference(streams, largest);
        }
    }

    /// One key held by 1–4 participants, every combination of erase flags
    /// (newest, middle, oldest, several) and of empty bitmaps (with and
    /// without the flag), both tombstone rules. Participant `i` owns bit
    /// `i`, so what was OR-ed in and what was cut off by an erase shows.
    #[test]
    fn fold_matches_reference_on_every_collision_shape() {
        for k in 1..=4u32 {
            for flags in 0..1u32 << k {
                for empties in 0..1u32 << k {
                    let streams = |bits: u32| -> Vec<Vec<GeckoEntry>> {
                        (0..k)
                            .map(|i| {
                                let ones = if empties >> i & 1 == 1 {
                                    vec![]
                                } else {
                                    vec![i]
                                };
                                vec![entry(9, bits, flags >> i & 1 == 1, &ones)]
                            })
                            .collect()
                    };
                    for (bits, output_is_largest) in
                        [(32, false), (32, true), (512, false), (512, true)]
                    {
                        assert_matches_reference(streams(bits), output_is_largest);
                    }
                }
            }
        }
    }

    /// Newest participant: an erase marker for every key. Below it nothing
    /// survives, and as the largest run the markers themselves are
    /// tombstones — but the merge still writes a run, holding the last key's
    /// marker alone.
    #[test]
    fn merge_whose_entries_all_fold_away_keeps_the_last_marker() {
        let markers: Vec<GeckoEntry> = (0..100).map(|k| entry(k, 32, true, &[])).collect();
        let older: Vec<GeckoEntry> = (0..100)
            .step_by(3)
            .map(|k| entry(k, 32, false, &[5]))
            .collect();
        let oldest: Vec<GeckoEntry> = (0..100)
            .step_by(2)
            .map(|k| entry(k, 32, true, &[7]))
            .collect();
        let total = (markers.len() + older.len() + oldest.len()) as u64;
        let (merged, dropped) = merge_through_job(&[markers, older, oldest], true);
        assert_eq!(merged, [entry(99, 32, true, &[])]);
        assert_eq!(dropped, total - 1);
    }

    /// A merge output's level is the deepest input's or the level its page
    /// count calls for (`level_for`), whichever is deeper: inputs stay
    /// installed with the levels they were planned at, and an output never
    /// lands above one of them (merge_job invariant 1). With `T = 2` and 31
    /// entries a page: a 10-entry run at level 0 over a 40-entry run at
    /// level 5 leaves a 2-page output at level 5, not at `level_for(2)` = 1;
    /// 279 distinct keys in runs at levels 0 and 1 leave 9 pages at
    /// `level_for(9)` = 3.
    ///
    /// Mutations this fails on: the output taking the newest input's level,
    /// or the writer not raising the level to `level_for(pages)`.
    #[test]
    fn merge_output_level_is_the_deepest_input_or_its_page_count() {
        let keys = |from: u32, n: u32| -> Vec<GeckoEntry> {
            (from..from + n)
                .map(|k| entry(k, 32, false, &[1]))
                .collect()
        };
        let cfg = GeckoConfig::default();
        for (streams, levels, want) in [
            (vec![keys(0, 10), keys(100, 40)], [0, 5], 5),
            (vec![keys(0, 140), keys(140, 139)], [0, 1], 3),
        ] {
            let (output, merged, _) = merge_at_levels(&streams, &levels, false);
            let pages = output.pages.len() as u64;
            assert_eq!(merged.len(), streams.iter().map(Vec::len).sum::<usize>());
            assert_eq!(
                output.meta.level, want,
                "inputs at {levels:?}, {pages} pages"
            );
            assert_eq!(want, levels[1].max(cfg.level_for(pages)));
        }
    }
}
