//! Flash-resident runs and their RAM-resident run directories (paper §3).
//!
//! A *run* is a sorted, immutable sequence of Gecko entries spanning one or
//! more flash pages. The RAM-resident *run directory* records, for every page
//! of the run, its physical location and the key range it covers, so a GC
//! query reads at most one page per run (Figure 5).
//!
//! For recovery (Appendix C.1), each run is self-describing in flash:
//!
//! * the **first** page carries a preamble (run ID, level, creation
//!   timestamp, and the IDs of the runs it was merged from);
//! * **every** page carries a header with the run ID and page index;
//! * the **last** page carries a postamble: a copy of the run directory.
//!
//! These are modelled as in-page metadata (a few dozen bytes accounted via
//! [`crate::gecko::GeckoConfig::page_header_bytes`]), so a buffer flush still
//! costs exactly one flash write.
//!
//! Every page's **spare area** carries the run ID, the run's data-age span
//! ([`RunMeta::span`]) and the block of its first key, which names the owning
//! shard ([`flash_sim::MetaTag::Run`]). Recovery's spare scan judges each
//! run's liveness from these alone and reads only the runs it keeps.

use crate::gecko::entry::{GeckoEntry, GeckoKey};
use crate::gecko::filter::RunFilter;
use flash_sim::Ppn;

/// Unique identifier of a run, assigned at creation and never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RunId(pub u64);

/// Run-level metadata, persisted in the preamble of the run's first page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Unique run identifier.
    pub id: RunId,
    /// Level the run was placed at when created.
    pub level: u32,
    /// Device sequence number at creation; recovery uses it to order runs.
    pub created_seq: u64,
    /// The buffer-flush watermark this run certifies: recovery may assume
    /// that every validity report buffered before this sequence number is
    /// durable in some recoverable run. Recovery derives the last
    /// buffer-flush time (Appendix C.2) as the max watermark over live
    /// runs, and replays only reports newer than it (steps 4a/4b).
    ///
    /// The stamp must therefore be conservative about *in-flight* state:
    ///
    /// * A buffer flush emits its chunks as separate single-page runs, and
    ///   only the **final** chunk — the one that empties the buffer — may
    ///   carry its own `created_seq`. Earlier chunks carry the watermark
    ///   from *before* the flush began: when one of them is on flash but
    ///   the buffer tail is not yet written, a crash must roll the
    ///   threshold back far enough for recovery to re-derive the tail.
    /// * A merge output carries the owning tree's `last_flush_seq` at fold
    ///   time. With incremental merging the output is sealed long after
    ///   the flush that scheduled it — possibly after further erases and
    ///   invalidations entered the RAM buffer — so its own `created_seq`
    ///   would overclaim.
    pub flush_seq: u64,
    /// IDs of the runs this run replaced (empty for buffer flushes).
    /// Recovery treats every run named here as dead: its entries live on
    /// in this (sealed, hence durable) output.
    pub merged_from: Vec<RunId>,
    /// Lower bound of this run's *data-age span*: the oldest
    /// `supersedes_since` over its transitive merge inputs (its own
    /// `created_seq` for buffer flushes). Together with
    /// [`RunMeta::supersedes_upto`] it describes exactly which slice of
    /// validity history this run carries, so recovery can identify
    /// merged-away leftovers even when intermediate superseders have
    /// already been erased from flash (a `merged_from` chain alone breaks
    /// in that case), and queries can order runs by data age.
    pub supersedes_since: u64,
    /// Upper bound of this run's *data-age span*: the newest
    /// `supersedes_upto` over its transitive merge inputs (its own
    /// `created_seq` for buffer flushes) — i.e. the sequence number of the
    /// newest validity data folded into this run.
    ///
    /// Two load-bearing properties, both enforced by the merge planner's
    /// span-contiguity rule ([`crate::gecko::merge_job`] invariant 4):
    ///
    /// * **Query order.** Runs are traversed newest-span-first. With
    ///   several merge jobs in flight per tree, levels alone no longer
    ///   order data age (a late-planned job over fresh flushes can install
    ///   deeper than an early-planned job over old runs), and
    ///   `created_seq` alone never did.
    /// * **Recovery liveness.** Live runs' spans are pairwise disjoint and
    ///   merging is laminar (an output's span is the union of its inputs'),
    ///   so after a crash a candidate run is superseded **iff** its span is
    ///   strictly contained in a live candidate's span. A run created after
    ///   `supersedes_upto` was reserved cannot have been folded into this
    ///   one, which keeps flushes that land while a merge is in flight
    ///   alive across a crash.
    pub supersedes_upto: u64,
}

impl RunMeta {
    /// The run's closed data-age span `[supersedes_since, supersedes_upto]`.
    pub fn span(&self) -> (u64, u64) {
        (self.supersedes_since, self.supersedes_upto)
    }

    /// Sort key for newest-data-first traversals: spans of live runs are
    /// pairwise disjoint, so descending `supersedes_upto` is a total data-age
    /// order; `created_seq` breaks ties for robustness only.
    pub fn data_age(&self) -> (u64, u64) {
        (self.supersedes_upto, self.created_seq)
    }
}

/// One run-directory entry: a page of the run and the key range it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunDirEntry {
    /// Physical location of the page.
    pub ppn: Ppn,
    /// Smallest key stored on the page.
    pub first: GeckoKey,
    /// Largest key stored on the page.
    pub last: GeckoKey,
}

/// A live run: metadata plus its RAM-resident directory.
#[derive(Clone, Debug)]
pub struct Run {
    /// Preamble metadata.
    pub meta: RunMeta,
    /// The run directory: one entry per flash page, in key order.
    pub pages: Vec<RunDirEntry>,
    /// Total number of Gecko entries stored in the run.
    pub entry_count: u64,
    /// RAM-resident blocked Bloom filter over the run's keys, built at
    /// flush/merge time. `None` for recovered runs (the filter is not
    /// persisted — see [`crate::gecko::filter`]) and when
    /// [`crate::gecko::GeckoConfig::bloom_bits_per_key`] is 0; queries then
    /// fall back to the paper's probe-every-run bound.
    pub filter: Option<RunFilter>,
}

impl Run {
    /// Number of flash pages the run occupies.
    pub fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Whether the run may contain `key` (false ⇒ definitely absent).
    /// Runs without a filter conservatively answer `true`.
    #[inline]
    pub fn may_contain(&self, key: GeckoKey) -> bool {
        self.filter.as_ref().is_none_or(|f| f.may_contain(key))
    }

    /// RAM used by the run's Bloom filter, in bytes.
    pub fn filter_bytes(&self) -> u64 {
        self.filter.as_ref().map_or(0, RunFilter::ram_bytes)
    }

    /// The unique page that can hold `key`, via binary search over the
    /// fence pointers (keys are unique within a run, so at most one page
    /// qualifies). `None` if the key falls outside every page's range.
    #[inline]
    pub fn page_for(&self, key: GeckoKey) -> Option<&RunDirEntry> {
        let i = self.pages.partition_point(|p| p.last < key);
        self.pages.get(i).filter(|p| p.first <= key)
    }
}

/// The payload stored in each flash page of a run (behind
/// [`flash_sim::PageData::Blob`]).
#[derive(Clone, Debug)]
pub struct GeckoPagePayload {
    /// Run this page belongs to (in-page header).
    pub run_id: RunId,
    /// Position of this page within the run (in-page header).
    pub page_index: u32,
    /// The sorted Gecko entries stored on this page.
    pub entries: Vec<GeckoEntry>,
    /// Present on the first page only: the run preamble.
    pub preamble: Option<RunMeta>,
    /// Present on the last page only: the run postamble.
    pub postamble: Option<Postamble>,
}

/// Postamble: a persistent copy of the run directory (Appendix C.1).
///
/// The last page cannot know its own physical address before being written,
/// so its slot in `ppns` is a placeholder that recovery fills in with the
/// address it found the postamble at.
#[derive(Clone, Debug)]
pub struct Postamble {
    /// Total pages in the run; recovery discards runs found with fewer
    /// pages (partially-written merge output).
    pub total_pages: u32,
    /// Key range of every page, in page order.
    pub ranges: Vec<(GeckoKey, GeckoKey)>,
    /// Physical addresses of pages `0 .. total_pages-1` (the final slot is
    /// meaningless; see type-level docs).
    pub ppns: Vec<Ppn>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::BlockId;

    fn key(b: u32, p: u16) -> GeckoKey {
        GeckoKey {
            block: BlockId(b),
            part: p,
        }
    }

    fn run_with_pages(ranges: &[(GeckoKey, GeckoKey)]) -> Run {
        Run {
            meta: RunMeta {
                id: RunId(1),
                level: 0,
                created_seq: 1,
                flush_seq: 1,
                merged_from: vec![],
                supersedes_since: 1,
                supersedes_upto: 1,
            },
            pages: ranges
                .iter()
                .enumerate()
                .map(|(i, (f, l))| RunDirEntry {
                    ppn: Ppn(i as u32),
                    first: *f,
                    last: *l,
                })
                .collect(),
            entry_count: 0,
            filter: None,
        }
    }

    #[test]
    fn fence_search_agrees_with_linear_scan() {
        let run = run_with_pages(&[
            (key(0, 0), key(9, 3)),
            (key(10, 0), key(19, 3)),
            (key(20, 0), key(29, 3)),
            (key(40, 0), key(49, 3)),
        ]);
        for b in 0..60u32 {
            for p in 0..4u16 {
                let k = key(b, p);
                let linear = run.pages.iter().find(|pg| pg.first <= k && k <= pg.last);
                assert_eq!(run.page_for(k), linear, "page_for({b},{p})");
            }
        }
        // Gap between pages: key 35 belongs to no page.
        assert_eq!(run.page_for(key(35, 0)), None);
    }

    #[test]
    fn filterless_run_conservatively_may_contain() {
        let run = run_with_pages(&[(key(0, 0), key(9, 3))]);
        assert!(run.may_contain(key(99, 0)));
        assert_eq!(run.filter_bytes(), 0);
    }
}
