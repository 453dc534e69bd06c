//! GeckoRec: GeckoFTL's power-failure recovery (paper §4.3 + Appendix C).
//!
//! A crash loses *all* RAM-resident state: the GMD, the LRU cache (with its
//! dirty entries), Logarithmic Gecko's buffer and run directories, BVC, and
//! the block manager's bookkeeping. Only the flash device survives. GeckoRec
//! rebuilds everything in eight steps, reading the device exclusively
//! through IO-charged spare/page reads so the reported recovery cost is
//! honest:
//!
//! 1. **BID** — scan one spare area per block, its newest page's, to
//!    classify blocks and timestamp them (the Blocks Information Directory).
//! 2. **GMD** — scan translation-block spare areas; the newest version of
//!    each translation page wins.
//! 3. **Run directories** — scan Gecko-block spare areas, which carry each
//!    run's id, data-age span, level and page count and each page's key
//!    range; skip every merged-away leftover (a span strictly inside a kept
//!    run's span) and every partial run (fewer pages than its tags count),
//!    and build the rest's directories from the tags. No page is read
//!    (docs/DESIGN.md invariant 16).
//! 4. **Buffer** — recreate erase markers for blocks erased since the last
//!    buffer flush, by their persisted erase timestamps (C.2.1), and
//!    invalidations lost with the buffer by
//!    diffing each translation-page version written since the last flush
//!    against the version its spare area names (C.2.2), each version read
//!    once, with an erase-timestamp check that also handles physical page
//!    reuse. The versions diffed become the engine's version chain, so their
//!    blocks stay protected until their reports are durable again and the
//!    next recovery can read them. Step 2's versions go to the engine's
//!    block manager, which keeps the payloads of step 4b's read set against
//!    step 4's threshold and reclaims the rest (docs/DESIGN.md invariants
//!    14 and 17).
//! 5. **BVC** — rebuild per-block valid counts from a full scan of
//!    Logarithmic Gecko plus the recovered buffer, reading each live run page
//!    once.
//! 6. **Dirty entries** — backwards scan of the most recently written user
//!    pages, newest first across blocks (step 1's newest pages open them),
//!    down to the checkpoint horizon the translation pages persist, and no
//!    other bound (docs/DESIGN.md invariant 15), recreating a cached
//!    mapping entry per fresh LPN and each before-pointer's invalidation.
//! 7. **Flags** — recovered entries get dirty/UIP/uncertain = true;
//!    corrections happen lazily after operation resumes (Appendix C.3).
//! 8. **Resume** — dispose of BID, reassemble the engine with step 4's
//!    version chain; step 5's invalid bitmaps stay with it while the
//!    corrections may re-report a page BVC already counts (docs/DESIGN.md
//!    invariant 13). If step 6 re-derived the old copy of a page a
//!    collection cut by the power had migrated before the last flush, the
//!    store flushes first (invariant 18).
//!
//! Each shortcut here (run directories from spare tags, erase timestamps
//! instead of spare reads, the scan stopped at the horizon) has no second,
//! slower rule beside it. The crash tests and the fuzz corpus check every
//! recovery against a reference GeckoRec in test-support code
//! (`crates/core/tests/common/reference.rs`), which applies Appendix C
//! literally, reading every page and spare area and building run directories
//! from the entries: the recovered engine must give its every user block's
//! GC answer and BVC.

use crate::cache::{CacheEntry, MappingCache};
use crate::ftl::block_manager::{BlockGroup, BlockManager, BlockState, Version};
use crate::ftl::{FtlConfig, FtlEngine, GcPolicy, RecoveredInvalid, ValidityBackend};
use crate::gecko::sharded::shard_index;
use crate::gecko::{Bitmap, GeckoConfig, LogGecko, Run, RunDirEntry, RunId, RunMeta, ShardedGecko};
use crate::translation::{TranslationPagePayload, TranslationTable};
use flash_sim::{
    BlockId, FlashDevice, IoPurpose, MetaKind, MetaTag, PageOffset, Ppn, SpanKind, Spare, SpareInfo,
};
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// The eight steps of GeckoRec, for per-step cost reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Step 1: Blocks Information Directory.
    Bid,
    /// Step 2: Global Mapping Directory.
    Gmd,
    /// Step 3: Logarithmic Gecko run directories.
    RunDirectories,
    /// Step 4: Logarithmic Gecko buffer (erases + invalidations).
    Buffer,
    /// Step 5: Blocks Validity Counter.
    Bvc,
    /// Step 6: dirty cached mapping entries (backwards scan).
    DirtyEntries,
}

/// IO cost of one recovery step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepCost {
    /// Spare-area reads performed.
    pub spare_reads: u64,
    /// Full page reads performed.
    pub page_reads: u64,
    /// Simulated time, in microseconds.
    pub sim_us: f64,
}

/// Full recovery report: per-step costs plus totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// `(step, cost)` in execution order.
    pub steps: Vec<(RecoveryStep, StepCost)>,
    /// Entries recreated in the cache by step 6.
    pub recovered_entries: usize,
    /// Erase markers recreated by step 4a.
    pub recovered_erases: usize,
    /// Invalidations recreated by step 4b.
    pub recovered_invalidations: usize,
    /// Each tree's flush watermark as step 3 found it on flash, in shard
    /// order: the span end of the tree's newest live run, 0 for a tree with
    /// none (docs/DESIGN.md invariant 17). Steps 4a and 4b re-derive what is
    /// newer (Appendix C.2).
    pub flush_watermarks: Vec<u64>,
}

impl RecoveryReport {
    /// Total simulated recovery time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.steps.iter().map(|(_, c)| c.sim_us).sum::<f64>() / 1e6
    }

    /// Total spare reads across steps.
    pub fn total_spare_reads(&self) -> u64 {
        self.steps.iter().map(|(_, c)| c.spare_reads).sum()
    }

    /// Total page reads across steps.
    pub fn total_page_reads(&self) -> u64 {
        self.steps.iter().map(|(_, c)| c.page_reads).sum()
    }
}

/// One BID entry (Appendix C step 1).
#[derive(Clone, Copy, Debug)]
struct BidEntry {
    group: Option<BlockGroup>,
    /// The block's newest page whose spare area reads back, as its offset
    /// and that spare area (`None` if the block is empty).
    newest: Option<(u32, Spare)>,
    written: u32,
}

impl BidEntry {
    /// Where step 6 walks the block's last page: at its seq, or first of all
    /// (`u64::MAX`) if its spare area is torn. A torn page is the write a
    /// power cut killed, newer than every readable page; its readable
    /// neighbour below may be older than where the scan stops (a relocation
    /// frontier fills slowly).
    fn walk_key(&self) -> u64 {
        match self.newest {
            Some((top, spare)) if top + 1 == self.written => spare.seq,
            _ => u64::MAX,
        }
    }
}

/// A step 6 cursor: the next user page of one block to walk, with its spare
/// area already read (`None` if torn). Ordered by `seq` alone: its page's,
/// or for a torn spare area the page above it's (`u64::MAX` at the top of a
/// block), so it is walked next. A block has one cursor at a time, and only
/// torn pages share a seq.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cursor {
    seq: u64,
    ppn: Ppn,
    spare: Option<Spare>,
}

impl Ord for Cursor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

impl PartialOrd for Cursor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct StepTimer {
    start_counts: flash_sim::IoCounts,
    start_us: f64,
}

impl StepTimer {
    fn start(dev: &FlashDevice) -> Self {
        StepTimer {
            start_counts: dev.stats().counts(IoPurpose::Recovery),
            start_us: dev.clock().now_us(),
        }
    }

    /// Close the step: compute its cost and record a `Recovery` telemetry
    /// span for it (`step` is the 1-based GeckoRec step number). The span
    /// duration is the *same subtraction* as `sim_us`, so the run's
    /// `Recovery` spans sum to `RecoveryReport::total_secs` exactly.
    fn stop(self, dev: &mut FlashDevice, step: u32) -> StepCost {
        let counts = dev.stats().counts(IoPurpose::Recovery);
        let now_us = dev.clock().now_us();
        dev.telemetry_mut()
            .record_span(SpanKind::Recovery, step, self.start_us, now_us);
        StepCost {
            spare_reads: counts.spare_reads - self.start_counts.spare_reads,
            page_reads: counts.page_reads - self.start_counts.page_reads,
            sim_us: now_us - self.start_us,
        }
    }
}

/// Run GeckoRec on a crashed device and return the recovered engine plus the
/// cost report.
///
/// `cfg` and `gecko_cfg` are configuration, not state: a real device stores
/// them in a superblock; re-deriving them costs no IO.
pub fn gecko_recover(
    mut dev: FlashDevice,
    cfg: FtlConfig,
    gecko_cfg: GeckoConfig,
) -> (FtlEngine, RecoveryReport) {
    let geo = dev.geometry();
    let mut report = RecoveryReport::default();

    // ---- Step 1: BID — one spare read per non-empty block. -------------
    // The paper's "K spare area reads, one per flash block": each block's
    // newest page, which names its group, and whose seq orders step 6.
    let timer = StepTimer::start(&dev);
    let mut bid: Vec<BidEntry> = Vec::with_capacity(geo.blocks as usize);
    for b in geo.iter_blocks() {
        let written = dev.written_pages(b);
        // A torn spare area is an in-flight write a power cut killed, and a
        // failed read costs nothing; the newest page that reads back stands
        // in for the block. (GeckoRec scrubs a block whose first page is
        // torn, so a torn page always has a readable one below it.)
        let newest = (0..written).rev().find_map(|off| {
            let ppn = geo.ppn(b, PageOffset(off));
            dev.read_spare(ppn, IoPurpose::Recovery)
                .ok()
                .map(|s| (off, s))
        });
        let Some((top, spare)) = newest else {
            if written > 0 {
                // Torn first page (power cut mid-program on a fresh block):
                // the block holds exactly one page — the torn one, always
                // the globally newest write — and nothing on it was
                // acknowledged. Quarantine-scrub it back into circulation.
                if dev.erase_block(b, IoPurpose::Recovery).is_err() {
                    dev.mark_bad(b); // unscrubbable: retire it for good
                }
            }
            bid.push(BidEntry {
                group: None,
                newest: None,
                written: 0,
            });
            continue;
        };
        let group = match spare.info {
            SpareInfo::User { .. } => BlockGroup::User,
            SpareInfo::Translation { .. } => BlockGroup::Translation,
            SpareInfo::Meta { kind, .. } => BlockGroup::Meta(kind),
        };
        bid.push(BidEntry {
            group: Some(group),
            newest: Some((top, spare)),
            written,
        });
    }
    report
        .steps
        .push((RecoveryStep::Bid, timer.stop(&mut dev, 1)));

    // ---- Step 2: GMD — scan spare areas of all translation pages. ------
    let timer = StepTimer::start(&dev);
    let n_tpages = geo.translation_pages() as usize;
    // All surviving versions of every translation page, sorted by seq.
    let mut tpage_versions: Vec<Vec<Version>> = vec![Vec::new(); n_tpages];
    for b in geo.iter_blocks() {
        if bid[b.0 as usize].group != Some(BlockGroup::Translation) {
            continue;
        }
        for off in 0..bid[b.0 as usize].written {
            let ppn = geo.ppn(b, PageOffset(off));
            let Ok(spare) = dev.read_spare(ppn, IoPurpose::Recovery) else {
                continue; // torn spare: the page has no identity
            };
            let SpareInfo::Translation { tpage, before } = spare.info else {
                panic!("translation block holds {:?}", spare.info)
            };
            if !dev.is_written(ppn) {
                continue; // torn data: never point the GMD at an unreadable page
            }
            tpage_versions[tpage as usize].push(Version {
                seq: spare.seq,
                ppn,
                before,
            });
        }
    }
    for versions in &mut tpage_versions {
        versions.sort_unstable_by_key(|v| v.seq);
    }
    let gmd: Vec<Option<Ppn>> = tpage_versions
        .iter()
        .map(|v| v.last().map(|v| v.ppn))
        .collect();
    report
        .steps
        .push((RecoveryStep::Gmd, timer.stop(&mut dev, 2)));

    // ---- Step 3: run directories. ---------------------------------------
    let timer = StepTimer::start(&dev);
    // Every run holds keys of exactly one shard (shards never share a
    // tree), so its first key names the owning shard. Candidates MUST be
    // partitioned by shard before liveness is judged: spans live in the
    // global sequence space but merging is
    // laminar only within a shard, so two shards' flush spans can nest
    // without any supersession — a global containment walk would kill
    // live runs. Each shard's tree is then reassembled independently,
    // with its own flush watermark.
    let shard_runs = recover_runs(&mut dev, &bid, gecko_cfg.shards);
    let live_pages: HashSet<Ppn> = shard_runs
        .iter()
        .flatten()
        .flat_map(|r| r.pages.iter().map(|p| p.ppn))
        .collect();
    // Every merge leaves a run, so each tree's watermark is on flash in its
    // runs (docs/DESIGN.md invariant 17).
    let trees = shard_runs
        .into_iter()
        .map(|rs| LogGecko::from_recovered(geo, gecko_cfg, rs))
        .collect();
    let mut gecko = ShardedGecko::from_shards(geo, trees);
    report
        .steps
        .push((RecoveryStep::RunDirectories, timer.stop(&mut dev, 3)));

    // ---- Step 4: buffer. -------------------------------------------------
    let timer = StepTimer::start(&dev);
    // The global replay horizon is the *minimum* shard watermark: steps 4b
    // and 6 must re-derive reports for the least-advanced shard. A report
    // routed to a shard that already flushed it is re-absorbed
    // idempotently — the recovered bit is factually true (both checks
    // below verify the invalidated page still holds the superseded data),
    // and validity bits are OR-ed, so a duplicate changes no query answer.
    let threshold = gecko.last_flush_seq();
    let shard_thresholds = gecko.shard_flush_seqs();
    report.flush_watermarks.clone_from(&shard_thresholds);
    // 4a (C.2.1): blocks erased since the last flush get erase markers. The
    // erase timestamp is persisted in a spare area (Appendix D), read as
    // part of the step-1 scan.
    //
    // The paper's rule also names every block "free or whose first page was
    // written after this timestamp". A free block's marker changes no
    // answer. A block erased before the flush whose first page is newer
    // holds only pages written after the flush, so no flushed report names
    // one: a report of a page's previous life would have to come after the
    // erase, and step 4b judges a page by the seq its mappings were current
    // at (docs/DESIGN.md invariant 12), so none does. The erase timestamp
    // alone decides, with no spare read.
    //
    // The timestamp is the *owning shard's* watermark, not the global
    // minimum: an erase marker masks every older entry for its block, so
    // recreating one the owning shard had already persisted would hide
    // post-erase invalidations that sit in that shard's runs. (Unlike plain
    // invalidation bits, markers are not idempotent across a flush
    // boundary.)
    for b in geo.iter_blocks() {
        if dev.erase_seq(b) > shard_thresholds[gecko.shard_of(b)] {
            gecko.recover_erase_marker(b);
            report.recovered_erases += 1;
        }
    }
    // 4b (C.2.2): diff each translation-page version written since the last
    // flush against the version its spare area names, when that page still
    // holds it; every mapping change names a physical page that was
    // invalidated after the flush. Every version newer than the flush is
    // read once, in seq order, and carried forward as the next one's base;
    // the first one's base is the newest version at or before the flush,
    // read only if the first one names it. A named version that is gone was
    // erased once its link was released at the durable watermark, which
    // runs ahead of the persisted MIN: the naming version's reports are
    // durable, so nothing is diffed for it, and no older version is read in
    // its place (docs/DESIGN.md, "Deviations"). Every version read also
    // hands step 6 the checkpoint horizon it carries; the newest is the
    // tightest, and only the newest version of all may cost a read of its
    // own (below).
    //
    // The engine resumes with the chain read here (`BlockManager::protect`):
    // one link per version newer than the threshold, stamped with its seq
    // and protecting the block of the version it names, if held. Without
    // them the engine would erase a base the next recovery diffs against,
    // and lose the reports only that diff re-derives.
    //
    // The threshold is never below the MIN the engine kept payloads against
    // before the crash, so every version read here is one whose payload it
    // kept (`BlockManager::keep_read_set`, which step 8 applies to step 2's
    // versions against this threshold).
    let mut horizon = 0;
    let mut chain: Vec<(Option<BlockId>, u64)> = Vec::new();
    for versions in &tpage_versions {
        let split = versions.partition_point(|v| v.seq <= threshold);
        if split == versions.len() {
            continue;
        }
        for v in &versions[split..] {
            chain.push((held_base(&dev, v).map(|b| geo.block_of(b)), v.seq));
        }
        if versions.len() == 1 {
            continue; // a page's only version: nothing to diff, nothing to feed
        }
        // Whether `versions[i]` diffs against the version before it: it
        // names that one, still held. A held named version that is not the
        // one before it is the original of a GC migration copy, still on
        // flash at the power cut; the copy repeats its original, whose own
        // diff re-derives the same reports.
        let diffs = |dev: &FlashDevice, i: usize| {
            i.checked_sub(1)
                .is_some_and(|j| held_base(dev, &versions[i]) == Some(versions[j].ppn))
        };
        let mut prev: Option<(Vec<u32>, u64)> =
            diffs(&dev, split).then(|| read_tpage(&mut dev, versions[split - 1].ppn, &mut horizon));
        for (i, v) in versions.iter().enumerate().skip(split) {
            let (entries, mapped_at) = read_tpage(&mut dev, v.ppn, &mut horizon);
            if let Some((prev_entries, prev_mapped_at)) = prev.as_ref().filter(|_| diffs(&dev, i)) {
                let prev_mapped_at = *prev_mapped_at;
                for (&old_val, &new_val) in prev_entries.iter().zip(&entries) {
                    if old_val == new_val || old_val == u32::MAX {
                        continue;
                    }
                    let candidate = Ppn(old_val);
                    // Timestamp check: only report if the page still holds
                    // the exact data this synchronization invalidated. The
                    // previous version pointed at it, so it was written
                    // before that version's mappings were current,
                    // `prev_mapped_at` (its own seq, or the original's for a
                    // GC copy); a block not erased since still holds it, and
                    // one erased since (an erase takes its own sequence
                    // number, so the two never tie) holds only newer data —
                    // a fresh life, e.g. after a GC UIP-skip, which must not
                    // be re-marked. The persisted erase timestamp (step 1's
                    // scan, as in step 4a) decides this without a spare read.
                    if dev.erase_seq(geo.block_of(candidate)) < prev_mapped_at {
                        gecko.recover_invalidation(candidate);
                        report.recovered_invalidations += 1;
                    }
                }
            }
            prev = Some((entries, mapped_at));
        }
    }
    // The newest version carries the newest horizon, which a checkpoint's
    // last sync writes. When the diffs above did not read it (it is no newer
    // than the flush, or its page's only version), one page read hands it to
    // step 6.
    let newest = tpage_versions
        .iter()
        .filter_map(|versions| Some((versions.last()?, versions.len())))
        .max_by_key(|(v, _)| v.seq);
    if let Some((v, _)) = newest.filter(|&(v, len)| v.seq <= threshold || len == 1) {
        read_tpage(&mut dev, v.ppn, &mut horizon);
    }
    report
        .steps
        .push((RecoveryStep::Buffer, timer.stop(&mut dev, 4)));

    // ---- Step 5: BVC. -----------------------------------------------------
    let timer = StepTimer::start(&dev);
    let mut invalid_maps = gecko.scan_all_bitmaps(&mut dev, IoPurpose::Recovery);
    let mut bvc = vec![0u32; geo.blocks as usize];
    let mut state = vec![BlockState::Free; geo.blocks as usize];
    for b in geo.iter_blocks() {
        let entry = &bid[b.0 as usize];
        let Some(group) = entry.group else { continue };
        state[b.0 as usize] = BlockState::InUse(group);
        bvc[b.0 as usize] = match group {
            BlockGroup::User => {
                let invalid = invalid_maps.get(&b).map_or(0, |bm| {
                    (0..entry.written).filter(|&i| bm.get(i)).count() as u32
                });
                entry.written - invalid
            }
            BlockGroup::Translation => (0..entry.written)
                .filter(|&off| {
                    let ppn = geo.ppn(b, PageOffset(off));
                    gmd.contains(&Some(ppn))
                })
                .count() as u32,
            BlockGroup::Meta(MetaKind::GeckoRun) => (0..entry.written)
                .filter(|&off| live_pages.contains(&geo.ppn(b, PageOffset(off))))
                .count() as u32,
            // Other metadata kinds belong to baseline stores, which GeckoRec
            // does not manage.
            BlockGroup::Meta(_) => entry.written,
        };
    }
    report
        .steps
        .push((RecoveryStep::Bvc, timer.stop(&mut dev, 5)));

    // ---- Step 6: dirty cached mapping entries. ----------------------------
    let timer = StepTimer::start(&dev);
    let mut cache = MappingCache::new(cfg.cache_entries);
    // Newest page first across the user blocks: a max-heap of per-block
    // cursors, each keyed by the seq of the page it points at. Blocks wait
    // newest first by their last page ([`BidEntry::walk_key`]), and one
    // opens when the heap's top is older than that page; its first cursor is
    // step 1's spare area, read once. So every walked page costs one spare
    // read, except each block's newest, and each block still open when the
    // scan stops costs the one it read ahead. Where the user group appends at
    // more than one frontier, blocks' seq ranges interleave: no per-block key
    // orders the pages.
    let mut closed: Vec<BlockId> = geo
        .iter_blocks()
        .filter(|b| bid[b.0 as usize].group == Some(BlockGroup::User))
        .collect();
    closed.sort_unstable_by_key(|b| std::cmp::Reverse(bid[b.0 as usize].walk_key()));
    let mut closed = closed.into_iter().peekable();
    let mut cursors: BinaryHeap<Cursor> = BinaryHeap::new();
    // Dirty-entry recreation stops at the checkpoint horizon step 4b read,
    // and only there: no dirty entry pointed at an older page when any
    // version carrying it was written, nor at any time since (DESIGN.md
    // invariant 15). A checkpoint every `C` cache operations keeps it near
    // the start of the previous epoch, about 1.5·C pages back; an engine
    // that recovered keeps its recreated entries dirty until its first
    // checkpoint, so the next recovery's horizon can lie further back, and
    // the scan must reach it. Without checkpoints (battery, or the ablation)
    // the horizon is 0 and the scan must cover everything.
    let mut seen: HashSet<flash_sim::Lpn> = HashSet::new();
    // Newest-first list of recreated entries; the newest `C` go into the
    // cache, the remainder (possible only when GC-migration copies inflate
    // the unique count) are verified eagerly right after resume.
    let mut recreated: Vec<CacheEntry> = Vec::new();
    // The seq of the oldest page an entry was recreated from.
    let mut oldest_recreated = None;
    // Whether a before-pointer re-derived a report of a collection the
    // power cut, below its tree's flush watermark.
    let mut cut_collection = false;
    loop {
        if let Some(&b) = closed.peek() {
            let entry = &bid[b.0 as usize];
            let (top, spare) = entry.newest.expect("a user block is written");
            let seq = entry.walk_key();
            if cursors.peek().is_none_or(|c| c.seq < seq) {
                closed.next();
                let last = entry.written - 1;
                cursors.push(Cursor {
                    seq,
                    ppn: geo.ppn(b, PageOffset(last)),
                    spare: (last == top).then_some(spare),
                });
                continue;
            }
        }
        let Some(cursor) = cursors.pop() else {
            break;
        };
        let ppn = cursor.ppn;
        let (b, off) = (geo.block_of(ppn), geo.offset_of(ppn).0);
        if let Some(spare) = cursor.spare.filter(|_| dev.is_written(ppn)) {
            // The scan serves two purposes with two horizons. Dirty-entry
            // recreation needs the checkpoint-bounded window. Re-deriving
            // the buffer's *immediate* invalidation reports (the
            // before-image pointers, §4.1) needs every user page written
            // since the last Gecko flush — those reports lived only in the
            // lost buffer. Stop once both horizons are exhausted; pages are
            // walked newest-first, so everything further is older.
            let in_window = spare.seq >= horizon;
            if !in_window && spare.seq <= threshold {
                break;
            }
            let SpareInfo::User { lpn, before } = spare.info else {
                panic!("user block holds {:?}", spare.info)
            };
            // Re-report the immediate invalidation carried in the spare
            // area, if its target still holds the superseded data. The
            // target was written before this page; a block not erased
            // since still holds it, and one erased since holds only newer
            // data (DESIGN.md invariant 12). The persisted erase timestamp
            // (step 1's scan, as in step 4a) decides this without a spare
            // read — the common "erased" case is a GC-migrated copy, whose
            // victim is erased next.
            if let Some(b) = before.filter(|b| dev.erase_seq(geo.block_of(*b)) < spare.seq) {
                gecko.recover_invalidation(b);
                report.recovered_invalidations += 1;
                // A report no run and no step-4 diff holds, from a page no
                // newer than the last flush of the tree that owns its
                // target, is one that flush did not carry: the old copy of
                // a page GC migrated, which only the victim's erase marker
                // would have reported, and the power cut came first. The
                // next scan reaches the copy only while the checkpoint
                // horizon stays at or below it: the other trees' flushes
                // may lift the threshold as far as that tree's watermark.
                let (vb, voff) = (geo.block_of(b), geo.offset_of(b).0);
                let owner = shard_thresholds[shard_index(vb, shard_thresholds.len())];
                cut_collection |=
                    spare.seq <= owner && !invalid_maps.get(&vb).is_some_and(|m| m.get(voff));
            }
            if in_window && seen.insert(lpn) {
                // TRIM guard: if the recovered validity store already knows
                // this page is invalid, its mapping was durably retracted —
                // a trim's unmap superseded it (the invalidation either
                // flushed or was re-derived by step 4's version-chain diff
                // from the mapped → unmapped transition). Recreating an
                // uncertain entry here would resurrect discarded data once
                // the C.3 verify-sync wrote it back into the table. Outside
                // trims the newest copy of an LPN is never invalid, so this
                // changes nothing for trim-free workloads. The LPN still
                // counts as seen: its older copies are superseded either way.
                let known_invalid = invalid_maps.get(&b).is_some_and(|m| m.get(off));
                if !known_invalid {
                    // Step 7 folded in: flags assumed dirty/UIP, marked
                    // uncertain for the App. C.3 corrections.
                    recreated.push(CacheEntry {
                        lpn,
                        ppn,
                        dirty: true,
                        uip: true,
                        uncertain: true,
                        written_epoch: 0,
                    });
                    report.recovered_entries += 1;
                    oldest_recreated = Some(spare.seq);
                }
            }
        } else {
            // Torn page: the in-flight user write the power cut killed.
            // Nothing about it was acknowledged. Step 5 counted it valid
            // (it was never reported to Gecko), so count it invalid now
            // and recreate the lost invalidation report.
            gecko.recover_invalidation(ppn);
            let counted = invalid_maps
                .entry(b)
                .or_insert_with(|| Bitmap::new(geo.pages_per_block));
            if !counted.get(off) {
                counted.set(off);
                bvc[b.0 as usize] -= 1;
            }
            report.recovered_invalidations += 1;
        }
        // The block's next page down joins the heap, with its spare area
        // (step 1's, or read now); a torn one takes this page's seq, so it
        // is walked next.
        if let Some(next) = off.checked_sub(1) {
            let next_ppn = geo.ppn(b, PageOffset(next));
            let spare = match bid[b.0 as usize].newest {
                Some((top, spare)) if top == next => Some(spare),
                _ => dev.read_spare(next_ppn, IoPurpose::Recovery).ok(),
            };
            cursors.push(Cursor {
                seq: spare.map_or(cursor.seq, |s| s.seq),
                ppn: next_ppn,
                spare,
            });
        }
    }
    // Bad user blocks. A failed erase retires a block with its stale
    // contents intact, and GC's "every page stale" report — the override of
    // the erase marker it had already issued — lives in the RAM buffer. If
    // the marker flushed and the override did not, the recovered store
    // claims a clean block, and nothing above re-derives the truth: the
    // marker masks the block's older invalidations, and the migrated
    // copies' before-pointers reach only as far back as the step-6 scan.
    // So judge every page of a bad user block against the recovered
    // mapping itself: a page that is not its LPN's newest copy (the
    // recreated entry, else the flash-resident table) is stale. BVC stays
    // over-counted, which is the safe direction — it only keeps GC from
    // picking a block it could not erase anyway.
    // A crash before the first checkpoint after resume must walk back over
    // every recreated entry again: they stay dirty until it syncs them.
    let tt = TranslationTable::from_recovered(
        geo,
        gmd,
        oldest_recreated.unwrap_or_else(|| dev.now_seq()),
    );
    // Built only if a bad user block exists (the common case has none).
    let mut newest: Option<HashMap<flash_sim::Lpn, Ppn>> = None;
    for b in geo.iter_blocks() {
        let entry = &bid[b.0 as usize];
        if entry.group != Some(BlockGroup::User) || !dev.is_bad(b) {
            continue;
        }
        for off in 0..entry.written {
            if invalid_maps.get(&b).is_some_and(|m| m.get(off)) {
                continue; // already known stale
            }
            let ppn = geo.ppn(b, PageOffset(off));
            let Ok(spare) = dev.read_spare(ppn, IoPurpose::Recovery) else {
                continue; // torn: step 6 reported it
            };
            let SpareInfo::User { lpn, .. } = spare.info else {
                panic!("user block holds {:?}", spare.info)
            };
            let newest =
                newest.get_or_insert_with(|| recreated.iter().map(|e| (e.lpn, e.ppn)).collect());
            let current = match newest.get(&lpn) {
                Some(&cached) => Some(cached),
                None => tt.lookup(&mut dev, lpn, IoPurpose::Recovery),
            };
            if current != Some(ppn) {
                gecko.recover_invalidation(ppn);
                report.recovered_invalidations += 1;
            }
        }
    }
    let overflow: Vec<CacheEntry> = if recreated.len() > cfg.cache_entries {
        recreated.split_off(cfg.cache_entries)
    } else {
        Vec::new()
    };
    // Insert oldest-first so the newest entry ends up most-recently-used.
    for e in recreated.into_iter().rev() {
        cache.insert(e);
    }
    report
        .steps
        .push((RecoveryStep::DirtyEntries, timer.stop(&mut dev, 6)));

    // ---- Step 8: reassemble and resume. -----------------------------------
    let mut bm = BlockManager::from_recovered(
        &dev,
        geo,
        state,
        bvc,
        cfg.gc_policy == GcPolicy::MetadataAware,
    );
    for (block, stamp) in chain {
        bm.protect(block, stamp);
    }
    // The engine keeps the payloads of step 4b's read set against step 4's
    // threshold and reclaims the rest (docs/DESIGN.md invariant 17).
    bm.adopt_versions(&mut dev, tpage_versions, threshold);
    // Re-adopt each group's partially written block as its active block —
    // unless the block is bad: its write pointer will never advance again,
    // so the group starts on a fresh block and GC drains the bad one.
    for b in geo.iter_blocks() {
        let entry = &bid[b.0 as usize];
        if let Some(group) = entry.group {
            if entry.written > 0 && entry.written < geo.pages_per_block && !dev.is_bad(b) {
                bm.adopt_active(b, group);
            }
        }
    }
    let seq = dev.now_seq();
    let mut engine = FtlEngine::from_parts(dev, bm, tt, cache, ValidityBackend::Gecko(gecko), cfg);
    // Step 6 re-derived the old copies of a collection the power cut: make
    // those reports durable before a checkpoint lifts the horizon past the
    // copies that carry them (docs/DESIGN.md invariant 18).
    if cut_collection {
        engine.flush_validity();
    }
    if report.recovered_entries > 0 {
        engine.recovered_invalid = Some(RecoveredInvalid {
            seq,
            pages: invalid_maps,
            overflow_pending: !overflow.is_empty(),
        });
    }
    // Entries that did not fit into the cache cannot wait for lazy
    // correction (dropping them could lose a dirty mapping): verify them
    // against the translation table immediately via ordinary
    // synchronization operations (mostly C.3.1 aborts).
    engine.resolve_recovered_overflow(overflow);
    (engine, report)
}

/// The version `v` names as the one it superseded, if that page still holds
/// it: its block is unerased since `v` was written (invariant 12).
fn held_base(dev: &FlashDevice, v: &Version) -> Option<Ppn> {
    let geo = dev.geometry();
    v.before.filter(|&b| dev.erase_seq(geo.block_of(b)) < v.seq)
}

/// Read one translation-page version's entries and the seq they were
/// current at, raising `horizon` to the checkpoint horizon the version
/// carries.
fn read_tpage(dev: &mut FlashDevice, ppn: Ppn, horizon: &mut u64) -> (Vec<u32>, u64) {
    let data = dev
        .read_page(ppn, IoPurpose::Recovery)
        .expect("translation page readable");
    let payload = data
        .blob::<TranslationPagePayload>()
        .expect("translation payload");
    *horizon = (*horizon).max(payload.horizon);
    (payload.entries.clone(), payload.mapped_at)
}

/// One run's pages on flash, as step 3's spare scan found them: the run's
/// data-age span, level and page count, read from the spare tag every page
/// of the run carries, and its directory entries with their seqs, each from
/// its own page's tag.
struct RunGroup {
    span: (u64, u64),
    level: u32,
    pages: u32,
    dir: Vec<(u64, RunDirEntry)>,
}

/// Recover the set of live runs (Appendix C.1) from the spare areas alone.
/// Returns one bucket of runs per shard (a single bucket when
/// `shards == 1`): liveness is judged per shard because its evidence, span
/// containment, only relates runs of the same tree.
///
/// A spare scan groups the Gecko pages by run id; each spare area also
/// carries the run's span, level and page count and its own page's key
/// range; the run's first key's block names its shard. The groups are walked
/// newest first by id (the device sequence number the run was created or
/// reserved at), and a group is a merged-away leftover — a retired input
/// whose pages survive until their block happens to be erased — if its span
/// lies strictly inside a kept run's span of its shard. A group with fewer
/// pages than its tags count is a partial run, cut before it sealed, and is
/// discarded; the rest are kept, each with its directory in write (= key)
/// order. No page is read.
///
/// Containment decides every leftover, even one whose superseder has
/// already been erased from flash: merging is laminar and live spans are
/// pairwise disjoint (`gecko::merge_job` invariant 4), every merge has at
/// least two inputs and writes an output, so an output's span strictly
/// contains each input's, and the newest sealed output of any merge chain
/// is still on flash (live pages are never obsoleted before their run is
/// merged away). Newest-first order accepts containers before their
/// leftovers are tested: a reservation happens after every transitive input
/// already exists, so a container's id exceeds theirs. Containment tests the
/// group's *span*, never its creation time: output identities are reserved
/// at plan time, so a job reserved early can seal with an id inside a
/// later-planned job's span even though its data (old runs, disjoint span)
/// was never folded there.
fn recover_runs(dev: &mut FlashDevice, bid: &[BidEntry], shards: u32) -> Vec<Vec<Run>> {
    let geo = dev.geometry();
    let mut groups: BTreeMap<u64, RunGroup> = BTreeMap::new();
    for b in geo.iter_blocks() {
        let entry = &bid[b.0 as usize];
        if entry.group != Some(BlockGroup::Meta(MetaKind::GeckoRun)) {
            continue;
        }
        for off in 0..entry.written {
            let ppn = geo.ppn(b, PageOffset(off));
            // Torn pages (lost spare or lost data) never joined a sealed
            // run: dropping one here leaves its group short of the page
            // count its tags carry, so the run is discarded as partial below.
            let Ok(spare) = dev.read_spare(ppn, IoPurpose::Recovery) else {
                continue;
            };
            let SpareInfo::Meta {
                kind: MetaKind::GeckoRun,
                tag:
                    MetaTag::Run {
                        id,
                        span,
                        level,
                        pages,
                        first,
                        last,
                    },
            } = spare.info
            else {
                panic!("gecko block holds {:?}", spare.info)
            };
            if !dev.is_written(ppn) {
                continue;
            }
            let page = RunDirEntry {
                ppn,
                first: first.into(),
                last: last.into(),
            };
            groups
                .entry(id)
                .or_insert_with(|| RunGroup {
                    span,
                    level,
                    pages,
                    dir: Vec::new(),
                })
                .dir
                .push((spare.seq, page));
        }
    }
    // Blocks are scanned in address order, not write order.
    for group in groups.values_mut() {
        group.dir.sort_unstable_by_key(|&(seq, _)| seq);
    }

    let n = shards.max(1) as usize;
    let mut live: Vec<Vec<Run>> = (0..n).map(|_| Vec::new()).collect();
    let mut live_spans: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for (&id, group) in groups.iter().rev() {
        let shard = shard_index(group.dir[0].1.first.block, n);
        if strictly_inside(&live_spans[shard], group.span) {
            continue;
        }
        if group.dir.len() != group.pages as usize {
            continue; // partially written run: discard
        }
        let (supersedes_since, supersedes_upto) = group.span;
        live_spans[shard].push(group.span);
        // Bloom filters are RAM-only and not persisted; recovered runs carry
        // none (queries stay correct at the paper's probe-per-run bound)
        // until step 5's scan rebuilds them, and refills the entry count.
        live[shard].push(Run {
            meta: RunMeta {
                id: RunId(id),
                level: group.level,
                supersedes_since,
                supersedes_upto,
            },
            pages: group.dir.iter().map(|&(_, page)| page).collect(),
            entry_count: 0,
            filter: None,
        });
    }
    live
}

/// Whether `span` lies strictly inside one of `spans`.
fn strictly_inside(spans: &[(u64, u64)], span: (u64, u64)) -> bool {
    let (since, upto) = span;
    spans
        .iter()
        .any(|&(lo, hi)| lo <= since && upto <= hi && (lo, hi) != span)
}
