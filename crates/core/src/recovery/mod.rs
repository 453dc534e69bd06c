//! GeckoRec: GeckoFTL's power-failure recovery (paper §4.3 + Appendix C).
//!
//! A crash loses *all* RAM-resident state: the GMD, the LRU cache (with its
//! dirty entries), Logarithmic Gecko's buffer and run directories, BVC, and
//! the block manager's bookkeeping. Only the flash device survives. GeckoRec
//! rebuilds everything in eight steps, reading the device exclusively
//! through IO-charged spare/page reads so the reported recovery cost is
//! honest:
//!
//! 1. **BID** — scan one spare area per block to classify blocks and
//!    timestamp them (the Blocks Information Directory).
//! 2. **GMD** — scan translation-block spare areas; the newest version of
//!    each translation page wins.
//! 3. **Run directories** — scan Gecko-block spare areas, which carry each
//!    run's id, data-age span and shard; skip, unread, every merged-away
//!    leftover (named in a kept run's `merged_from`, or with a span strictly
//!    inside a kept run's span); read the postamble (and preamble) of the
//!    rest, keeping the complete runs (docs/DESIGN.md invariant 16).
//! 4. **Buffer** — recreate erase markers for blocks erased since the last
//!    buffer flush (C.2.1) and invalidations lost with the buffer by
//!    diffing translation-page versions written since the last flush
//!    (C.2.2), each version read once, with an erase-timestamp check that
//!    also handles physical page reuse. The versions diffed become the
//!    engine's version chain, so their blocks stay protected until their
//!    reports are durable again and the next recovery can read them
//!    (docs/DESIGN.md invariant 14).
//! 5. **BVC** — rebuild per-block valid counts from a full scan of
//!    Logarithmic Gecko plus the recovered buffer, reading only the live run
//!    pages step 3 did not, so each is read once across the two steps.
//! 6. **Dirty entries** — backwards scan of the most recently written user
//!    blocks, newest first by step 1's timestamps, down to the checkpoint
//!    horizon the translation pages persist (at most `2·C` spare reads back,
//!    by runtime checkpoints), recreating a cached mapping entry per fresh
//!    LPN and each before-pointer's invalidation.
//! 7. **Flags** — recovered entries get dirty/UIP/uncertain = true;
//!    corrections happen lazily after operation resumes (Appendix C.3).
//! 8. **Resume** — dispose of BID, reassemble the engine with step 4's
//!    version chain; step 5's invalid bitmaps stay with it while the
//!    corrections may re-report a page BVC already counts (docs/DESIGN.md
//!    invariant 13).

use crate::cache::{CacheEntry, MappingCache};
use crate::ftl::block_manager::{BlockGroup, BlockManager, BlockState};
use crate::ftl::{FtlConfig, FtlEngine, GcPolicy, RecoveredInvalid, ValidityBackend};
use crate::gecko::sharded::shard_index;
use crate::gecko::{
    Bitmap, GeckoConfig, GeckoPagePayload, LogGecko, Run, RunDirEntry, RunId, RunMeta, ShardedGecko,
};
use crate::translation::{TranslationPagePayload, TranslationTable};
use flash_sim::{
    BlockId, FlashDevice, IoPurpose, MetaKind, MetaTag, PageData, PageOffset, Ppn, SpanKind,
    SpareInfo,
};
use std::collections::{BTreeMap, HashMap, HashSet};

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
    /// Sequence number of the block's first written page (0 if empty).
    first_seq: u64,
    written: u32,
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
    let timer = StepTimer::start(&dev);
    let mut bid: Vec<BidEntry> = Vec::with_capacity(geo.blocks as usize);
    for b in geo.iter_blocks() {
        let written = dev.written_pages(b);
        if written == 0 {
            bid.push(BidEntry {
                group: None,
                first_seq: 0,
                written,
            });
            continue;
        }
        let Ok(spare) = dev.read_spare(geo.first_page(b), IoPurpose::Recovery) else {
            // Torn first page (power cut mid-program on a fresh block): the
            // block holds exactly one page — the torn one, always the
            // globally newest write — and nothing on it was acknowledged.
            // Quarantine-scrub it back into circulation.
            if dev.erase_block(b, IoPurpose::Recovery).is_err() {
                dev.mark_bad(b); // unscrubbable: retire it for good
            }
            bid.push(BidEntry {
                group: None,
                first_seq: 0,
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
            first_seq: spare.seq,
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
    let mut tpage_versions: Vec<Vec<(u64, Ppn)>> = vec![Vec::new(); n_tpages];
    for b in geo.iter_blocks() {
        if bid[b.0 as usize].group != Some(BlockGroup::Translation) {
            continue;
        }
        for off in 0..bid[b.0 as usize].written {
            let ppn = geo.ppn(b, PageOffset(off));
            let Ok(spare) = dev.read_spare(ppn, IoPurpose::Recovery) else {
                continue; // torn spare: the page has no identity
            };
            let SpareInfo::Translation { tpage } = spare.info else {
                panic!("translation block holds {:?}", spare.info)
            };
            if !dev.is_written(ppn) {
                continue; // torn data: never point the GMD at an unreadable page
            }
            tpage_versions[tpage as usize].push((spare.seq, ppn));
        }
    }
    for versions in &mut tpage_versions {
        versions.sort_unstable_by_key(|(seq, _)| *seq);
    }
    let gmd: Vec<Option<Ppn>> = tpage_versions
        .iter()
        .map(|v| v.last().map(|(_, ppn)| *ppn))
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
    let (shard_runs, step3_pages) = recover_runs(&mut dev, &bid, gecko_cfg.shards);
    let live_pages: HashSet<Ppn> = shard_runs
        .iter()
        .flatten()
        .flat_map(|r| r.pages.iter().map(|p| p.ppn))
        .collect();
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
    // 4a (C.2.1): blocks erased since the last flush get erase markers. The
    // erase timestamp is persisted in a spare area (Appendix D), read as
    // part of the step-1 scan.
    for b in geo.iter_blocks() {
        // The paper's rule: "all blocks that are free or whose first page
        // was written after this timestamp". The persisted erase timestamp
        // (Appendix D) expresses both cases directly.
        //
        // The timestamp is the *owning shard's* watermark, not the global
        // minimum: an erase marker masks every older entry for its block,
        // so recreating one the owning shard had already persisted would
        // hide post-erase invalidations that sit in that shard's runs.
        // (Unlike plain invalidation bits, markers are not idempotent
        // across a flush boundary.)
        let b_threshold = shard_thresholds[gecko.shard_of(b)];
        let erased_since_flush = dev.erase_seq(b) > b_threshold
            || bid[b.0 as usize].first_seq > b_threshold && bid[b.0 as usize].written > 0;
        if erased_since_flush {
            gecko.recover_erase_marker(b);
            report.recovered_erases += 1;
        }
    }
    // 4b (C.2.2): diff translation-page versions written since the last
    // flush against their predecessors; every mapping change names a
    // physical page that was invalidated after the flush. The chain is the
    // newest version at or before the threshold (the base, if any), then
    // every later version in order; each is read once and carried forward
    // as the next link's predecessor. Every version read also hands step 6
    // the checkpoint horizon it carries; the newest is the tightest, and
    // none costs a read of its own.
    //
    // The engine resumes with the chain read here (`BlockManager::protect`):
    // one link per version newer than the threshold, stamped with its seq
    // and protecting the block of the version before it, the base for the
    // first. Without them the engine would erase a base the next recovery
    // diffs against, and lose the reports only that diff re-derives.
    let mut horizon = 0;
    let mut chain: Vec<(Option<BlockId>, u64)> = Vec::new();
    for versions in &tpage_versions {
        let split = versions.partition_point(|&(s, _)| s <= threshold);
        let newer = &versions[split..];
        if newer.is_empty() {
            continue;
        }
        chain.extend((split..versions.len()).map(|i| {
            let before = i.checked_sub(1).map(|j| geo.block_of(versions[j].1));
            (before, versions[i].0)
        }));
        let mut prev: Option<(u64, Vec<u32>)> = split.checked_sub(1).map(|i| {
            (
                versions[i].0,
                read_tpage(&mut dev, versions[i].1, &mut horizon),
            )
        });
        for (i, &(seq, ppn)) in newer.iter().enumerate() {
            if prev.is_none() && i + 1 == newer.len() {
                break; // no predecessor to diff against, no successor to feed
            }
            let entries = read_tpage(&mut dev, ppn, &mut horizon);
            // Without a base the predecessor is the never-written,
            // all-unmapped page: nothing to diff.
            if let Some((prev_seq, prev_entries)) = &prev {
                for (&old_val, &new_val) in prev_entries.iter().zip(&entries) {
                    if old_val == new_val || old_val == u32::MAX {
                        continue;
                    }
                    let candidate = Ppn(old_val);
                    // Timestamp check: only report if the page still holds
                    // the exact data this synchronization invalidated. The
                    // previous version pointed at it, so it was written
                    // before `prev_seq`; a block not erased since still
                    // holds it, and one erased since (an erase takes its own
                    // sequence number, so the two never tie) holds only
                    // newer data — a fresh life, e.g. after a GC UIP-skip,
                    // which must not be re-marked. The persisted erase
                    // timestamp (step 1's scan, as in step 4a) decides this
                    // without a spare read.
                    let keep = dev.erase_seq(geo.block_of(candidate)) < *prev_seq;
                    debug_assert_eq!(
                        keep,
                        dev.peek_spare(candidate).is_some_and(
                            |s| s.seq < *prev_seq && matches!(s.info, SpareInfo::User { .. })
                        ),
                        "erase timestamp and spare area disagree on {candidate:?}"
                    );
                    if keep {
                        gecko.recover_invalidation(candidate);
                        report.recovered_invalidations += 1;
                    }
                }
            }
            prev = Some((seq, entries));
        }
    }
    report
        .steps
        .push((RecoveryStep::Buffer, timer.stop(&mut dev, 4)));

    // ---- Step 5: BVC. -----------------------------------------------------
    let timer = StepTimer::start(&dev);
    let mut invalid_maps = gecko.scan_all_bitmaps(&mut dev, IoPurpose::Recovery, &step3_pages);
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
    // Newest user block first, by the seq of its first page from step 1's
    // scan, not by a spare read of its newest page per block (the paper's
    // "K spare area reads, one per flash block"; docs/DESIGN.md,
    // "Deviations"). The user group appends at one frontier, so its blocks'
    // seq intervals do not overlap and both keys give the same order; a
    // torn last page lies on the newest block, which sorts first either way.
    let mut user_blocks: Vec<(u64, BlockId)> = geo
        .iter_blocks()
        .filter(|b| bid[b.0 as usize].group == Some(BlockGroup::User))
        .map(|b| (bid[b.0 as usize].first_seq, b))
        .collect();
    user_blocks.sort_unstable_by_key(|(seq, _)| std::cmp::Reverse(*seq));
    debug_assert!(
        user_blocks
            .windows(2)
            .all(|w| newest_seq(&dev, &bid, w[0].1) > newest_seq(&dev, &bid, w[1].1)),
        "first-page order differs from newest-page order"
    );
    // Dirty-entry recreation stops at the checkpoint horizon step 4b read:
    // no dirty entry pointed at an older page when any version carrying it
    // was written, nor at any time since (DESIGN.md invariant 15). A
    // checkpoint every `C` cache operations keeps it at the start of the
    // previous epoch, on average 1.5·C pages back. `scan_limit` is the
    // paper's worst case, 2·C: it stops the scan when step 4b read no
    // version. GC migrations tick the checkpoint clock too, but one epoch
    // can overshoot the period by at most one GC victim's worth of
    // migrations (the clock is honored between victims), hence the small
    // O(B) cushion. Without checkpoints (battery, or the ablation) the
    // horizon is 0 and the scan must cover everything.
    let scan_limit = cfg
        .resolved_checkpoint_period()
        .map_or(u64::MAX, |c| 2 * c + 4 * geo.pages_per_block as u64);
    let mut scanned = 0u64;
    let mut seen: HashSet<flash_sim::Lpn> = HashSet::new();
    // Newest-first list of recreated entries; the newest `C` go into the
    // cache, the remainder (possible only when GC-migration copies inflate
    // the unique count) are verified eagerly right after resume.
    let mut recreated: Vec<CacheEntry> = Vec::new();
    // The seq of the oldest page an entry was recreated from.
    let mut oldest_recreated = None;
    'scan: for &(_, b) in &user_blocks {
        let written = bid[b.0 as usize].written;
        for off in (0..written).rev() {
            let ppn = geo.ppn(b, PageOffset(off));
            let spare = match dev.read_spare(ppn, IoPurpose::Recovery) {
                Ok(s) if dev.is_written(ppn) => s,
                // Torn page: the in-flight user write the power cut killed.
                // Nothing about it was acknowledged. Step 5 counted it valid
                // (it was never reported to Gecko), so count it invalid now
                // and recreate the lost invalidation report.
                _ => {
                    gecko.recover_invalidation(ppn);
                    let counted = invalid_maps
                        .entry(b)
                        .or_insert_with(|| Bitmap::new(geo.pages_per_block));
                    if !counted.get(off) {
                        counted.set(off);
                        bvc[b.0 as usize] -= 1;
                    }
                    report.recovered_invalidations += 1;
                    scanned += 1;
                    continue;
                }
            };
            // The scan serves two purposes with two horizons. Dirty-entry
            // recreation needs the checkpoint-bounded window. Re-deriving
            // the buffer's *immediate* invalidation reports (the
            // before-image pointers, §4.1) needs every user page written
            // since the last Gecko flush — those reports lived only in the
            // lost buffer. Stop once both horizons are exhausted; blocks
            // are walked newest-first, so everything further is older.
            let in_window = scanned < scan_limit && spare.seq >= horizon;
            if !in_window && spare.seq <= threshold {
                break 'scan;
            }
            scanned += 1;
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
                debug_assert!(
                    dev.peek_spare(b).is_some_and(|bs| bs.seq < spare.seq
                        && matches!(bs.info, SpareInfo::User { lpn: bl, .. } if bl == lpn)),
                    "erase timestamp and spare area disagree on {b:?}"
                );
                gecko.recover_invalidation(b);
                report.recovered_invalidations += 1;
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

/// The seq of `block`'s newest page, read without IO (a debug check's
/// oracle); a torn spare can only be the globally newest write.
fn newest_seq(dev: &FlashDevice, bid: &[BidEntry], block: BlockId) -> u64 {
    let last = PageOffset(bid[block.0 as usize].written - 1);
    dev.peek_spare(dev.geometry().ppn(block, last))
        .map_or(u64::MAX, |s| s.seq)
}

/// Read one translation-page version's entries, raising `horizon` to the
/// checkpoint horizon the version carries.
fn read_tpage(dev: &mut FlashDevice, ppn: Ppn, horizon: &mut u64) -> Vec<u32> {
    let data = dev
        .read_page(ppn, IoPurpose::Recovery)
        .expect("translation page readable");
    let payload = data
        .blob::<TranslationPagePayload>()
        .expect("translation payload");
    *horizon = (*horizon).max(payload.horizon);
    payload.entries.clone()
}

/// One run's pages on flash, as step 3's spare scan found them: the run's
/// data-age span and first-key block, read from the spare area every page of
/// the run carries, and its pages as `(seq, ppn)` in write order.
struct RunGroup {
    span: (u64, u64),
    first_block: BlockId,
    pages: Vec<(u64, Ppn)>,
}

/// Recover the set of live runs (Appendix C.1) and hand back every page
/// read doing so. Returns one bucket of runs per shard (a single bucket when
/// `shards == 1`): liveness is judged per shard because its evidence —
/// `merged_from` lists and span containment — only relates runs of the same
/// tree.
///
/// A spare scan groups the Gecko pages by run id; each spare area also
/// carries the run's span and the block of its first key, which names its
/// shard. The groups are walked newest first by id (the id is the run's
/// `created_seq`), and a group is a merged-away leftover — a retired input
/// whose pages survive until their block happens to be erased — if a kept
/// run of its shard names it in `merged_from`, or if its span lies strictly
/// inside a kept run's span. A leftover costs no page read. Every other
/// group costs its postamble, plus its preamble if the run has more than one
/// page; a partial run (no postamble, or a page count that disagrees with
/// it) is discarded, and the rest are kept.
///
/// Containment alone decides every leftover whose superseder has already
/// been erased from flash, taking its `merged_from` list with it: merging is
/// laminar and live spans are pairwise disjoint (`gecko::merge_job`
/// invariant 4), every merge has at least two inputs, so an output's span
/// strictly contains each input's, and the newest sealed output of any merge
/// chain is still on flash (live pages are never obsoleted before their run
/// is merged away). Newest-first order accepts containers before their
/// leftovers are tested: a reservation happens after every transitive input
/// already exists, so a container's id exceeds theirs. Containment tests the
/// group's *span*, never its creation time: output identities are reserved
/// at plan time, so a job reserved early can seal with an id inside a
/// later-planned job's span even though its data (old runs, disjoint span)
/// was never folded there.
///
/// Under debug assertions the live set is checked against the full-read
/// rule ([`full_read_live_ids`]), which reads every group's postamble and
/// preamble.
fn recover_runs(
    dev: &mut FlashDevice,
    bid: &[BidEntry],
    shards: u32,
) -> (Vec<Vec<Run>>, HashMap<Ppn, PageData>) {
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
            // run: dropping one here leaves its run without a postamble —
            // or with a short page count — so the run is discarded as
            // partial below, exactly the torn-postamble orphan rule.
            let Ok(spare) = dev.read_spare(ppn, IoPurpose::Recovery) else {
                continue;
            };
            let SpareInfo::Meta {
                kind: MetaKind::GeckoRun,
                tag:
                    MetaTag::Run {
                        id,
                        span,
                        first_block,
                    },
            } = spare.info
            else {
                panic!("gecko block holds {:?}", spare.info)
            };
            if !dev.is_written(ppn) {
                continue;
            }
            groups
                .entry(id)
                .or_insert_with(|| RunGroup {
                    span,
                    first_block,
                    pages: Vec::new(),
                })
                .pages
                .push((spare.seq, ppn));
        }
    }
    // Blocks are scanned in address order, not write order.
    for group in groups.values_mut() {
        group.pages.sort_unstable_by_key(|&(seq, _)| seq);
    }

    let n = shards.max(1) as usize;
    let mut live: Vec<Vec<Run>> = (0..n).map(|_| Vec::new()).collect();
    let mut live_spans: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    let mut dead: HashSet<RunId> = HashSet::new();
    let mut read: HashMap<Ppn, PageData> = HashMap::new();
    for (&id, group) in groups.iter().rev() {
        let shard = shard_index(group.first_block, n);
        let (since, upto) = group.span;
        let leftover = dead.contains(&RunId(id))
            || live_spans[shard]
                .iter()
                .any(|&(lo, hi)| lo <= since && upto <= hi && (lo, hi) != group.span);
        if leftover {
            continue;
        }
        let Some(run) = read_run(dev, id, group, &mut read) else {
            continue; // partially written run: discard
        };
        dead.extend(run.meta.merged_from.iter().copied());
        live_spans[shard].push(group.span);
        live[shard].push(run);
    }
    debug_assert_eq!(
        live.iter()
            .map(|runs| runs.iter().map(|r| r.meta.id.0).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
        full_read_live_ids(dev, &groups, n),
        "spare-area liveness diverged from the full-read rule"
    );
    (live, read)
}

/// Read a run group's postamble, and its preamble if the run has more than
/// one page, into a run with its directory; the pages go into `read`.
/// `None` for a partial run: no postamble, or a page count that disagrees
/// with it.
fn read_run(
    dev: &mut FlashDevice,
    id: u64,
    group: &RunGroup,
    read: &mut HashMap<Ppn, PageData>,
) -> Option<Run> {
    // The postamble lives on the last written page of the run.
    let &(_, last_ppn) = group.pages.last().expect("non-empty run group");
    let last = dev
        .read_page(last_ppn, IoPurpose::Recovery)
        .expect("gecko page readable");
    let payload = last.blob::<GeckoPagePayload>().expect("gecko payload");
    let post = payload.postamble.as_ref()?;
    if post.total_pages as usize != group.pages.len() {
        return None; // some pages missing or extra garbage
    }
    let meta = match &payload.preamble {
        Some(pre) => pre.clone(), // single-page run: preamble and postamble share the page
        None => {
            let first_ppn = group.pages[0].1;
            let first = dev
                .read_page(first_ppn, IoPurpose::Recovery)
                .expect("gecko page readable");
            let pre = first
                .blob::<GeckoPagePayload>()
                .expect("gecko payload")
                .preamble
                .clone()
                .expect("first run page carries the preamble");
            read.insert(first_ppn, first);
            pre
        }
    };
    // Both are minted from one device seq, so newest first by id is newest
    // first by creation.
    assert_eq!(
        (meta.id, meta.created_seq),
        (RunId(id), id),
        "run id and created_seq differ"
    );
    debug_assert_eq!(meta.span(), group.span, "spare area and preamble disagree");
    let ppns = post.ppns.iter().copied().chain([last_ppn]); // the postamble page's own address
    debug_assert_eq!(post.ppns.len() + 1, post.ranges.len());
    let pages: Vec<RunDirEntry> = post
        .ranges
        .iter()
        .zip(ppns)
        .map(|(&(first, last), ppn)| RunDirEntry { ppn, first, last })
        .collect();
    debug_assert_eq!(pages[0].first.block, group.first_block);
    read.insert(last_ppn, last);
    // Bloom filters are RAM-only and not persisted; recovered runs carry
    // none (queries stay correct at the paper's probe-per-run bound) until
    // step 5's scan rebuilds them, and refills the entry count.
    Some(Run {
        meta,
        pages,
        entry_count: 0,
        filter: None,
    })
}

/// The full-read liveness rule, the oracle step 3's spare-area rule is
/// checked against; it reads pages without IO. Every complete group's
/// postamble and preamble are read, the shard comes from the postamble's
/// first key, and each shard is walked newest first: a run is dead if any
/// complete run — live or not — names it in `merged_from`, or if its span
/// lies strictly inside a live run's span. Returns each shard's live run ids,
/// newest first.
fn full_read_live_ids(
    dev: &FlashDevice,
    groups: &BTreeMap<u64, RunGroup>,
    shards: usize,
) -> Vec<Vec<u64>> {
    let page = |&(_, ppn): &(u64, Ppn)| dev.peek_page(ppn).expect("gecko page readable");
    let mut metas: Vec<Vec<RunMeta>> = vec![Vec::new(); shards];
    for group in groups.values() {
        let last = page(group.pages.last().expect("non-empty run group"));
        let last = last.blob::<GeckoPagePayload>().expect("gecko payload");
        let Some(post) = &last.postamble else {
            continue;
        };
        if post.total_pages as usize != group.pages.len() {
            continue;
        }
        let meta = match &last.preamble {
            Some(pre) => pre.clone(),
            None => page(&group.pages[0])
                .blob::<GeckoPagePayload>()
                .expect("gecko payload")
                .preamble
                .clone()
                .expect("first run page carries the preamble"),
        };
        metas[shard_index(post.ranges[0].0.block, shards)].push(meta);
    }
    metas
        .into_iter()
        .map(|mut metas| {
            metas.sort_by_key(|m| std::cmp::Reverse(m.created_seq));
            let mut dead: HashSet<RunId> = HashSet::new();
            let mut live_spans: Vec<(u64, u64)> = Vec::new();
            let mut live = Vec::new();
            for m in metas {
                let (since, upto) = m.span();
                let gone = dead.contains(&m.id)
                    || live_spans
                        .iter()
                        .any(|&(lo, hi)| lo <= since && upto <= hi && (lo, hi) != (since, upto));
                dead.extend(m.merged_from.iter().copied());
                if !gone {
                    live_spans.push((since, upto));
                    live.push(m.id.0);
                }
            }
            live
        })
        .collect()
}
