//! GeckoRec step 4b's read set stays on flash, and only it keeps its payload
//! (ROADMAP item 10's check, the gate for item 1; DESIGN.md invariants 14
//! and 17).
//!
//! Step 4b reads translation pages in one pattern. For every page with a
//! version newer than the MIN flush watermark (`last_flush_seq`), it reads
//! every such version, and the *base* — the newest version at or before the
//! watermark — when the first newer one names it, and diffs each version
//! against the version it names. A version of that set erased before the
//! crash makes recovery diff against nothing, and silently miss the
//! invalidations in between (DESIGN.md invariants 2 and 6). App. C.2.2's
//! no-erase list exists to keep them.
//!
//! The engine releases a protection once the store's *durable watermark*
//! (`FtlEngine::durable_watermark`: a shard with an empty buffer counts as
//! flushed now) passes its stamp, so the read set it promises to keep on
//! flash is the one against that watermark; recovery reads against the
//! persisted MIN, which is never newer. The payload promise is against the
//! MIN itself: a superseded version's payload is dropped from host memory
//! once no recovery may read it, so every version of the read set against
//! the MIN holds its payload and no other superseded version does. Nor does
//! any page of a run a merge with an output has retired, which step 3 skips
//! unread (invariant 16).
//!
//! The check drives uniform writes and, after every op, records every
//! translation-page version on flash (spare areas peeked without IO). It
//! then asks, against both watermarks, whether the base and every later
//! version of each page, among the versions ever seen, are still there; and,
//! against the MIN, which versions and run pages hold their payloads.

use gecko_bench::harness::{small_gecko_engine, OpDriver};
use geckoftl::flash_sim::{BlockId, Geometry, Lpn, MetaTag, PageOffset, Ppn, SpareInfo};
use geckoftl::ftl_workloads::{Uniform, WorkloadOp};
use geckoftl::geckoftl_core::ftl::{
    FtlConfig, FtlEngine, GcPolicy, ValidityBackend, MAX_PROTECTED_BLOCKS, MAX_UNFLUSHED_VERSIONS,
};
use geckoftl::geckoftl_core::gecko::GeckoConfig;
use geckoftl::geckoftl_core::recovery::gecko_recover;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Translation-page versions ever seen on flash, as `(tpage, seq)`, newest
/// last per page.
type Seen = BTreeSet<(u32, u64)>;

/// A translation-page version, as `(tpage, seq)`.
type At = (u32, u64);

/// Record the translation-page versions on flash now and return the block of
/// each, by sequence number (unique device-wide).
fn versions_on_flash(engine: &FtlEngine, seen: &mut Seen) -> HashMap<u64, BlockId> {
    let dev = engine.device();
    let geo = dev.geometry();
    let mut on_flash = HashMap::new();
    for b in geo.iter_blocks() {
        for off in 0..dev.written_pages(b) {
            let ppn = geo.ppn(b, PageOffset(off));
            if let Some(spare) = dev.peek_spare(ppn) {
                if let SpareInfo::Translation { tpage, .. } = spare.info {
                    if dev.is_written(ppn) {
                        seen.insert((tpage, spare.seq));
                        on_flash.insert(spare.seq, b);
                    }
                }
            }
        }
    }
    on_flash
}

/// The first version of step 4b's read set against `watermark` that is gone
/// from flash, as `(tpage, seq)`.
fn missing_entitled_version(
    seen: &Seen,
    on_flash: &HashMap<u64, BlockId>,
    watermark: u64,
) -> Option<At> {
    let tpages = seen.last().map_or(0, |&(t, _)| t + 1);
    for tpage in 0..tpages {
        let mut versions = seen.range((tpage, 0)..=(tpage, u64::MAX)).map(|&(_, s)| s);
        let newer: Vec<u64> = versions.clone().filter(|&s| s > watermark).collect();
        if newer.is_empty() {
            continue;
        }
        let base = versions.rfind(|&s| s <= watermark);
        if let Some(&seq) = base
            .iter()
            .chain(&newer)
            .find(|s| !on_flash.contains_key(s))
        {
            return Some((tpage, seq));
        }
    }
    None
}

/// The first superseded version on flash whose successor is newer than the
/// durable watermark but whose block is not protected, as `(tpage, seq)`:
/// nothing keeps the block from being erased once its last valid page goes.
fn unprotected_version(
    engine: &FtlEngine,
    seen: &Seen,
    on_flash: &HashMap<u64, BlockId>,
) -> Option<At> {
    let durable = engine.durable_watermark();
    seen.iter()
        .zip(seen.iter().skip(1))
        .find(|&(&(tpage, seq), &(next_tpage, next))| {
            tpage == next_tpage
                && next > durable
                && on_flash
                    .get(&seq)
                    .is_some_and(|&b| !engine.block_manager().is_protected(b))
        })
        .map(|(&v, _)| v)
}

/// One translation-page version on flash: `(seq, page, the page it names)`.
type Version = (u64, Ppn, Option<Ppn>);

/// Invariant 17 for translation pages: the first version of step 4b's read
/// set whose payload was reclaimed, and the first superseded version outside
/// it that still holds its payload, each as `(tpage, seq)`; and how many
/// versions on flash are reclaimed. The read set is taken against the
/// engine's MIN flush watermark, the floor of every recovery's threshold:
/// the payload promise is kept against it.
fn payload_mismatches(engine: &FtlEngine) -> (Option<At>, Option<At>, usize) {
    let dev = engine.device();
    let geo = dev.geometry();
    let mut versions: Vec<Vec<Version>> = vec![Vec::new(); geo.translation_pages() as usize];
    let min = engine.backend().gecko().expect("gecko").last_flush_seq();
    for b in geo.iter_blocks() {
        for off in 0..dev.written_pages(b) {
            let ppn = geo.ppn(b, PageOffset(off));
            let Some((seq, SpareInfo::Translation { tpage, before })) =
                dev.peek_spare(ppn).map(|s| (s.seq, s.info))
            else {
                continue;
            };
            if dev.is_written(ppn) {
                versions[tpage as usize].push((seq, ppn, before));
            }
        }
    }
    let (mut missing, mut kept, mut reclaimed) = (None, None, 0);
    for (tpage, versions) in versions.iter_mut().enumerate() {
        versions.sort_unstable();
        let split = versions.partition_point(|&(seq, _, _)| seq <= min);
        // Step 4b's read set: every version newer than the MIN (unless it
        // is the page's only version), and the base if the first newer one
        // names it and that page still holds it.
        let mut read = vec![false; versions.len()];
        if split < versions.len() && versions.len() > 1 {
            read[split..].fill(true);
            let (seq, _, before) = versions[split];
            let held = before.filter(|&b| dev.erase_seq(geo.block_of(b)) < seq);
            if split > 0 && held == Some(versions[split - 1].1) {
                read[split - 1] = true;
            }
        }
        let current = engine.translation().tpage_location(tpage as u32);
        for (&(seq, ppn, _), &read) in versions.iter().zip(&read) {
            let at = Some((tpage as u32, seq));
            reclaimed += usize::from(dev.is_reclaimed(ppn));
            if read && dev.is_reclaimed(ppn) {
                missing = missing.or(at);
            } else if !read && Some(ppn) != current && !dev.is_reclaimed(ppn) {
                kept = kept.or(at);
            }
        }
    }
    (missing, kept, reclaimed)
}

/// Invariant 17 for Gecko runs: the first page, as `(run id, page)`, that
/// holds its payload although its run is dead and lies strictly inside a
/// live run of its shard — a run a merge with an output retired — and how
/// many such pages there are. `ever_live` collects the ids of the runs seen
/// live so far: a partial merge output a crash left behind was never live,
/// and step 3 reads it.
fn dead_run_payload(
    engine: &FtlEngine,
    ever_live: &mut HashSet<u64>,
) -> (Option<(u64, Ppn)>, usize) {
    let gecko = engine.backend().gecko().expect("gecko");
    let shards = gecko.num_shards() as u32;
    let live: Vec<(u64, (u64, u64), u32)> = gecko
        .all_runs()
        .map(|r| {
            (
                r.meta.id.0,
                r.meta.span(),
                r.pages[0].first.block.0 % shards,
            )
        })
        .collect();
    ever_live.extend(live.iter().map(|&(id, _, _)| id));
    let dev = engine.device();
    let geo = dev.geometry();
    let (mut first, mut pages) = (None, 0);
    for b in geo.iter_blocks() {
        for off in 0..dev.written_pages(b) {
            let ppn = geo.ppn(b, PageOffset(off));
            let Some(SpareInfo::Meta {
                tag:
                    MetaTag::Run {
                        id,
                        span: (lo, hi),
                        first: (first_block, _),
                        ..
                    },
                ..
            }) = dev.peek_spare(ppn).map(|s| s.info)
            else {
                continue;
            };
            let inside = live.iter().any(|&(_, (l, h), shard)| {
                shard == first_block.0 % shards && l <= lo && hi <= h && (l, h) != (lo, hi)
            });
            let dead = ever_live.contains(&id) && live.iter().all(|&(live_id, _, _)| live_id != id);
            if dead && inside && dev.is_written(ppn) {
                pages += 1;
                if !dev.is_reclaimed(ppn) {
                    first = first.or(Some((id, ppn)));
                }
            }
        }
    }
    (first, pages)
}

/// Add to `copies` the seq of every translation-page version on flash that
/// a GC migration wrote naming a base. A sync or an unmap names the version
/// before it; a copy names what the version it copied named, so its spare
/// area names the same page as the version before it. `befores` collects
/// what each version ever seen names, by seq.
fn copies_naming_a_base(
    engine: &FtlEngine,
    seen: &Seen,
    befores: &mut HashMap<u64, Ppn>,
    copies: &mut HashSet<u64>,
) {
    let dev = engine.device();
    let geo = dev.geometry();
    for b in geo.iter_blocks() {
        for off in 0..dev.written_pages(b) {
            if let Some(spare) = dev.peek_spare(geo.ppn(b, PageOffset(off))) {
                if let SpareInfo::Translation {
                    tpage,
                    before: Some(base),
                    ..
                } = spare.info
                {
                    befores.insert(spare.seq, base);
                    let prev = seen.range((tpage, 0)..(tpage, spare.seq)).next_back();
                    if prev.is_some_and(|(_, p)| befores.get(p) == Some(&base)) {
                        copies.insert(spare.seq);
                    }
                }
            }
        }
    }
}

/// What a run of uniform writes did to step 4b's read set, counted in op
/// boundaries, with the first of each kind:
/// - incomplete against the durable watermark, and against the MIN, as
///   `(op, tpage, seq, watermark)` (a copy of the device is recovered at
///   every op boundary of the second kind);
/// - a superseded version the durable watermark has not passed lying in an
///   unprotected block, as `(op, tpage, seq)`;
/// - more versions newer than the durable watermark than `K` plus the ones
///   the op wrote (and the most ever newer than it);
/// - ops that began with more than `MAX_PROTECTED_BLOCKS` blocks protected
///   and flushed Gecko;
/// - a version of the read set against the MIN without its payload, and a
///   superseded version outside it with one, as `(op, tpage, seq)`;
/// - a page of a run a merge with an output retired that holds its payload,
///   as `(op, run id, page)`.
#[derive(Debug, Default)]
struct Census {
    durable_misses: usize,
    first_durable_miss: Option<(usize, u32, u64, u64)>,
    min_misses: usize,
    first_min_miss: Option<(usize, u32, u64, u64)>,
    unprotected: usize,
    first_unprotected: Option<(usize, u32, u64)>,
    chain_overruns: usize,
    longest_chain: usize,
    forced_flushes: usize,
    payloads_missing: usize,
    first_payload_missing: Option<(usize, u32, u64)>,
    payloads_kept: usize,
    first_payload_kept: Option<(usize, u32, u64)>,
    dead_run_payloads: usize,
    first_dead_run_payload: Option<(usize, u64, Ppn)>,
    /// The most translation versions, and the most pages of retired runs,
    /// on flash at one op boundary with their payloads reclaimed.
    most_reclaimed_versions: usize,
    most_dead_run_pages: usize,
    /// Translation-page versions GC copies wrote naming a base.
    base_copies: usize,
}

impl Census {
    /// Invariant 17 held at every op boundary.
    fn payloads_exact(&self) -> bool {
        self.payloads_missing + self.payloads_kept + self.dead_run_payloads == 0
    }
}

/// The census of `ops` uniform writes; with `crash_every = Some(n)`, the
/// power is cut after every `n`-th write (once it is counted) and GeckoRec
/// recovers, so the census also covers engines out of recovery.
fn census(engine: FtlEngine, ops: usize, crash_every: Option<usize>) -> Census {
    census_with(engine, ops, crash_every, true)
}

/// [`census`], recovering a copy of the device where a base is missing
/// against the MIN only if `recover_at_misses`.
fn census_with(
    engine: FtlEngine,
    ops: usize,
    crash_every: Option<usize>,
    recover_at_misses: bool,
) -> Census {
    let logical = engine.geometry().logical_pages();
    let mut ops = Uniform::new(7, logical).take(ops);
    census_of(engine, |_| ops.next(), crash_every, recover_at_misses)
}

/// [`census_with`] over the ops `next_op` returns, given the engine, until
/// it returns `None`.
fn census_of(
    mut engine: FtlEngine,
    mut next_op: impl FnMut(&FtlEngine) -> Option<WorkloadOp>,
    crash_every: Option<usize>,
    recover_at_misses: bool,
) -> Census {
    let mut driver = OpDriver::new(0);
    let mut seen = Seen::new();
    let mut ever_live = HashSet::new();
    let (mut befores, mut copies) = (HashMap::new(), HashSet::new());
    let mut c = Census::default();
    let flushes = |e: &FtlEngine| e.backend().gecko_stats().expect("gecko").flushes;
    for i in 0.. {
        let Some(op) = next_op(&engine) else { break };
        let (seq0, flushes0) = (engine.device().now_seq(), flushes(&engine));
        let protected0 = engine.block_manager().protected_count();
        driver.apply(&mut engine, op, None).expect("in range");
        if protected0 > MAX_PROTECTED_BLOCKS && flushes(&engine) > flushes0 {
            c.forced_flushes += 1;
        }
        let on_flash = versions_on_flash(&engine, &mut seen);
        copies_naming_a_base(&engine, &seen, &mut befores, &mut copies);
        let durable = engine.durable_watermark();
        let min = engine.backend().gecko().expect("gecko").last_flush_seq();
        if let Some((tpage, seq)) = missing_entitled_version(&seen, &on_flash, durable) {
            c.durable_misses += 1;
            c.first_durable_miss.get_or_insert((i, tpage, seq, durable));
        }
        if let Some((tpage, seq)) = missing_entitled_version(&seen, &on_flash, min) {
            c.min_misses += 1;
            c.first_min_miss.get_or_insert((i, tpage, seq, min));
            // A power cut here: step 4b must diff the first newer version
            // against nothing rather than read an older, reclaimed one.
            if recover_at_misses {
                let (cfg, gecko_cfg) = (engine.config(), engine.backend().gecko_config());
                gecko_recover(engine.device().clone(), cfg, gecko_cfg.expect("gecko"));
            }
        }
        if let Some((tpage, seq)) = unprotected_version(&engine, &seen, &on_flash) {
            c.unprotected += 1;
            c.first_unprotected.get_or_insert((i, tpage, seq));
        }
        let (missing, kept, reclaimed) = payload_mismatches(&engine);
        c.most_reclaimed_versions = c.most_reclaimed_versions.max(reclaimed);
        if let Some((tpage, seq)) = missing {
            c.payloads_missing += 1;
            c.first_payload_missing.get_or_insert((i, tpage, seq));
        }
        if let Some((tpage, seq)) = kept {
            c.payloads_kept += 1;
            c.first_payload_kept.get_or_insert((i, tpage, seq));
        }
        let (dead, dead_pages) = dead_run_payload(&engine, &mut ever_live);
        c.most_dead_run_pages = c.most_dead_run_pages.max(dead_pages);
        if let Some((id, ppn)) = dead {
            c.dead_run_payloads += 1;
            c.first_dead_run_payload.get_or_insert((i, id, ppn));
        }
        let newer = seen.iter().filter(|&&(_, s)| s > durable).count();
        let written = seen.iter().filter(|&&(_, s)| s >= seq0).count();
        if newer > MAX_UNFLUSHED_VERSIONS + written {
            c.chain_overruns += 1;
        }
        c.longest_chain = c.longest_chain.max(newer);
        if crash_every.is_some_and(|n| (i + 1) % n == 0) {
            let (cfg, gecko_cfg) = (engine.config(), engine.backend().gecko_config());
            engine = gecko_recover(engine.crash(), cfg, gecko_cfg.expect("gecko")).0;
        }
    }
    c.base_copies = copies.len();
    c
}

/// The tiny geometry's one translation page and a Gecko buffer of a few
/// entries: chains stay short, flushes are frequent.
fn tiny_engine(shards: u32) -> FtlEngine {
    small_gecko_engine(Geometry::tiny(), 32, shards)
}

/// A few translation pages and the paper-default buffer, hundreds of
/// entries deep: uniform writes sync far more often than the buffer fills.
/// With 16-page blocks the version cap fires first; with 8-page blocks,
/// whose `MAX_PROTECTED_BLOCKS` blocks hold fewer versions than the cap, the
/// protected-block rule does.
fn deep_buffer_engine(pages_per_block: u32, shards: u32) -> FtlEngine {
    let geo = Geometry::new(4096 / pages_per_block, pages_per_block, 1 << 12, 0.7);
    let cfg = FtlConfig {
        cache_entries: 16,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko_cfg = GeckoConfig {
        shards,
        ..GeckoConfig::paper_default(&geo)
    };
    FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko_cfg))
}

#[test]
fn recovery_read_set_stays_on_flash_with_one_tree() {
    let c = census(tiny_engine(1), 4_000, None);
    assert_eq!(c.durable_misses, 0, "{c:?}");
    assert_eq!(c.unprotected, 0, "{c:?}");
    assert_eq!(c.min_misses, 0, "{c:?}");
    assert!(c.payloads_exact(), "{c:?}");
}

/// With several trees a protection is released by its stamp, not by a MIN
/// advance: lifting every protection whenever the MIN shard watermark
/// advances also lifts those taken after the new MIN, and then this census
/// misses a version at most op boundaries with four trees (ROADMAP item 1).
#[test]
fn recovery_read_set_stays_on_flash_with_two_and_four_trees() {
    for shards in [2, 4] {
        let c = census(tiny_engine(shards), 4_000, None);
        assert_eq!(c.durable_misses, 0, "shards = {shards}: {c:?}");
        assert_eq!(c.unprotected, 0, "shards = {shards}: {c:?}");
        assert_eq!(c.min_misses, 0, "shards = {shards}: {c:?}");
        assert!(c.payloads_exact(), "shards = {shards}: {c:?}");
    }
}

/// DESIGN.md invariant 14: at the start of every host write at most `K`
/// versions are newer than the durable watermark, so after any op at most
/// `K` plus the ones the op wrote are — with one tree and with four, and
/// with every link of the chain still on flash.
#[test]
fn versions_newer_than_the_durable_watermark_stay_bounded() {
    for shards in [1, 4] {
        let c = census(deep_buffer_engine(16, shards), 3_000, None);
        assert_eq!(c.chain_overruns, 0, "shards = {shards}: {c:?}");
        assert!(
            c.longest_chain >= MAX_UNFLUSHED_VERSIONS - 1,
            "shards = {shards}: the chain never reached the cap: {c:?}"
        );
        assert_eq!(c.durable_misses, 0, "shards = {shards}: {c:?}");
        assert_eq!(c.unprotected, 0, "shards = {shards}: {c:?}");
        assert_eq!(c.min_misses, 0, "shards = {shards}: {c:?}");
        assert!(c.payloads_exact(), "shards = {shards}: {c:?}");
    }
}

/// ROADMAP item 1's one-tree variant: a sync that finds more than
/// `MAX_PROTECTED_BLOCKS` blocks protected flushes Gecko first and only then
/// protects the version it supersedes, so the flush cannot release that
/// protection. Taken the other way round, the flush released it, the
/// superseded version's block could be erased on the spot, and the sync's
/// buffered reports lost their base (31 unprotected op boundaries here).
#[test]
fn forced_flush_keeps_the_protection_its_sync_takes() {
    let c = census(deep_buffer_engine(8, 1), 3_000, None);
    assert_eq!(c.unprotected, 0, "{c:?}");
    assert_eq!(c.durable_misses, 0, "{c:?}");
    assert_eq!(c.min_misses, 0, "{c:?}");
    assert!(c.payloads_exact(), "{c:?}");
    assert!(
        c.forced_flushes > 0,
        "the protected-block rule never fired: {c:?}"
    );
}

/// Step 4b's read set across power cuts, every 5 and every 20 writes: the
/// engine GeckoRec returns resumes with the version chain step 4b read
/// (DESIGN.md invariant 14), so the versions a later recovery diffs stay
/// protected. Without that chain, crashing every 5 writes left a superseded
/// version in an unprotected block at 33 op boundaries with one tree and
/// 753 with four. With four trees the MIN can still miss a base the engine
/// released against the durable watermark before the crash (invariant 6's
/// accepted case: 4 of 4 000 boundaries), so misses are asserted with one
/// tree only.
#[test]
fn recovered_engines_keep_the_read_set_protected() {
    for crash_every in [5, 20] {
        for shards in [1, 4] {
            let c = census(tiny_engine(shards), 4_000, Some(crash_every));
            let at = format!("shards = {shards}, crash every {crash_every}: {c:?}");
            assert_eq!(c.unprotected, 0, "{at}");
            assert_eq!(c.chain_overruns, 0, "{at}");
            assert!(c.payloads_exact(), "{at}");
            if shards == 1 {
                assert_eq!(c.durable_misses, 0, "{at}");
                assert_eq!(c.min_misses, 0, "{at}");
            }
        }
    }
}

/// DESIGN.md invariant 17, ROADMAP item 10's saving: after every op of
/// uniform writes, with one tree and with four, without power cuts and with
/// one after every 5 and every 20 writes, every version of step 4b's read
/// set against the MIN holds its payload, no other superseded version does,
/// and no page of a run a merge with an output retired does either. The
/// engine drops both kinds, so neither check is empty.
#[test]
fn payloads_are_held_exactly_while_recovery_may_read_them() {
    for shards in [1, 4] {
        for crash_every in [None, Some(5), Some(20)] {
            let c = census(tiny_engine(shards), 4_000, crash_every);
            let at = format!("shards = {shards}, crash every {crash_every:?}: {c:?}");
            assert!(c.payloads_exact(), "{at}");
            assert!(c.most_reclaimed_versions > 0, "{at}");
            assert!(c.most_dead_run_pages > 0, "{at}");
        }
    }
}

/// DESIGN.md invariant 17 at the boundaries where the MIN misses a base:
/// with four trees a base released against the durable watermark can be
/// gone while the MIN has not passed its successor. The census recovers a
/// copy of the device at each op boundary where a base is missing (the tiny
/// geometry, a power cut after every third write), and every such recovery
/// reads only payloads the engine holds. The miss is rare, and which op
/// streams show it moves with flush timing, so the census runs uniform
/// streams from seeds 1, 2, … until one shows it, sixteen at most (seed 9
/// shows it).
#[test]
fn recoveries_where_a_base_is_missing_read_only_held_payloads() {
    let missed = (1..=16).find(|&seed| {
        let engine = tiny_engine(4);
        let mut ops = Uniform::new(seed, engine.geometry().logical_pages()).take(4_000);
        let c = census_of(engine, |_| ops.next(), Some(3), true);
        assert!(c.payloads_exact(), "seed {seed}: {c:?}");
        c.min_misses > 0
    });
    assert!(missed.is_some(), "no base was missing on seeds 1 to 16");
}

/// DESIGN.md invariant 17: every merge leaves a run, even one whose fold
/// drops every entry, so a tree that has flushed keeps a run and its flush
/// watermark on flash. A sequential fill, a power cut before any Gecko
/// flush, and rewrites of the 32 newest LPNs on the tiny geometry with four
/// trees make such folds: step 4a's erase markers cancel the first flushes'
/// entries. After every rewrite each tree that has flushed holds a run, and
/// a copy of the device is recovered: no recovered tree without a run has a
/// watermark above 0, and each keeps at least the live tree's. A fold that
/// writes no run when it drops every entry fails this: it empties trees.
#[test]
fn no_merge_empties_a_tree() {
    let mut engine = small_gecko_engine(Geometry::tiny(), 16, 4);
    let (cfg, gecko_cfg) = (engine.config(), engine.backend().gecko_config().unwrap());
    let logical = engine.geometry().logical_pages() as u32;
    for lpn in 0..logical {
        engine.write(Lpn(lpn), 1);
    }
    engine = gecko_recover(engine.crash(), cfg, gecko_cfg).0;
    // Each tree's watermark, and whether it holds a run.
    let trees = |engine: &FtlEngine| -> Vec<(u64, bool)> {
        let gecko = engine.backend().gecko().expect("gecko");
        let trees = gecko.shard_trees().iter();
        trees
            .map(|t| (t.last_flush_seq(), t.runs_newest_first().next().is_some()))
            .collect()
    };
    for op in 0..1_600 {
        engine.write(Lpn(logical - 1 - op % 32), op.into());
        let live = trees(&engine);
        let (recovered, _) = gecko_recover(engine.device().clone(), cfg, gecko_cfg);
        for (shard, (&(live_w, live_run), (w, run))) in
            live.iter().zip(trees(&recovered)).enumerate()
        {
            let at = format!("rewrite {op}, tree {shard}: watermark {live_w} → {w}");
            assert!(live_w == 0 || live_run, "{at}: the live tree holds no run");
            assert!(w == 0 || run, "{at}: the recovered tree holds no run");
            assert!(w >= live_w, "{at}");
        }
    }
}

/// Greedy GC migrates translation pages (`GcPolicy::GreedyAll`, the
/// baselines' policy, run here with Gecko): the copy of a version newer than
/// the MIN names that version's base, and the copied version is erased with
/// the victim. After every op the payloads are still exactly step 4b's read
/// set: under uniform writes with one tree and with four, and with two trees
/// of which one is kept idle. Under uniform writes every tree keeps
/// receiving reports, and no copied version is newer than the MIN (48 and 2
/// copies, none naming a base). So the last scenario, after 1 000 uniform
/// writes, overwrites only LPNs whose copy lies in an even block, which tree
/// 0 owns: tree 1 receives no report, its watermark holds the MIN back, and
/// 15 copies name a base. Base misses are not asserted: Gecko with greedy GC
/// is not crash-safe (ROADMAP item 1), and a copy erases a version of the
/// read set at hundreds of op boundaries here. Nor is the device recovered
/// there: `crash_storm.rs` storms Gecko with greedy GC through recoveries,
/// each checked against the reference GeckoRec.
#[test]
fn greedy_gc_copies_keep_the_payloads_exact() {
    let geo = Geometry::new(128, 4, 1 << 10, 0.6);
    let engine = |shards| {
        let cfg = FtlConfig {
            cache_entries: 32,
            gc_policy: GcPolicy::GreedyAll,
            ..FtlConfig::geckoftl(&geo)
        };
        let gecko_cfg = GeckoConfig {
            page_header_bytes: geo.page_bytes - 64,
            shards,
            ..GeckoConfig::paper_default(&geo)
        };
        FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko_cfg))
    };
    for shards in [1, 4] {
        let c = census_with(engine(shards), 4_000, None, false);
        assert!(c.payloads_exact(), "shards = {shards}: {c:?}");
    }
    let mut lpns = Uniform::new(7, geo.logical_pages()).map(|op| match op {
        WorkloadOp::Write(lpn) => lpn,
        op => unreachable!("uniform writes only: {op:?}"),
    });
    // Unwritten, or written to a block of tree 0.
    let in_tree_0 = |e: &FtlEngine, lpn| {
        e.current_mapping(lpn)
            .is_none_or(|p| geo.block_of(p).0.is_multiple_of(2))
    };
    let mut ops = 0;
    let next_op = |e: &FtlEngine| {
        ops += 1;
        let warm = ops <= 1_000;
        (ops <= 4_000).then(|| WorkloadOp::Write(lpns.find(|&l| warm || in_tree_0(e, l)).unwrap()))
    };
    let c = census_of(engine(2), next_op, None, false);
    assert!(c.base_copies > 0, "no GC copy named a base: {c:?}");
    assert!(c.payloads_exact(), "{c:?}");
}
