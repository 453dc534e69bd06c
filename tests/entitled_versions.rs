//! GeckoRec step 4b's read set stays on flash (ROADMAP item 10's check, the
//! gate for item 1).
//!
//! Step 4b reads translation pages in one pattern. For every page with a
//! version newer than the MIN flush watermark (`last_flush_seq`), it reads
//! the *base* — the newest version at or before the watermark — and every
//! later version, and diffs each against its predecessor. A version of that
//! set erased before the crash makes recovery diff against an older base, or
//! none, and silently miss the invalidations in between (DESIGN.md
//! invariants 2 and 6). App. C.2.2's no-erase list exists to keep them.
//!
//! The engine releases a protection once the store's *durable watermark*
//! (`FtlEngine::durable_watermark`: a shard with an empty buffer counts as
//! flushed now) passes its stamp, so the read set it promises to keep is the
//! one against that watermark; recovery reads against the persisted MIN,
//! which is never newer. The check drives uniform writes and, after every
//! op, records every translation-page version on flash (spare areas peeked
//! without IO). It then asks, against both watermarks, whether the base and
//! every later version of each page, among the versions ever seen, are
//! still there.

use gecko_bench::harness::{small_gecko_engine, OpDriver};
use geckoftl::flash_sim::{BlockId, Geometry, PageOffset, SpareInfo};
use geckoftl::ftl_workloads::Uniform;
use geckoftl::geckoftl_core::ftl::{
    FtlConfig, FtlEngine, ValidityBackend, MAX_PROTECTED_BLOCKS, MAX_UNFLUSHED_VERSIONS,
};
use geckoftl::geckoftl_core::gecko::GeckoConfig;
use geckoftl::geckoftl_core::recovery::gecko_recover;
use std::collections::{BTreeSet, HashMap};

/// Translation-page versions ever seen on flash, as `(tpage, seq)`, newest
/// last per page.
type Seen = BTreeSet<(u32, u64)>;

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
                if let SpareInfo::Translation { tpage } = spare.info {
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
) -> Option<(u32, u64)> {
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
) -> Option<(u32, u64)> {
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

/// What a run of uniform writes did to step 4b's read set, counted in op
/// boundaries, with the first of each kind:
/// - incomplete against the durable watermark, and against the MIN, as
///   `(op, tpage, seq, watermark)`;
/// - a superseded version the durable watermark has not passed lying in an
///   unprotected block, as `(op, tpage, seq)`;
/// - more versions newer than the durable watermark than `K` plus the ones
///   the op wrote (and the most ever newer than it);
/// - ops that began with more than `MAX_PROTECTED_BLOCKS` blocks protected
///   and flushed Gecko.
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
}

/// The census of `ops` uniform writes; with `crash_every = Some(n)`, the
/// power is cut after every `n`-th write (once it is counted) and GeckoRec
/// recovers, so the census also covers engines out of recovery.
fn census(mut engine: FtlEngine, ops: usize, crash_every: Option<usize>) -> Census {
    let logical = engine.geometry().logical_pages();
    let mut driver = OpDriver::new(0);
    let mut seen = Seen::new();
    let mut c = Census::default();
    let flushes = |e: &FtlEngine| e.backend().gecko_stats().expect("gecko").flushes;
    for (i, op) in Uniform::new(7, logical).take(ops).enumerate() {
        let (seq0, flushes0) = (engine.device().now_seq(), flushes(&engine));
        let protected0 = engine.block_manager().protected_count();
        driver.apply(&mut engine, op, None).expect("in range");
        if protected0 > MAX_PROTECTED_BLOCKS && flushes(&engine) > flushes0 {
            c.forced_flushes += 1;
        }
        let on_flash = versions_on_flash(&engine, &mut seen);
        let durable = engine.durable_watermark();
        let min = engine.backend().gecko().expect("gecko").last_flush_seq();
        if let Some((tpage, seq)) = missing_entitled_version(&seen, &on_flash, durable) {
            c.durable_misses += 1;
            c.first_durable_miss.get_or_insert((i, tpage, seq, durable));
        }
        if let Some((tpage, seq)) = missing_entitled_version(&seen, &on_flash, min) {
            c.min_misses += 1;
            c.first_min_miss.get_or_insert((i, tpage, seq, min));
        }
        if let Some((tpage, seq)) = unprotected_version(&engine, &seen, &on_flash) {
            c.unprotected += 1;
            c.first_unprotected.get_or_insert((i, tpage, seq));
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
            if shards == 1 {
                assert_eq!(c.durable_misses, 0, "{at}");
                assert_eq!(c.min_misses, 0, "{at}");
            }
        }
    }
}
