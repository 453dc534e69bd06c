//! Crash storms: repeated power cuts at op boundaries, each followed by
//! GeckoRec and a read-back of every LPN.
//!
//! A recovered engine must keep what the *next* recovery reads: GeckoRec
//! step 4b diffs every translation-page version newer than the persisted
//! flush watermark against its base, so GeckoRec hands the engine the
//! version chain it has just read, and the block manager keeps those
//! versions' blocks until their reports are durable (DESIGN.md invariant 14).
//! An engine that erased such a base would lose the reports only that diff
//! re-derives; GC would then migrate a stale copy, whose newer seq makes it
//! win over the acknowledged one.
//!
//! The erased trail, a user block erased before a flush while it held the
//! only before-pointer to a page whose report was still buffered, is closed:
//! GC flushes the store before such an erase (DESIGN.md invariant 9), and
//! the micro device's storm that traced it passes. So is the greedy hole: a
//! GC copy of a translation page carried the copied version's mappings
//! under a newer seq, and GeckoRec judged the pages they name by that seq;
//! a copy now records when its mappings were current (DESIGN.md invariant
//! 12), and Gecko with `GcPolicy::GreedyAll` recovers. A census storms both
//! recipes' seeds, and none fails.
//!
//! And recovery revives no merged-away run: every merge leaves a run whose
//! span records its inputs' death, even one whose fold drops every entry;
//! a power cut inside a multi-page flush run leaves the previous run's
//! watermark; and a second power cut before the recovered engine's first
//! checkpoint loses nothing.
//!
//! Every recovery here is also checked against the reference GeckoRec
//! (`common::reference`): on a clone of the crash image, the library's
//! recovery must give every user block the reference's GC answer and BVC.

use flash_sim::{FaultPlan, FlashDevice, Geometry, Lpn, MetaTag, Ppn, SpareInfo, WriteFault};
use ftl_workloads::Oracle;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, GcPolicy, ValidityBackend};
use geckoftl_core::gecko::{GeckoConfig, GeckoPagePayload, RunId};
use geckoftl_core::recovery::gecko_recover;

#[allow(dead_code)] // `run_workload` and `verify_all` serve the other test files
mod common;
use common::reference::check_recovery;
use common::{crash_and_recover, Lcg};

/// `geo` with a `cache_entries`-entry cache, `shards` trees, and Gecko pages
/// shrunk to 64 bytes of entries so the store flushes and merges at this
/// scale.
fn engine(geo: Geometry, cache_entries: usize, shards: u32) -> FtlEngine {
    let cfg = FtlConfig {
        cache_entries,
        ..FtlConfig::geckoftl(&geo)
    };
    engine_with(geo, cfg, shards)
}

/// [`engine`] with the FTL configuration `cfg`.
fn engine_with(geo: Geometry, cfg: FtlConfig, shards: u32) -> FtlEngine {
    let gecko = GeckoConfig {
        page_header_bytes: geo.page_bytes - 64,
        shards,
        ..GeckoConfig::paper_default(&geo)
    };
    FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko))
}

/// ROADMAP item 1's micro recipe: 32 blocks of 4 pages, 64 logical pages,
/// an 8-entry cache, one tree.
fn micro_engine() -> FtlEngine {
    engine(Geometry::new(32, 4, 4096, 0.5), 8, 1)
}

/// ROADMAP item 1's greedy recipe: six translation pages, a 16-entry cache,
/// `GcPolicy::GreedyAll`, one tree.
fn greedy_engine() -> FtlEngine {
    let geo = Geometry::new(64, 32, 1 << 10, 0.7);
    let cfg = FtlConfig {
        cache_entries: 16,
        gc_policy: GcPolicy::GreedyAll,
        ..FtlConfig::geckoftl(&geo)
    };
    engine_with(geo, cfg, 1)
}

/// `ops` ops on uniformly random LPNs from `Lcg(seed)`: op `i` writes
/// version `i`, or with `trim_one_in = Some(n)` trims one op in `n`; after
/// one op in five the power is cut, GeckoRec recovers, and every LPN is read
/// back against the acknowledged state.
fn storm(engine: FtlEngine, seed: u64, ops: u64, trim_one_in: Option<u64>) {
    storm_with(engine, seed, ops, trim_one_in, |_, _| {});
}

/// [`storm`], calling `after_op` with the engine and the acknowledged state
/// after every op, before the power cut that may follow it.
fn storm_with(
    mut engine: FtlEngine,
    seed: u64,
    ops: u64,
    trim_one_in: Option<u64>,
    mut after_op: impl FnMut(&FtlEngine, &Oracle),
) {
    let logical = engine.geometry().logical_pages();
    let shards = engine.backend().gecko_config().expect("gecko").shards;
    let mut oracle = Oracle::new(logical);
    let mut rng = Lcg(seed);
    for version in 1..=ops {
        let lpn = Lpn((rng.next() % logical) as u32);
        if trim_one_in.is_some_and(|n| rng.next().is_multiple_of(n)) {
            engine.trim(lpn);
            oracle.ack_trim(lpn);
        } else {
            engine.write(lpn, version);
            oracle.ack_write(lpn, version);
        }
        after_op(&engine, &oracle);
        if rng.next().is_multiple_of(5) {
            engine = crash_and_recover(engine).0;
            assert_eq!(
                oracle.verify(|lpn| engine.read(lpn)),
                Ok(()),
                "shards {shards}, seed {seed}, trims 1 in {trim_one_in:?}: after op {version}"
            );
        }
    }
}

/// `Geometry::tiny()` with a 16-entry cache at one, two and four trees, ten
/// seeds of 3 000 ops each, without and with trims: every acknowledged
/// write and trim reads back after every one of ≈ 600 recoveries per run.
/// Before GeckoRec handed over its version chain, this recipe failed on 19,
/// 20 and 20 of 20 seeds at one, two and four trees without trims, and on
/// all 20 with them.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
fn crash_storms_lose_no_acknowledged_write() {
    for shards in [1, 2, 4] {
        for trim_one_in in [None, Some(8)] {
            for seed in 0..10 {
                let fresh = engine(Geometry::tiny(), 16, shards);
                storm(fresh, seed, 3_000, trim_one_in);
            }
        }
    }
}

/// A collection the power cut, recovered, and then a second power cut after
/// the recovered engine's first checkpoint. The cut victim's old copies are
/// reported only by their copies' before-pointers, which GeckoRec step 6
/// re-derives into the buffer. Where a flush came between the copies and the
/// first cut, the next scan reaches the copies only through the checkpoint
/// horizon, which the recovered engine's first checkpoint lifts past them:
/// so GeckoRec flushes such reports at resume (DESIGN.md invariant 18).
/// Four storms of the [`crash_storms_lose_no_acknowledged_write`] recipe,
/// outside its seeds, where the reference found pages of the cut victim
/// invalid that GeckoRec left valid before that flush.
///
/// Mutation this fails on: no flush at resume.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
fn a_collection_cut_twice_by_the_power_keeps_its_old_copies_invalid() {
    for (shards, trim_one_in, seed) in [
        (1, None, 18),
        (1, Some(8), 17),
        (2, Some(8), 20),
        (4, None, 56),
    ] {
        storm(
            engine(Geometry::tiny(), 16, shards),
            seed,
            3_000,
            trim_one_in,
        );
    }
}

/// ROADMAP item 1's micro recipe ([`micro_engine`]) at seed 28, the erased
/// trail as traced before its fix. At op 230 GC migrated L29 to P33 (seq
/// 507); at op 232 a write of L29 reported P33 into the Gecko buffer, and
/// the new copy P40 (seq 511) carried the before-pointer step 6 would
/// re-derive that report from. GC erased P40's block at op 236, before the
/// next flush, and the power cut after op 237 lost the buffer: no trail
/// named P33 any more, and a later collection migrated it as live
/// (`StaleMigration: P33 (seq 507) of L29, target P60 (seq 595)` under the
/// GC auditor). Now a user block whose newest page is newer than the
/// durable watermark is erased only after a flush (DESIGN.md invariant 9),
/// so the storm passes the auditor's per-event checks under debug
/// assertions and reads every acknowledged write back in every profile.
#[test]
fn erased_trail_storm_passes_the_gc_auditor() {
    storm(micro_engine(), 28, 3_000, None);
}

/// ROADMAP item 1's greedy hole, closed. Greedy GC migrates translation
/// pages, and a copy carries the copied version's mappings, which can name a
/// user page whose block was erased before the copy was written. Step 4b
/// judged such a page by the copy's own seq, so invariant 12's
/// erase-timestamp rule kept a page the version no longer held, and step 4b
/// reported it invalid. Item 1's recipe ([`greedy_engine`]) at seed 7 failed
/// in every profile: under debug assertions at step 4b's former spare-area
/// cross-check on P133, in release when a read reached P216, a page of an
/// erased block. A copy now carries the seq its mappings were current at,
/// step 4b judges by that, and the storm reads every acknowledged write back
/// and agrees with the reference GeckoRec at every recovery.
#[test]
fn greedy_gc_storm_loses_no_acknowledged_write() {
    storm(greedy_engine(), 7, 3_000, None);
}

/// The ids of every shard's live runs.
fn live_run_ids(engine: &FtlEngine) -> Vec<u64> {
    let gecko = engine.backend().gecko().expect("gecko");
    gecko.all_runs().map(|r| r.meta.id.0).collect()
}

/// Whether some tree's oldest run is a merge output holding one erase
/// marker with no invalidation since: what a fold that would have dropped
/// every entry keeps.
fn a_tree_kept_one_marker(engine: &FtlEngine) -> bool {
    let gecko = engine.backend().gecko().expect("gecko");
    let dev = engine.device();
    gecko
        .shard_trees()
        .iter()
        .filter_map(|tree| tree.runs_newest_first().last())
        .any(|run| {
            let (since, upto) = run.meta.span();
            let page = dev.peek_page(run.pages[0].ppn).expect("live run page");
            let entries = &page.blob::<GeckoPagePayload>().expect("run page").entries;
            since < upto
                && run.pages.len() == 1
                && matches!(&entries[..], [e] if e.erase_flag && e.bitmap.is_empty())
        })
}

/// Every merge leaves a run, even one whose fold drops every entry: it keeps
/// the last key's erase marker. So no merged-away run lies outside a kept
/// run's span, and GeckoRec step 3 revives none. The tiny geometry at four
/// trees with a 16-entry cache is filled sequentially, the power is cut
/// before any Gecko flush, and then its 16 newest LPNs are rewritten in
/// turn, the power cut and the device recovered after every 97th rewrite:
/// step 4a's erase markers cancel the first flushes' entries, and such folds
/// follow (first at rewrite 326, a tree's oldest run holds only an erase
/// marker with nothing invalidated since). Sequential rewrites of the whole
/// device made them while step 4a also marked every block whose first page
/// was newer than the flush. After every rewrite the device is also
/// recovered as a power cut would leave it: the recovery agrees with the
/// reference GeckoRec, the runs it found are exactly the live engine's, the
/// recovered engine passes the GC auditor, and every acknowledged write
/// reads back. A fold that writes no run when it drops every entry fails
/// this: recovery revives its inputs.
#[test]
fn recovery_revives_no_merged_away_run() {
    let mut engine = engine(Geometry::tiny(), 16, 4);
    let (cfg, gecko_cfg) = (engine.config(), engine.backend().gecko_config().unwrap());
    let logical = engine.geometry().logical_pages() as u32;
    let mut oracle = Oracle::new(logical as u64);
    for lpn in 0..logical {
        engine.write(Lpn(lpn), 0);
        oracle.ack_write(Lpn(lpn), 0);
    }
    engine = crash_and_recover(engine).0;
    let mut kept_one = 0;
    for op in 1..=1_600u32 {
        let lpn = Lpn(logical - 1 - op % 16);
        engine.write(lpn, op.into());
        oracle.ack_write(lpn, op.into());
        if op % 97 == 0 {
            engine = crash_and_recover(engine).0;
        }
        kept_one += usize::from(a_tree_kept_one_marker(&engine));
        check_recovery(engine.device(), cfg, gecko_cfg);
        let (mut recovered, _) = gecko_recover(engine.device().clone(), cfg, gecko_cfg);
        // Runs the recovered engine flushed itself, verifying the
        // entries that did not fit its cache, are newer than the image.
        let mut found = live_run_ids(&recovered);
        found.retain(|&id| id < engine.device().now_seq());
        let at = format!("after rewrite {op}");
        assert_eq!(found, live_run_ids(&engine), "{at}");
        assert_eq!(oracle.verify(|lpn| recovered.read(lpn)), Ok(()), "{at}");
        // The auditor judges a quiesced device: recovery's own entries are
        // still UIPs until a clean shutdown identifies them.
        recovered.shutdown_clean();
        assert_eq!(recovered.audit(), Ok(()), "{at}");
    }
    assert!(kept_one > 0, "no fold kept one marker");
}

/// The panic message of `f`, if it panics.
fn failure(f: impl FnOnce()) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |m| m.to_string()),
    })
}

/// The storm census: ROADMAP item 1's micro recipe, seeds 0–49, and its
/// greedy recipe, seeds 0–19, fail on no seed. The micro recipe fails on
/// none since the erased trail was closed (it failed on 5, 9 and 14 in
/// release, and 28 too under debug assertions, all at a stale migration).
/// The greedy recipe fails on none since a copy of a translation page
/// carries when its mappings were current: before, it failed on 2 seeds in
/// release (7 and 19, a read of an erased page) and 13 under debug
/// assertions (at step 4b's former erase-timestamp cross-check), and with
/// clean-first eviction, which keeps dirty entries cached longer so that
/// more copies lag the cache, on 6 and 16. A seed that joins either set is
/// traced before the census is changed.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
fn storm_census_finds_no_failing_seed() {
    census("micro", 50, micro_engine);
    census("greedy", 20, greedy_engine);
}

/// Storm `fresh()` engines at seeds `0..seeds`: none may fail.
fn census(recipe: &str, seeds: u64, fresh: fn() -> FtlEngine) {
    let failures: Vec<(u64, String)> = (0..seeds)
        .filter_map(|seed| failure(|| storm(fresh(), seed, 3_000, None)).map(|m| (seed, m)))
        .collect();
    assert_eq!(failures, [], "{recipe} recipe's failing seeds");
}

/// A multi-page flush run found by [`first_multi_page_flush`].
struct FlushRun {
    /// Index of the op whose flush writes the run.
    op: usize,
    /// The program attempts that op makes.
    attempts: std::ops::Range<u64>,
    /// The flushing tree.
    tree: usize,
    id: RunId,
    pages: Vec<Ppn>,
    /// The tree's watermark before the flush: the previous run's.
    watermark: u64,
}

/// Write `lpns[i]` with version `i + 1` until an op's flush writes a run of
/// two pages or more; the ops done, and the run.
fn first_multi_page_flush(mut engine: FtlEngine) -> (Vec<Lpn>, FlushRun) {
    let logical = engine.geometry().logical_pages();
    let mut rng = Lcg(7);
    let mut lpns = Vec::new();
    let watermarks = |engine: &FtlEngine| -> Vec<u64> {
        let gecko = engine.backend().gecko().expect("gecko");
        gecko
            .shard_trees()
            .iter()
            .map(|t| t.last_flush_seq())
            .collect()
    };
    while lpns.len() < 5_000 {
        let before = watermarks(&engine);
        let first_attempt = engine.device().write_attempts();
        let lpn = Lpn((rng.next() % logical) as u32);
        lpns.push(lpn);
        engine.write(lpn, lpns.len() as u64);
        let after = watermarks(&engine);
        let trees = engine.backend().gecko().expect("gecko").shard_trees();
        for (tree, t) in trees.iter().enumerate() {
            let flushed = t
                .runs_newest_first()
                .find(|r| before[tree] < after[tree] && r.meta.id.0 == after[tree]);
            if let Some(run) = flushed.filter(|r| r.pages.len() >= 2) {
                let found = FlushRun {
                    op: lpns.len() - 1,
                    attempts: first_attempt..engine.device().write_attempts(),
                    tree,
                    id: run.meta.id,
                    pages: run.pages.iter().map(|p| p.ppn).collect(),
                    watermark: before[tree],
                };
                return (lpns, found);
            }
        }
    }
    panic!("no flush wrote two pages in 5 000 ops");
}

/// Whether `ppn`'s spare area on `image` names run `id`.
fn spare_names(image: &FlashDevice, ppn: Ppn, id: RunId) -> bool {
    image.peek_spare(ppn).is_some_and(|spare| {
        matches!(spare.info, SpareInfo::Meta { tag: MetaTag::Run { id: run, .. }, .. } if run == id.0)
    })
}

/// A power cut at every program attempt of a multi-page flush run. On this
/// device a sync's report batch can overshoot a tree's buffer, so a flush
/// run can have several pages. The ops up to the first flush of two pages or
/// more are replayed once per program attempt of that op, with the page that
/// attempt programs torn. A cut at any page of the run leaves fewer readable
/// pages than the run's spare tags count: recovery discards the partial run,
/// and the tree's watermark on flash is the previous run's, so steps 4a and
/// 4b re-derive the whole buffer. Every cut, inside the run or not, keeps
/// every acknowledged write and agrees with the reference GeckoRec, at one
/// tree and at four.
#[test]
fn power_cut_inside_a_flush_run_keeps_the_previous_watermark() {
    for shards in [1, 4] {
        let fresh = || engine(Geometry::tiny(), 16, shards);
        let (cfg, gecko_cfg) = (fresh().config(), fresh().backend().gecko_config().unwrap());
        let (lpns, run) = first_multi_page_flush(fresh());
        let mut cuts_in_run = 0;
        for attempt in run.attempts.clone() {
            let mut engine = fresh();
            let mut oracle = Oracle::new(engine.geometry().logical_pages());
            for (i, &lpn) in lpns[..run.op].iter().enumerate() {
                engine.write(lpn, i as u64 + 1);
                oracle.ack_write(lpn, i as u64 + 1);
            }
            let plan = FaultPlan::new().on_write(attempt, WriteFault::TornData);
            engine.with_raw_parts(|dev, _| dev.set_fault_plan(plan));
            let (lpn, version) = (lpns[run.op], run.op as u64 + 1);
            oracle.in_flight(lpn, Some(version));
            engine.write(lpn, version);
            let image = engine.with_raw_parts(|dev, _| dev.take_crash_image());
            let image = image.expect("a torn write cuts the power");
            let at = format!("shards {shards}, cut at program attempt {attempt}");
            let named = run
                .pages
                .iter()
                .filter(|&&p| spare_names(&image, p, run.id));
            let readable = named.clone().filter(|&&p| image.is_written(p)).count();
            let named = named.count();
            // The torn page keeps its spare area but not its data.
            cuts_in_run += usize::from(named == readable + 1);
            check_recovery(&image, cfg, gecko_cfg);
            let (mut recovered, report) = gecko_recover(image, cfg, gecko_cfg);
            let watermark = report.flush_watermarks[run.tree];
            if readable == run.pages.len() {
                assert_eq!(watermark, run.id.0, "{at}: recovered watermark");
            } else {
                assert_eq!(watermark, run.watermark, "{at}: recovered watermark");
            }
            // With a page of the run on flash, the image's sequence is past
            // the run's id, so no run the recovered engine writes reuses it.
            if named > 0 && readable < run.pages.len() {
                let gecko = recovered.backend().gecko().expect("gecko");
                let mut runs = gecko.shard_trees()[run.tree].runs_newest_first();
                assert!(runs.all(|r| r.meta.id != run.id), "{at}: partial run kept");
            }
            assert_eq!(oracle.verify(|lpn| recovered.read(lpn)), Ok(()), "{at}");
        }
        assert_eq!(
            cuts_in_run,
            run.pages.len(),
            "shards {shards}: a cut per page"
        );
    }
}

/// A recovery after a recovery keeps every acknowledged write (DESIGN.md
/// invariant 15). A 4 096-block device of 8 pages and 128 entries per
/// translation page, a 64-entry cache: 191 writes (3·C − 1) alternate LPN 0
/// with one LPN of each translation page in turn, the power is cut, then 63
/// more writes of LPN 0 and a second cut. The first recovery's entries stay
/// dirty until the engine's first checkpoint, which 63 operations do not
/// reach, so the second recovery walks back over them again, past the
/// pages written since. When step 6 also stopped after `2·C + 4·B` pages,
/// the second walk ended short of them, and at one, two and four trees
/// L4224 read `None` where version 66 was acknowledged. Both recoveries
/// are checked against the reference.
#[test]
fn a_second_recovery_walks_back_over_the_first_ones_entries() {
    for shards in [1, 2, 4] {
        let mut engine = engine(Geometry::new(4096, 8, 512, 0.7), 64, shards);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        let mut write = |engine: &mut FtlEngine, i: u64, lpn: u32| {
            engine.write(Lpn(lpn), i + 1);
            oracle.ack_write(Lpn(lpn), i + 1);
        };
        for i in 0..191 {
            let lpn = if i % 2 == 0 {
                0
            } else {
                128 * (i as u32 / 2 + 1)
            };
            write(&mut engine, i, lpn);
        }
        engine = crash_and_recover(engine).0;
        for i in 191..254 {
            write(&mut engine, i, 0);
        }
        engine = crash_and_recover(engine).0;
        let read = oracle.verify(|lpn| engine.read(lpn));
        assert_eq!(read, Ok(()), "{shards} trees");
    }
}

/// `ops` ops from `Lcg(seed)` on `engine`, one trim in eight, with a power
/// cut after every op: each boundary's device is recovered as a copy, held
/// to the reference GeckoRec, read back in full, shut down cleanly and
/// audited. Returns how
/// many of the cuts landed while a collection was in flight.
fn cut_at_every_boundary(mut engine: FtlEngine, seed: u64, ops: u64) -> u64 {
    let (cfg, gecko_cfg) = (engine.config(), engine.backend().gecko_config().unwrap());
    let logical = engine.geometry().logical_pages();
    let mut oracle = Oracle::new(logical);
    let mut rng = Lcg(seed);
    let mut in_flight = 0;
    for version in 1..=ops {
        let lpn = Lpn((rng.next() % logical) as u32);
        if rng.next().is_multiple_of(8) {
            engine.trim(lpn);
            oracle.ack_trim(lpn);
        } else {
            engine.write(lpn, version);
            oracle.ack_write(lpn, version);
        }
        in_flight += u64::from(engine.gc_victim().is_some());
        check_recovery(engine.device(), cfg, gecko_cfg);
        let (mut recovered, _) = gecko_recover(engine.device().clone(), cfg, gecko_cfg);
        let at = format!("seed {seed}, cut after op {version}");
        assert_eq!(oracle.verify(|lpn| recovered.read(lpn)), Ok(()), "{at}");
        // The auditor judges a quiesced device, every before-image
        // identified: recovery's own entries are still UIPs.
        recovered.shutdown_clean();
        assert_eq!(recovered.audit(), Ok(()), "{at}");
    }
    in_flight
}

/// A collection spans the host ops that pay its migrations, and a power cut
/// may fall between any two of them: the victim's copies are on flash, the
/// victim is not erased, and no erase marker covers the old copies. GeckoRec
/// step 6 re-derives each old copy's invalidation from its copy's
/// before-pointer, which it walks because no checkpoint falls inside a
/// collection (DESIGN.md invariant 18). A power cut after every op: 4 000
/// on `Geometry::tiny()` with a 16-entry cache, at one tree and at four;
/// 4 000 on 64 blocks of 32 pages with an 8-entry cache, where a victim
/// outlasts several checkpoint periods; and 3 000 on the micro recipe, whose
/// 4-page blocks leave at most 3 pages of slack above the floor, so each of
/// its victims is collected inside the write that picks it. Every recovery
/// agrees with the reference GeckoRec, reads every acknowledged write and
/// trim back, and passes the GC auditor once shut down; on the first three
/// devices most cuts after the fill land with a victim in flight (measured:
/// 981, 1 185 and 612).
///
/// Mutation this fails on: `maybe_checkpoint` checkpointing while a victim
/// is in flight (on the 32-page blocks at one tree: two checkpoints inside
/// one collection lift the horizon past its first copies, a flush lifts the
/// watermark past them too, and step 6 stops short of their
/// before-pointers: the reference finds pages of B8 invalid that GeckoRec
/// leaves valid).
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
fn a_power_cut_inside_a_paced_collection_loses_nothing() {
    for shards in [1, 4] {
        let cuts = cut_at_every_boundary(engine(Geometry::tiny(), 16, shards), 5, 4_000);
        assert!(cuts > 800, "tiny, {shards} trees: {cuts} cuts in flight");
    }
    let long_blocks = engine(Geometry::new(64, 32, 4096, 0.7), 8, 1);
    let cuts = cut_at_every_boundary(long_blocks, 5, 4_000);
    assert!(cuts > 400, "32-page blocks: {cuts} cuts in flight");
    assert_eq!(cut_at_every_boundary(micro_engine(), 28, 3_000), 0);
}
