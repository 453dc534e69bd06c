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
//! One hole is left, pinned by the micro-device test: the erased trail, a
//! user block erased before a flush while it holds the only before-pointer
//! to a page whose report is still buffered.

use flash_sim::{Geometry, Lpn};
use ftl_workloads::Oracle;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;

#[allow(dead_code)] // `run_workload` and `verify_all` serve the other test files
mod common;
use common::{crash_and_recover, Lcg};

/// `geo` with a `cache_entries`-entry cache, `shards` trees, and Gecko pages
/// shrunk to 64 bytes of entries so the store flushes and merges at this
/// scale.
fn engine(geo: Geometry, cache_entries: usize, shards: u32) -> FtlEngine {
    let cfg = FtlConfig {
        cache_entries,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = GeckoConfig {
        page_header_bytes: geo.page_bytes - 64,
        shards,
        ..GeckoConfig::paper_default(&geo)
    };
    FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko))
}

/// `ops` ops on uniformly random LPNs from `Lcg(seed)`: op `i` writes
/// version `i`, or with `trim_one_in = Some(n)` trims one op in `n`; after
/// one op in five the power is cut, GeckoRec recovers, and every LPN is read
/// back against the acknowledged state.
fn storm(mut engine: FtlEngine, seed: u64, ops: u64, trim_one_in: Option<u64>) {
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

/// ROADMAP item 1's micro recipe — 32 blocks of 4 pages, 64 logical pages,
/// an 8-entry cache, one tree — still fails on 5 of 50 seeds. Seed 22 is
/// the erased trail. At op 514 a write of L43 reports its old copy P81
/// (seq 1295) into the Gecko buffer, and the new copy P16 (seq 1299)
/// carries the before-pointer step 6 would re-derive that report from. GC
/// erases P16's block at op 522, before the next flush, and the power cut
/// after that op loses the buffer: no trail names P81 any more, and a later
/// collection migrates it as live. The GC auditor fails at that migration.
/// The pin flips when the erased trail is fixed.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the GC auditor's per-event checks run only under debug assertions"
)]
#[should_panic(expected = "StaleMigration: P81 (seq 1295) of L43, target P11 (seq 1402)")]
fn gc_auditor_fails_at_the_erased_trail() {
    let micro = engine(Geometry::new(32, 4, 4096, 0.5), 8, 1);
    storm(micro, 22, 3_000, None);
}
