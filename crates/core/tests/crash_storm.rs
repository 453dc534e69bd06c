//! Crash storms: repeated power cuts at op boundaries on a micro device,
//! each followed by GeckoRec and a read-back of every LPN.
//!
//! Today every seed of this recipe loses an acknowledged write (ROADMAP
//! item 1), and the GC auditor sees the cause first: a collection migrates
//! a stale copy whose invalidation report was lost across recoveries. The
//! migrated copy then carries a newer seq than the true newest one, and
//! wins. This test pins that the auditor fails at that migration, before
//! the oracle sees the loss. Item 1's fix flips it into the pass test: the
//! recipe's 50 seeds at shards {1, 4}, each reading back every
//! acknowledged write.

use flash_sim::{Geometry, Lpn};
use ftl_workloads::Oracle;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;

#[allow(dead_code)] // `run_workload` serves the other test files
mod common;
use common::{crash_and_recover, verify_all, Lcg};

/// 32 blocks of 4 pages, 64 logical pages, an 8-entry cache, and Gecko
/// pages shrunk so the store flushes and merges at this scale.
fn micro_engine() -> FtlEngine {
    let geo = Geometry::new(32, 4, 4096, 0.5);
    let cfg = FtlConfig {
        cache_entries: 8,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = GeckoConfig {
        page_header_bytes: geo.page_bytes - 64,
        shards: 1,
        ..GeckoConfig::paper_default(&geo)
    };
    FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko))
}

/// Seed 38 fails soonest: at op 118, after 22 recoveries, the oracle would
/// read L36's version 68 where 82 was acknowledged. Earlier, GC migrates
/// P83 (seq 83) of L36 while L36's mapping target is P105 (seq 109).
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the GC auditor's per-event checks run only under debug assertions"
)]
#[should_panic(expected = "StaleMigration: P83 (seq 83) of L36, target P105 (seq 109)")]
fn gc_auditor_fails_at_the_stale_migration_before_a_write_is_lost() {
    let mut engine = micro_engine();
    let logical = engine.geometry().logical_pages();
    let mut oracle = Oracle::new(logical);
    let mut rng = Lcg(38);
    for version in 1..=3000 {
        let lpn = Lpn((rng.next() % logical) as u32);
        engine.write(lpn, version);
        oracle.ack_write(lpn, version);
        if rng.next().is_multiple_of(5) {
            engine = crash_and_recover(engine).0;
            verify_all(&mut engine, &oracle);
        }
    }
}
