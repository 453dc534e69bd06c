//! Corpus regression tests: every scenario committed under `fuzz/corpus/`
//! replays clean, forever, at every shard count.
//!
//! The corpus has two kinds of entries. Handcrafted scenarios pin one fault
//! kind each (torn data page, torn spare, program fail, erase fail, crash
//! inside an erase, boundary power cut), so a regression in any single
//! fault-handling path fails a named entry
//! (`handcrafted_readahead_sync` pins read-ahead's stale-successor hazard
//! instead, with a boundary power cut in mid-scan). `fuzz_found_*` entries are
//! minimized reproducers of bugs the fuzz campaign actually caught — they
//! failed once, were fixed, and must never fail again. See
//! `crates/bench/src/fuzz/` and fuzz/README.md for the format and tooling.
//!
//! Replaying at shards {1, 2, 4} makes the corpus double as the
//! crash-equivalence suite for sharding: each scenario carries a workload
//! trace, a device fault plan and a crash point, and the oracle contract
//! (acknowledged writes read back, audits pass) does not depend on how many
//! trees the validity store is split into.

use gecko_bench::fuzz::replay::replay_corpus;

#[test]
fn every_corpus_scenario_replays_clean_at_every_shard_count() {
    let mut delivered_any_fault = false;
    for shards in [1u32, 2, 4] {
        let results = replay_corpus(shards);
        assert!(
            !results.is_empty(),
            "fuzz/corpus/ is empty — the regression corpus went missing"
        );
        for (name, out) in &results {
            assert!(
                out.ok,
                "corpus scenario {name} regressed (shards={shards}): {}",
                out.failure.as_deref().unwrap_or("unknown failure")
            );
            let f = out.faults;
            if f.torn_writes + f.program_failures + f.erase_failures + f.erase_crashes > 0 {
                delivered_any_fault = true;
            }
        }
    }
    // Guard against the corpus silently rotting into no-ops (e.g. fault
    // indices that execution never reaches after a scheduler change).
    assert!(
        delivered_any_fault,
        "no corpus scenario delivered a device fault — indices are stale"
    );
}

/// Reproducers of bugs that are found but not fixed yet live in
/// `fuzz/known_failing/`, never in the corpus. Each must still fail (a panic
/// counts: replay reports it as a failure) at one shard count or more, file
/// by file, so a fix to one of them cannot go unnoticed: it fails this test
/// until the file moves into `fuzz/corpus/`. ROADMAP item 1 carries the
/// diagnoses.
#[test]
fn every_known_failing_scenario_still_fails() {
    use gecko_bench::fuzz::{replay::replay, Scenario};
    let dir = gecko_bench::fuzz::corpus_dir().join("../known_failing");
    for entry in std::fs::read_dir(&dir).expect("fuzz/known_failing exists") {
        let path = entry.expect("readable directory entry").path();
        let text = std::fs::read_to_string(&path).expect("readable scenario");
        let sc = Scenario::from_text(&text).expect("well-formed scenario");
        assert!(
            [1u32, 2, 4]
                .into_iter()
                .any(|shards| !replay(&sc, shards).ok),
            "{path:?} now replays clean at shards 1, 2 and 4: move it to fuzz/corpus/"
        );
    }
}
