//! Golden-trace corpus regression: every committed trace in
//! `traces/golden/` replays to **byte-identical** pinned statistics with
//! the validity store at one tree (`shards = 1`) and at four.
//!
//! A failure prints the per-metric delta (expected vs got, line by line),
//! so a behaviour change reads as "WA moved from 1.31 to 1.45 on
//! overwrite_storm under shard4", not as an opaque diff. Deliberate
//! changes re-bless the corpus:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p gecko-bench --test golden_traces
//! ```
//!
//! which regenerates the `.trace` files from their fixed-seed shapes (a
//! no-op unless a generator changed) and rewrites every `.expect` file.

use ftl_workloads::Trace;
use gecko_bench::golden::{golden_dir, replay_stats, write_corpus};

const SHARD_COUNTS: [u32; 2] = [1, 4];

fn blessing() -> bool {
    std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1")
}

/// Line-by-line comparison with a readable delta report.
fn diff_report(name: &str, shards: u32, expect: &str, got: &str) -> String {
    let mut out = format!("golden trace `{name}` diverged under shard{shards}:\n");
    let got_map: std::collections::BTreeMap<&str, &str> =
        got.lines().filter_map(|l| l.split_once(" = ")).collect();
    let expect_map: std::collections::BTreeMap<&str, &str> =
        expect.lines().filter_map(|l| l.split_once(" = ")).collect();
    for (k, want) in &expect_map {
        match got_map.get(k) {
            Some(g) if g == want => {}
            Some(g) => out.push_str(&format!("  {k}: expected {want}, got {g}\n")),
            None => out.push_str(&format!("  {k}: expected {want}, missing from replay\n")),
        }
    }
    for (k, g) in &got_map {
        if !expect_map.contains_key(k) {
            out.push_str(&format!("  {k}: unexpected new metric (= {g})\n"));
        }
    }
    out.push_str("re-bless with GOLDEN_BLESS=1 if this change is intended\n");
    out
}

#[test]
fn golden_corpus_replays_byte_identically() {
    let dir = golden_dir();
    if blessing() {
        write_corpus().expect("regenerate corpus traces");
    }
    let mut traces: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e} (corpus missing?)"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    traces.sort();
    assert!(
        traces.len() >= 6,
        "corpus floor is six scenarios, found {}",
        traces.len()
    );

    let mut failures = Vec::new();
    for path in &traces {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let trace = Trace::load(path).unwrap_or_else(|e| panic!("load {path:?}: {e}"));
        for shards in SHARD_COUNTS {
            let got = replay_stats(&trace, shards);
            let expect_path = dir.join(format!("{name}.shard{shards}.expect"));
            if blessing() {
                std::fs::write(&expect_path, &got)
                    .unwrap_or_else(|e| panic!("write {expect_path:?}: {e}"));
                continue;
            }
            let expect = std::fs::read_to_string(&expect_path).unwrap_or_else(|e| {
                panic!("read {expect_path:?}: {e} (bless with GOLDEN_BLESS=1)")
            });
            if got != expect {
                failures.push(diff_report(&name, shards, &expect, &got));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The corpus must keep covering the shapes the ISSUE pins: at least one
/// TRIM-exercising trace and one multi-tenant trace.
#[test]
fn golden_corpus_covers_trim_and_tenants() {
    let dir = golden_dir();
    if blessing() {
        write_corpus().expect("regenerate corpus traces");
    }
    let mut any_trim = false;
    let mut any_tenant = false;
    for e in std::fs::read_dir(&dir).expect("corpus dir") {
        let p = e.expect("entry").path();
        if p.extension().is_some_and(|x| x == "trace") {
            let t = Trace::load(&p).expect("parse");
            any_trim |= t.trims() > 0;
            any_tenant |= !t.tenant_ids().is_empty();
        }
    }
    assert!(any_trim, "corpus must include a TRIM scenario");
    assert!(any_tenant, "corpus must include a multi-tenant scenario");
}
