//! Feedback-driven worst-case & crash-point fuzzing harness.
//!
//! The fuzzer searches the space of (workload trace, device fault plan,
//! crash point) triples — [`Scenario`]s — for two kinds of trouble:
//!
//! 1. **Correctness failures**: an acknowledged write that does not read
//!    back after a fault or recovery, a GC-contract violation
//!    ([`FtlEngine::audit`](geckoftl_core::ftl::FtlEngine::audit)), or a
//!    panic anywhere in the replay ([`replay::replay`]). These are bugs;
//!    the failing scenario is [`minimize()`]d and written to `fuzz/corpus/`
//!    as a regression test under the first free index
//!    (`tests/fuzz_corpus.rs` replays every entry).
//! 2. **Worst-case behaviour**: scenarios maximizing tail write latency,
//!    write amplification, recovery cost or retired blocks. The search
//!    keeps a hall of fame per signal and mutates the current worst case
//!    ([`mutate()`]), hill-climbing toward heavier stress.
//!
//! Everything is driven from one fixed seed, so a campaign — including CI's
//! time-bounded `reproduce fuzz --smoke` — is reproducible bit for bit.

pub mod minimize;
pub mod mutate;
pub mod replay;
pub mod scenario;

pub use minimize::minimize;
pub use mutate::{
    crossover, mutate, seed_bursty, seed_storm, seed_trim_wave, seed_uniform, MutateBounds,
};
pub use replay::{replay, replay_corpus, Fitness, Outcome};
pub use scenario::Scenario;

use crate::experiments::RunOptions;
use crate::report::{f3, Table};
use rand::{rngs::StdRng, SeedableRng};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The committed corpus of minimized scenarios (regression tests).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

/// Campaign size knobs.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Mutate-and-replay rounds after the seed population.
    pub rounds: usize,
    /// Ops per seed trace.
    pub trace_ops: usize,
}

/// The fixed campaign seed: `reproduce fuzz` is deterministic by design, so
/// CI failures reproduce locally from the committed code alone.
pub const CAMPAIGN_SEED: u64 = 0x6ECC0F77;

const SIGNALS: [&str; 4] = ["max_write_us", "wa", "recovery_us", "retired_blocks"];

fn signal_value(f: &Fitness, signal: usize) -> f64 {
    match signal {
        0 => f.max_write_us,
        1 => f.wa,
        2 => f.recovery_us,
        _ => f.retired_blocks as f64,
    }
}

/// Write a minimized find into `dir` as `fuzz_found_<seed>_<index>.scenario`
/// under the first free index, and return the file name. `create_new` makes
/// the claim atomic: a find never replaces an existing file — committed
/// `fuzz_found_*` entries are regression tests.
fn write_find(dir: &Path, seed: u64, text: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    for index in 0.. {
        let name = format!("fuzz_found_{seed:08x}_{index:03}.scenario");
        match std::fs::File::create_new(dir.join(&name)) {
            Ok(mut file) => {
                file.write_all(text.as_bytes())?;
                return Ok(name);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("the index range is unbounded")
}

/// One fuzzing campaign. Returns the report tables; failing scenarios are
/// minimized and written to [`corpus_dir`] as they are found.
pub fn campaign(seed: u64, budget: Budget) -> Vec<Table> {
    // Tiny geometry has 716 logical pages; stay inside it.
    let bounds = MutateBounds {
        logical_pages: 700,
        max_ops: budget.trace_ops * 4,
    };
    let mut rng = StdRng::seed_from_u64(seed);

    // Seed population: four workload shapes, clean and faulty. The faulty
    // triplet schedules every fault kind at attempt indices a trace of this
    // size is certain to reach, so each campaign exercises torn writes,
    // program/erase failures, erase crashes and a boundary power cut even
    // before mutation gets a vote. The trim-wave seed stresses the
    // erase-marker / durable-unmap path from round zero, and the last seed
    // cuts the power inside a paced garbage collection.
    let mut seeds = vec![
        seed_uniform(&mut rng, &bounds, budget.trace_ops),
        seed_storm(&mut rng, &bounds, budget.trace_ops),
        seed_bursty(&mut rng, &bounds, budget.trace_ops),
        seed_trim_wave(&mut rng, &bounds, budget.trace_ops),
    ];
    let writes = |sc: &Scenario| sc.trace.writes() as u64;
    let mut faulty = seeds[0].clone();
    faulty
        .write_faults
        .push((writes(&faulty) / 2, flash_sim::WriteFault::TornData));
    faulty.erase_faults.push((2, flash_sim::EraseFault::Fail));
    seeds.push(faulty);
    let mut faulty = seeds[1].clone();
    faulty
        .write_faults
        .push((writes(&faulty) / 3, flash_sim::WriteFault::ProgramFail));
    faulty
        .write_faults
        .push((writes(&faulty) / 2, flash_sim::WriteFault::TornSpare));
    seeds.push(faulty);
    let mut faulty = seeds[2].clone();
    faulty.erase_faults.push((1, flash_sim::EraseFault::Crash));
    faulty.crash_after = Some(faulty.op_count() * 3 / 4);
    seeds.push(faulty);
    // A power cut inside a paced garbage collection: uniform writes enough
    // to fill the device, cut at the middle one of the boundaries where a
    // victim is picked and not yet erased.
    let mut cut = seed_uniform(&mut rng, &bounds, budget.trace_ops * 2);
    let in_gc = replay::boundaries_in_gc(&cut);
    cut.crash_after = in_gc.get(in_gc.len() / 2).copied();
    seeds.push(cut);

    let mut scenarios = 0usize;
    let mut crashes = 0usize;
    let mut crashes_in_gc = 0usize;
    let mut failures: Vec<(String, String)> = Vec::new(); // (file, message)
    let mut totals = flash_sim::FaultStats::default();
    // Hall of fame: the best (scenario, fitness) seen per signal.
    let mut hall: Vec<(Scenario, Fitness)> = Vec::new();

    let mut absorb = |sc: Scenario,
                      out: Outcome,
                      hall: &mut Vec<(Scenario, Fitness)>,
                      failures: &mut Vec<(String, String)>| {
        totals.program_failures += out.faults.program_failures;
        totals.erase_failures += out.faults.erase_failures;
        totals.torn_writes += out.faults.torn_writes;
        totals.erase_crashes += out.faults.erase_crashes;
        if out.crashed {
            crashes += 1;
        }
        if out.crashed_in_gc {
            crashes_in_gc += 1;
        }
        if !out.ok {
            let msg = out.failure.clone().unwrap_or_default();
            let small = minimize(&sc, |c| !replay(c, 1).ok);
            let text = format!(
                "# found by fuzz campaign seed {seed:#x}\n# failure: {msg}\n{}",
                small.to_text()
            );
            let name = match write_find(&corpus_dir(), seed, &text) {
                Ok(name) => name,
                Err(e) => format!("(unwritten: {e})"),
            };
            failures.push((name, msg));
            return;
        }
        if hall.is_empty() {
            for _ in SIGNALS {
                hall.push((sc.clone(), out.fitness));
            }
            return;
        }
        for (s, slot) in hall.iter_mut().enumerate() {
            if signal_value(&out.fitness, s) > signal_value(&slot.1, s) {
                *slot = (sc.clone(), out.fitness);
            }
        }
    };

    for sc in seeds {
        let out = replay(&sc, 1);
        scenarios += 1;
        absorb(sc, out, &mut hall, &mut failures);
    }
    for round in 0..budget.rounds {
        if hall.is_empty() {
            break; // every seed failed; the failure table tells the story
        }
        // Rotate the optimization target so every signal gets search effort.
        let signal = round % SIGNALS.len();
        let parent = hall[signal].0.clone();
        // Every few rounds, splice the target's champion with another
        // signal's champion instead of point-mutating: crossover jumps the
        // search between basins separate lineages found.
        let child = if round % 5 == 4 && hall.len() > 1 {
            let donor = &hall[(signal + 1 + round % (hall.len() - 1)) % hall.len()].0;
            crossover(&parent, donor, &mut rng, &bounds)
        } else {
            mutate(&parent, &mut rng, &bounds)
        };
        let out = replay(&child, 1);
        scenarios += 1;
        absorb(child, out, &mut hall, &mut failures);
    }

    let mut summary = Table::new(
        "fuzz: campaign summary (fixed seed; failures are minimized into fuzz/corpus/)",
        &[
            "seed",
            "scenarios",
            "crashes",
            "crashes_in_gc",
            "torn_writes",
            "program_fails",
            "erase_fails",
            "erase_crashes",
            "failures",
        ],
    );
    summary.row(vec![
        format!("{seed:#x}"),
        scenarios.to_string(),
        crashes.to_string(),
        crashes_in_gc.to_string(),
        totals.torn_writes.to_string(),
        totals.program_failures.to_string(),
        totals.erase_failures.to_string(),
        totals.erase_crashes.to_string(),
        failures.len().to_string(),
    ]);

    let mut frontier = Table::new(
        "fuzz: worst-case frontier (hall of fame per fitness signal)",
        &["signal", "value", "scenario"],
    );
    for (s, (sc, fit)) in hall.iter().enumerate() {
        frontier.row(vec![
            SIGNALS[s].to_string(),
            f3(signal_value(fit, s)),
            sc.summary(),
        ]);
    }

    let mut tables = vec![summary, frontier];
    if !failures.is_empty() {
        let mut t = Table::new(
            "fuzz: FAILURES (bugs — corpus entries written)",
            &["file", "failure"],
        );
        for (file, msg) in &failures {
            t.row(vec![file.clone(), msg.clone()]);
        }
        tables.push(t);
    }

    // Corpus regression sweep rides along: every committed scenario must pass.
    let mut corpus = Table::new(
        "fuzz: corpus replay (committed regression scenarios)",
        &["entry", "ok", "crashed", "max_write_us", "wa"],
    );
    for (name, out) in replay_corpus(1, &|_, _, _| {}) {
        corpus.row(vec![
            name,
            out.ok.to_string(),
            out.crashed.to_string(),
            f3(out.fitness.max_write_us),
            f3(out.fitness.wa),
        ]);
    }
    tables.push(corpus);
    tables
}

/// The `fuzz` experiment: time-bounded fixed-seed campaign. `--smoke`
/// shrinks it to CI size (a few seconds); the full run digs deeper.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let budget = if opts.smoke {
        Budget {
            rounds: 40,
            trace_ops: 800,
        }
    } else {
        Budget {
            rounds: 200,
            trace_ops: 2_000,
        }
    };
    campaign(CAMPAIGN_SEED, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A find never replaces an existing corpus file: it takes the first
    /// free index, whatever is already there.
    #[test]
    fn a_find_never_overwrites_an_existing_corpus_entry() {
        let dir = std::env::temp_dir().join(format!("gecko-fuzz-find-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join("fuzz_found_0000002a_000.scenario");
        std::fs::write(&committed, "committed regression test").unwrap();

        let first = write_find(&dir, 0x2a, "first find").unwrap();
        let second = write_find(&dir, 0x2a, "second find").unwrap();
        assert_eq!(first, "fuzz_found_0000002a_001.scenario");
        assert_eq!(second, "fuzz_found_0000002a_002.scenario");
        assert_eq!(
            std::fs::read_to_string(&committed).unwrap(),
            "committed regression test"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(&first)).unwrap(),
            "first find"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The engine must survive a miniature campaign with zero correctness
    /// failures, and the campaign must be deterministic per seed.
    #[test]
    fn mini_campaign_finds_no_failures_and_is_deterministic() {
        let budget = Budget {
            rounds: 6,
            trace_ops: 120,
        };
        let digest = |tables: &[Table]| {
            tables
                .iter()
                .map(|t| t.to_csv())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = campaign(7, budget);
        let b = campaign(7, budget);
        assert_eq!(
            digest(&a),
            digest(&b),
            "campaign must be seed-deterministic"
        );
        let summary = &a[0];
        let failures: usize = summary.rows[0].last().unwrap().parse().unwrap();
        assert_eq!(
            failures,
            0,
            "fuzzer found correctness failures: {:?}",
            a.last()
        );
    }
}
