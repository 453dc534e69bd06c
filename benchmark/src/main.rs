//! The repo benchmark (see `README.md`).
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]   one run
//! run.sh suite [--reps R] [--seed N] [--seconds S] [--smoke] [--workload NAME] [--out DIR]
//! run.sh compare DIR_A DIR_B
//! run.sh manifest                                                     BENCHMARK.json
//! ```

mod adapter;
mod calibrate;
mod metrics;
mod oracle;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use metrics::Value;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

const USAGE: &str = "usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  run.sh suite [--reps R] [--seed N] [--seconds S] [--smoke] [--workload NAME] [--out DIR]
  run.sh compare DIR_A DIR_B
  run.sh manifest
workloads: rand_write_uniform zipf_hot_rw read_scan_cold gecko_deep_tree";

/// `--key value` pairs and bare flags after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            None if self.flag(key) => Err(format!("{key} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    pub fn positional(&self, i: usize) -> Option<&str> {
        self.0.get(i).map(String::as_str)
    }
}

/// Where results go: the benchmark's own directory (set by `run.sh`).
pub fn bench_dir() -> std::path::PathBuf {
    std::env::var_os("GECKO_BENCH_DIR").map_or_else(|| "benchmark".into(), std::path::PathBuf::from)
}

/// The result object the contract asks for, as one line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name, v.value, v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn single_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let opts = run::Options {
        seed: args.parsed("--seed")?.ok_or("--seed is required")?,
        seconds: args.parsed("--seconds")?.ok_or("--seconds is required")?,
        smoke: args.flag("--smoke"),
    };
    let traced = match args.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }

    // A panic anywhere in the program under test fails the run: every op it
    // had not reached counts as failed.
    let outcome = std::panic::catch_unwind(|| {
        if traced {
            trace::run(w, &opts)
        } else {
            run::run(w, &opts)
        }
    });
    let Ok(outcome) = outcome else {
        let done = run::ATTEMPTED.load(Ordering::Relaxed);
        let planned = done + opts.window_ops(w) as u64;
        println!("{}", result_json(false, planned, planned - done, &[]));
        return Ok(ExitCode::FAILURE);
    };

    let missing = outcome.report.missing();
    if !missing.is_empty() {
        return Err(format!("metrics never measured: {missing:?}"));
    }
    for v in &outcome.report.values {
        println!("{} {} {}", v.name, v.value, v.unit);
    }
    for (name, value, unit) in &outcome.notes {
        println!("{name} {value} {unit}");
    }
    println!(
        "failed_ops_share {} ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            &outcome.report.values
        )
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("suite") => suite::suite(&Args(argv.split_off(1))),
        Some("compare") => suite::compare(&Args(argv.split_off(1))),
        Some("manifest") => {
            print!("{}", suite::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => single_run(&Args(argv)),
        _ => Err("no command".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
