//! Reproduce the paper's tables and figures.
//!
//! ```text
//! reproduce all                # every experiment
//! reproduce fig9 fig13         # selected experiments
//! reproduce list               # what exists
//! reproduce all --csv out/     # also write CSV files
//! reproduce merge_latency --smoke   # CI-sized run, no JSON rewrite
//! reproduce merge_latency --smoke --shards 4   # validity store split into 4 trees
//! reproduce merge_latency --trace trace.json   # Chrome Trace timeline
//! reproduce check-trace trace.json  # validate a trace file (CI)
//! ```

use gecko_bench::experiments::{find, Experiment, RunOptions, ALL, HONOUR_SHARDS_AND_TRACE};
use gecko_bench::report::{format_table, write_csv};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: reproduce <all|list|check-trace|slug...> \
                     [--csv dir] [--smoke] [--shards n] [--trace file]";

/// The value of the flag at `args[*i]`: the next argument, if there is one.
/// Another flag in that position is refused rather than swallowed.
fn flag_value<'a>(args: &'a [String], i: &mut usize) -> Option<&'a str> {
    let flag = &args[*i];
    *i += 1;
    let value = args.get(*i).map(String::as_str);
    if let Some(v) = value.filter(|v| v.starts_with("--")) {
        eprintln!("{flag} needs a value, got the flag '{v}'");
        std::process::exit(2);
    }
    value
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut opts = RunOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => {
                csv_dir = Some(PathBuf::from(
                    flag_value(&args, &mut i).unwrap_or("results"),
                ));
            }
            "--smoke" => opts.smoke = true,
            "--shards" => {
                let n = flag_value(&args, &mut i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0);
                if n.is_none() {
                    eprintln!("--shards needs a positive integer");
                    std::process::exit(2);
                }
                opts.shards = n;
            }
            "--trace" => {
                opts.trace = Some(flag_value(&args, &mut i).unwrap_or("trace.json").into());
            }
            "check-trace" => {
                i += 1;
                let path = args.get(i).map(String::as_str).unwrap_or("trace.json");
                check_trace(path);
                return;
            }
            "list" => {
                println!("available experiments:");
                for e in ALL {
                    println!("  {:10} {}", e.slug, e.what);
                }
                return;
            }
            "all" => selected = ALL.iter().collect(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            slug => selected.push(find(slug).unwrap_or_else(|| {
                eprintln!("unknown experiment '{slug}' — try `reproduce list`");
                std::process::exit(2);
            })),
        }
        i += 1;
    }
    if selected.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("run `reproduce list` to see the experiments");
        std::process::exit(2);
    }
    // A flag an experiment would ignore is refused, not dropped: the table
    // printed under `multi_tenant --shards 4` would be an unsharded one.
    let ignoring = selected
        .iter()
        .find(|e| !HONOUR_SHARDS_AND_TRACE.contains(&e.slug));
    for (flag, given) in [
        ("--shards", opts.shards.is_some()),
        ("--trace", opts.trace.is_some()),
    ] {
        if let (true, Some(exp)) = (given, ignoring) {
            eprintln!(
                "{flag} is honoured by {} only; '{}' would ignore it",
                HONOUR_SHARDS_AND_TRACE.join(", "),
                exp.slug
            );
            std::process::exit(2);
        }
    }

    for exp in selected {
        let slug = exp.slug;
        let started = Instant::now();
        eprintln!(">> running {slug}: {}", exp.what);
        let tables = (exp.run)(&opts);
        for t in &tables {
            println!("{}", format_table(t));
        }
        if let Some(dir) = &csv_dir {
            write_csv(dir, slug, &tables).expect("write CSV");
        }
        eprintln!(
            "<< {slug} done in {:.1}s\n",
            started.elapsed().as_secs_f64()
        );
    }
}

/// Validate a Chrome Trace Event Format file produced by `--trace`: it must
/// parse as JSON, every event must carry the Trace Event fields (`ph`, and
/// `ts`/`dur`/`pid`/`tid` for complete events), and the trace must be
/// non-empty with at least one flash-channel lane. Exits non-zero on any
/// violation, so CI can gate on it.
fn check_trace(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-trace: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match flash_sim::telemetry::validate_chrome_trace(&text) {
        Ok(s) => {
            println!(
                "{path}: ok — {} events ({} complete), {} channel lanes, {} span lanes, {} dropped",
                s.total_events, s.complete_events, s.channel_lanes, s.span_lanes, s.dropped_events
            );
        }
        Err(e) => {
            eprintln!("check-trace: {path} is not a valid trace: {e}");
            std::process::exit(1);
        }
    }
}
