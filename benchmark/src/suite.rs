//! Everything around single runs: the manifest (`BENCHMARK.json`), the suite
//! that repeats runs in fresh processes and aggregates them, and the
//! comparer that judges two result sets against the bounds.

use crate::adapter::{parse_json, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::workloads::{self, Workload};
use crate::{stats, Args};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// How long one run's host window measures; `run_seconds` of the manifest.
pub const RUN_SECONDS: u32 = 10;

/// The text of `BENCHMARK.json`, from the tables in `metrics.rs` and
/// `workloads.rs`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            workloads::ALL
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]",
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                ))
                .collect()
        )
    );
    out.push_str("}\n");
    out
}

/// One child run: the parsed result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    let json = parse_json(line)?;
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let Some(Json::Obj(members)) = json.get("metrics") else {
        return Err("result line lacks metrics".into());
    };
    let mut metrics = Vec::new();
    for (name, m) in members {
        let value = m.get("value").and_then(Json::as_num);
        let unit = m.get("unit").and_then(Json::as_str);
        let (Some(value), Some(unit)) = (value, unit) else {
            return Err(format!("metric {name} lacks value or unit"));
        };
        metrics.push((name.clone(), value, unit.to_string()));
    }
    Ok(RunResult {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Run one (workload, seed, trace) in a process of its own.
fn child_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    parse_result(last).map_err(|e| {
        format!(
            "{} seed {seed}: {e} (exit {:?})\n{}",
            w.name,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// Repetitions of one end-to-end metric, as the comparer needs them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Agg {
    pub median: f64,
    /// Interquartile distance as a share of the median.
    pub spread: f64,
}

/// `run.sh suite`: R repetitions of every workload, each with another seed
/// and in its own process, repetitions interleaved across workloads; then
/// one traced run per workload. Writes `<out>/<workload>.json`.
pub fn suite(args: &Args) -> Result<ExitCode, String> {
    let reps: u64 = args.parsed("--reps")?.unwrap_or(3);
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let smoke = args.flag("--smoke");
    let out: PathBuf = args
        .value("--out")
        .map_or_else(|| crate::bench_dir().join("results"), PathBuf::from);
    let chosen: Vec<&Workload> = match args.value("--workload") {
        Some(name) => vec![workloads::by_name(name).ok_or(format!("unknown workload {name:?}"))?],
        None => workloads::ALL.iter().collect(),
    };
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let mut runs: Vec<Vec<RunResult>> = chosen.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (w, runs) in chosen.iter().zip(&mut runs) {
            eprintln!(
                "[suite] {} seed {} ({}/{reps})",
                w.name,
                seed + rep,
                rep + 1
            );
            runs.push(child_run(w, seed + rep, seconds, false, smoke)?);
        }
    }
    let mut all_correct = true;
    for (w, runs) in chosen.iter().zip(&runs) {
        eprintln!("[suite] {} traced, seed {seed}", w.name);
        let traced = child_run(w, seed, seconds, true, smoke)?;
        all_correct &= traced.correct && runs.iter().all(|r| r.correct);
        let text = workload_json(w, seed, seconds, smoke, runs, &traced);
        let path = out.join(format!("{}.json", w.name));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        print_workload(w, runs, &traced);
    }
    println!("results in {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a run failed its correctness checks");
        ExitCode::FAILURE
    })
}

fn values_of(runs: &[RunResult], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == name))
        .map(|(_, v, _)| *v)
        .collect()
}

fn workload_json(
    w: &Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    runs: &[RunResult],
    traced: &RunResult,
) -> String {
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{}\", \"first_seed\": {seed}, \"reps\": {}, \"seconds\": {seconds}, \
         \"smoke\": {smoke},\n \"correct\": {}, \"attempted\": {}, \"failed\": {},",
        w.name,
        runs.len(),
        traced.correct && runs.iter().all(|r| r.correct),
        traced.attempted + runs.iter().map(|r| r.attempted).sum::<u64>(),
        traced.failed + runs.iter().map(|r| r.failed).sum::<u64>(),
    );
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let values = values_of(runs, m.name);
            let (q1, median, q3) = stats::quartiles(&values);
            format!(
                "  \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \
                 \"spread\": {}, \"values\": [{}]}}",
                m.name,
                m.unit,
                median,
                q1,
                q3,
                stats::spread(&values),
                list(&values)
            )
        })
        .collect();
    let _ = writeln!(out, " \"end_to_end\": {{\n{}\n }},", e2e.join(",\n"));
    let layers: Vec<String> = traced
        .metrics
        .iter()
        .map(|(n, v, u)| format!("  \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    let _ = writeln!(out, " \"per_layer\": {{\n{}\n }}\n}}", layers.join(",\n"));
    out
}

fn print_workload(w: &Workload, runs: &[RunResult], traced: &RunResult) {
    println!("== {} ({} runs) ==", w.name, runs.len());
    for m in &END_TO_END {
        let values = values_of(runs, m.name);
        let (_, median, _) = stats::quartiles(&values);
        let spread = stats::spread(&values);
        let steady = if m.name == "setup_s" || 3.0 * spread <= m.bound {
            ""
        } else if spread <= m.bound {
            "  (spread above a third of the bound)"
        } else {
            "  (SPREAD ABOVE THE BOUND)"
        };
        println!(
            "{} {} {}  spread {:.2} %  bound {} %{steady}",
            m.name,
            median,
            m.unit,
            100.0 * spread,
            100.0 * m.bound
        );
    }
    for (n, v, u) in &traced.metrics {
        println!("{n} {v} {u}");
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Not worse by more than the bound, and both spreads are inside it.
    WithinBound,
    /// Not shown worse, but a spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// Share of A's median by which B is worse (negative: B is better).
pub fn worse_by(m: &EndToEnd, a: &Agg, b: &Agg) -> f64 {
    let change = (b.median - a.median) / a.median.abs();
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(m: &EndToEnd, a: &Agg, b: &Agg) -> Verdict {
    if worse_by(m, a, b) > m.bound {
        Verdict::Worse
    } else if a.spread.max(b.spread) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn load_aggs(path: &Path) -> Result<Vec<(String, Agg)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(members)) = json.get("end_to_end") else {
        return Err(format!("{}: no end_to_end object", path.display()));
    };
    members
        .iter()
        .map(|(name, m)| {
            let num = |key: &str| {
                m.get(key)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("{}: {name} lacks {key}", path.display()))
            };
            Ok((
                name.clone(),
                Agg {
                    median: num("median")?,
                    spread: num("spread")?,
                },
            ))
        })
        .collect()
}

/// `run.sh compare DIR_A DIR_B`: every end-to-end metric of every workload
/// both sets hold, B against A, one row each. Exit code 1 on any "worse".
pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let (Some(a_dir), Some(b_dir)) = (args.positional(0), args.positional(1)) else {
        return Err("compare needs two result directories".into());
    };
    let (mut rows, mut worse) = (0, 0);
    for w in &workloads::ALL {
        let file = format!("{}.json", w.name);
        let (a_path, b_path) = (Path::new(a_dir).join(&file), Path::new(b_dir).join(&file));
        if !a_path.exists() || !b_path.exists() {
            continue;
        }
        let (a, b) = (load_aggs(&a_path)?, load_aggs(&b_path)?);
        for m in &END_TO_END {
            let find = |set: &[(String, Agg)]| set.iter().find(|(n, _)| n == m.name).map(|x| x.1);
            let (Some(a), Some(b)) = (find(&a), find(&b)) else {
                continue;
            };
            let v = verdict(m, &a, &b);
            rows += 1;
            worse += (v == Verdict::Worse) as u32;
            println!(
                "{:<19} {:<20} {:>14.4} -> {:>14.4} {:<6} {:>+8.2} % worse  spread {:.2}/{:.2} %  bound {} %  {}",
                w.name,
                m.name,
                a.median,
                b.median,
                m.unit,
                100.0 * worse_by(m, &a, &b),
                100.0 * a.spread,
                100.0 * b.spread,
                100.0 * m.bound,
                match v {
                    Verdict::Worse => "WORSE",
                    Verdict::WithinBound => "within bound",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two directories share no workload result".into());
    }
    println!("{rows} rows, {worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(median: f64, spread: f64) -> Agg {
        Agg { median, spread }
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn the_three_verdicts() {
        let rate = metric("host_ops_per_s"); // higher is better
        let b = rate.bound;
        let steady = b / 4.0;
        assert_eq!(
            verdict(
                rate,
                &agg(1000.0, steady),
                &agg(1000.0 * (1.0 - 2.0 * b), steady)
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                rate,
                &agg(1000.0, steady),
                &agg(1000.0 * (1.0 - b / 2.0), steady)
            ),
            Verdict::WithinBound
        );
        // Faster is never worse.
        assert_eq!(
            verdict(rate, &agg(1000.0, steady), &agg(3000.0, steady)),
            Verdict::WithinBound
        );
        // Same medians, but one side's runs disagree by more than the bound.
        assert_eq!(
            verdict(rate, &agg(1000.0, steady), &agg(1000.0, 2.0 * b)),
            Verdict::Unresolved
        );
        // A wide spread does not hide a regression larger than the bound.
        assert_eq!(
            verdict(rate, &agg(1000.0, 2.0 * b), &agg(300.0, 2.0 * b)),
            Verdict::Worse
        );
        let wa = metric("write_amp"); // lower is better
        assert_eq!(
            verdict(wa, &agg(2.0, 0.0), &agg(2.0 * (1.0 + 2.0 * wa.bound), 0.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wa, &agg(2.0, 0.0), &agg(1.0, 0.0)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn result_lines_round_trip() {
        let values = [crate::metrics::Value {
            name: "setup_s",
            value: 0.8127,
            unit: "s",
        }];
        let r = parse_result(&crate::result_json(true, 1000, 0, &values)).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (1000, 0));
        assert_eq!(r.metrics, vec![("setup_s".into(), 0.8127, "s".into())]);
        assert!(parse_result("{\"correct\": true}").is_err());
    }

    #[test]
    fn the_manifest_is_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `run.sh manifest`");
    }

    #[test]
    fn the_manifest_is_within_the_contract() {
        let json = parse_json(&manifest()).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut all = names("workloads");
        all.extend(names("end_to_end"));
        all.extend(names("per_layer"));
        assert!(all.iter().all(|n| ok_name(n)), "{all:?}");
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used once");
        assert!((2..=8).contains(&names("workloads").len()));
        assert!((1..=16).contains(&names("end_to_end").len()));
        assert!((1..=128).contains(&names("per_layer").len()));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(manifest().len() <= 64 * 1024);
    }
}
