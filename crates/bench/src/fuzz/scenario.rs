//! A fuzz scenario: one fully deterministic robustness experiment — a
//! workload trace, a device fault plan, and an optional crash point —
//! serializable to the text format committed under `fuzz/corpus/`.

use flash_sim::{EraseFault, FaultPlan, WriteFault};
use ftl_workloads::Trace;

/// One deterministic fuzz input. Replaying the same scenario always drives
/// the same device history (generators, fault indices and crash points are
/// all data, not randomness).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Mapping-cache size for the engine under test (fuzzed: small caches
    /// stress the checkpoint/recovery window).
    pub cache_entries: usize,
    /// The operation stream.
    pub trace: Trace,
    /// Write faults by device write-attempt index.
    pub write_faults: Vec<(u64, WriteFault)>,
    /// Erase faults by device erase-attempt index.
    pub erase_faults: Vec<(u64, EraseFault)>,
    /// Power cut at an op boundary: crash after this many executed ops,
    /// recover, then run the rest of the trace. (Mid-op crashes come from
    /// torn/erase-crash faults instead.)
    pub crash_after: Option<usize>,
}

impl Scenario {
    /// A plain scenario around a trace: no faults, no crash.
    pub fn from_trace(trace: Trace) -> Self {
        Scenario {
            cache_entries: 64,
            trace,
            write_faults: Vec::new(),
            erase_faults: Vec::new(),
            crash_after: None,
        }
    }

    /// The scenario's faults as an installable device plan.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &(nth, f) in &self.write_faults {
            plan = plan.on_write(nth, f);
        }
        for &(nth, f) in &self.erase_faults {
            plan = plan.on_erase(nth, f);
        }
        plan
    }

    /// Serialize to the corpus text format: header lines (`C` cache size,
    /// `X` crash point, `FW`/`FE` fault entries), then the trace in
    /// [`Trace::to_text`] form. `#` comments and blank lines are ignored.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("C {}\n", self.cache_entries));
        if let Some(at) = self.crash_after {
            s.push_str(&format!("X {at}\n"));
        }
        for &(nth, f) in &self.write_faults {
            let kind = match f {
                WriteFault::ProgramFail => "pf",
                WriteFault::TornData => "td",
                WriteFault::TornSpare => "ts",
            };
            s.push_str(&format!("FW {nth} {kind}\n"));
        }
        for &(nth, f) in &self.erase_faults {
            let kind = match f {
                EraseFault::Fail => "ef",
                EraseFault::Crash => "ec",
            };
            s.push_str(&format!("FE {nth} {kind}\n"));
        }
        s.push_str(&self.trace.to_text());
        s
    }

    /// Parse the text form produced by [`Scenario::to_text`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut sc = Scenario::from_trace(Trace::default());
        let mut trace_text = String::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            let err = |e: String| format!("line {}: {e}", i + 1);
            let num = |s: &str| s.trim().parse::<u64>().map_err(|e| err(e.to_string()));
            if let Some(rest) = line.strip_prefix("C ") {
                sc.cache_entries = num(rest)? as usize;
            } else if let Some(rest) = line.strip_prefix("X ") {
                sc.crash_after = Some(num(rest)? as usize);
            } else if let Some(rest) = line.strip_prefix("FW ") {
                let (nth, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| err("expected 'FW <nth> <kind>'".into()))?;
                let fault = match kind.trim() {
                    "pf" => WriteFault::ProgramFail,
                    "td" => WriteFault::TornData,
                    "ts" => WriteFault::TornSpare,
                    other => return Err(err(format!("unknown write fault '{other}'"))),
                };
                sc.write_faults.push((num(nth)?, fault));
            } else if let Some(rest) = line.strip_prefix("FE ") {
                let (nth, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| err("expected 'FE <nth> <kind>'".into()))?;
                let fault = match kind.trim() {
                    "ef" => EraseFault::Fail,
                    "ec" => EraseFault::Crash,
                    other => return Err(err(format!("unknown erase fault '{other}'"))),
                };
                sc.erase_faults.push((num(nth)?, fault));
            } else {
                trace_text.push_str(line);
                trace_text.push('\n');
            }
        }
        sc.trace = Trace::from_text(&trace_text)?;
        Ok(sc)
    }

    /// A one-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "{} ops ({} writes), {} write-faults, {} erase-faults, crash_after={:?}, cache={}",
            self.trace.len(),
            self.trace.writes(),
            self.write_faults.len(),
            self.erase_faults.len(),
            self.crash_after,
            self.cache_entries,
        )
    }

    /// Count of ops of each kind, for mutation bookkeeping.
    pub fn op_count(&self) -> usize {
        self.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::Lpn;
    use ftl_workloads::WorkloadOp;

    #[test]
    fn scenario_text_round_trip() {
        let sc = Scenario {
            cache_entries: 48,
            trace: Trace::from_ops(vec![
                WorkloadOp::Write(Lpn(5)),
                WorkloadOp::Idle(12),
                WorkloadOp::Read(Lpn(5)),
            ]),
            write_faults: vec![(100, WriteFault::TornData), (220, WriteFault::ProgramFail)],
            erase_faults: vec![(3, EraseFault::Crash)],
            crash_after: Some(2),
        };
        let text = sc.to_text();
        assert_eq!(Scenario::from_text(&text).unwrap(), sc);
        // Comments and blank lines survive parsing.
        let annotated = format!("# found by fuzz seed 7\n\n{text}");
        assert_eq!(Scenario::from_text(&annotated).unwrap(), sc);
    }
}
