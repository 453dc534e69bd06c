//! Operation-trace record & replay: capture a generated workload once and
//! replay it bit-identically against several FTLs, so comparative
//! experiments (Figure 13/14) feed every system the exact same stream.
//!
//! Traces are multi-tenant aware: every operation carries a [`TenantId`]
//! (stream id). Single-stream traces pay nothing for this — the tenant
//! vector stays empty and every op implicitly belongs to tenant 0, and the
//! text form only annotates ops of non-zero tenants (`W 5 @2`), so legacy
//! trace files parse unchanged and round trips stay byte-stable.

use crate::generators::WorkloadOp;
use flash_sim::Lpn;
use std::path::Path;

/// A tenant / stream identifier. Tenant 0 is the default stream that all
/// untagged operations belong to.
pub type TenantId = u8;

/// A recorded operation stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<WorkloadOp>,
    /// Per-op tenant ids. Invariant: either empty (every op is tenant 0) or
    /// exactly `ops.len()` long. Kept normalized — an all-zero vector is
    /// stored as empty — so `PartialEq` and text round trips are canonical.
    tenants: Vec<TenantId>,
}

impl Trace {
    /// Record `n` operations from a generator.
    pub fn record(gen: impl Iterator<Item = WorkloadOp>, n: usize) -> Self {
        Trace {
            ops: gen.take(n).collect(),
            tenants: Vec::new(),
        }
    }

    /// Record `n` tagged operations from a multi-tenant generator (e.g.
    /// [`crate::shapes::TenantMix`]).
    pub fn record_mix(gen: impl Iterator<Item = (WorkloadOp, TenantId)>, n: usize) -> Self {
        let mut t = Trace::default();
        for (op, tenant) in gen.take(n) {
            t.push_for(op, tenant);
        }
        t
    }

    /// Build a trace from explicit operations (all tenant 0).
    pub fn from_ops(ops: Vec<WorkloadOp>) -> Self {
        Trace {
            ops,
            tenants: Vec::new(),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of writes in the trace.
    pub fn writes(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, WorkloadOp::Write(_)))
            .count()
    }

    /// Number of trims in the trace.
    pub fn trims(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, WorkloadOp::Trim(_)))
            .count()
    }

    /// Iterate the operations.
    pub fn iter(&self) -> impl Iterator<Item = WorkloadOp> + '_ {
        self.ops.iter().copied()
    }

    /// Iterate `(op, tenant)` pairs.
    pub fn iter_with_tenants(&self) -> impl Iterator<Item = (WorkloadOp, TenantId)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (*op, self.tenant_of(i)))
    }

    /// The tenant of operation `i`.
    pub fn tenant_of(&self, i: usize) -> TenantId {
        self.tenants.get(i).copied().unwrap_or(0)
    }

    /// The distinct tenants appearing in the trace, ascending.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = if self.tenants.is_empty() {
            if self.ops.is_empty() {
                vec![]
            } else {
                vec![0]
            }
        } else {
            self.tenants.clone()
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The operations as a slice (for mutation-based fuzzing, which edits
    /// recorded traces op-by-op).
    pub fn ops(&self) -> &[WorkloadOp] {
        &self.ops
    }

    /// Append one operation (tenant 0).
    pub fn push(&mut self, op: WorkloadOp) {
        self.push_for(op, 0);
    }

    /// Append one operation for `tenant`.
    pub fn push_for(&mut self, op: WorkloadOp, tenant: TenantId) {
        if tenant != 0 || !self.tenants.is_empty() {
            if self.tenants.is_empty() {
                self.tenants = vec![0; self.ops.len()];
            }
            self.tenants.push(tenant);
        }
        self.ops.push(op);
    }

    /// Re-normalize after edits: drop the tenant vector if all zero.
    fn normalize(&mut self) {
        if self.tenants.iter().all(|t| *t == 0) {
            self.tenants.clear();
        }
    }

    /// Serialize to a compact text form, one op per line: `W <lpn>`,
    /// `R <lpn>`, `T <lpn>` or `I <ticks>`, with ops of a non-zero tenant
    /// suffixed `@<tenant>` (e.g. `W 5 @2`). The parser tolerates blank
    /// lines and drops everything from a `#` to the end of its line, so
    /// corpus files can carry a provenance header and per-op notes.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(self.ops.len() * 8);
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                WorkloadOp::Write(l) => s.push_str(&format!("W {}", l.0)),
                WorkloadOp::Read(l) => s.push_str(&format!("R {}", l.0)),
                WorkloadOp::Trim(l) => s.push_str(&format!("T {}", l.0)),
                WorkloadOp::Idle(n) => s.push_str(&format!("I {n}")),
            }
            let tenant = self.tenant_of(i);
            if tenant != 0 {
                s.push_str(&format!(" @{tenant}"));
            }
            s.push('\n');
        }
        s
    }

    /// Parse the text form produced by [`Trace::to_text`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut t = Trace::default();
        for (i, line) in text.lines().enumerate() {
            let code = line.split_once('#').map_or(line, |(code, _comment)| code);
            let mut parts = code.split_whitespace();
            let Some(kind) = parts.next() else {
                continue;
            };
            let arg = parts
                .next()
                .ok_or_else(|| format!("line {}: expected '<W|R|T|I> <n> [@tenant]'", i + 1))?;
            let arg: u32 = arg.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
            let tenant = match parts.next() {
                None => 0,
                Some(tag) => {
                    let digits = tag.strip_prefix('@').ok_or_else(|| {
                        format!("line {}: expected '@<tenant>', got '{tag}'", i + 1)
                    })?;
                    digits
                        .parse::<TenantId>()
                        .map_err(|e| format!("line {}: tenant: {e}", i + 1))?
                }
            };
            if let Some(extra) = parts.next() {
                return Err(format!("line {}: trailing token '{extra}'", i + 1));
            }
            let op = match kind {
                "W" => WorkloadOp::Write(Lpn(arg)),
                "R" => WorkloadOp::Read(Lpn(arg)),
                "T" => WorkloadOp::Trim(Lpn(arg)),
                "I" => WorkloadOp::Idle(arg),
                other => return Err(format!("line {}: unknown op '{other}'", i + 1)),
            };
            t.push_for(op, tenant);
        }
        t.normalize();
        Ok(t)
    }

    /// Load a trace from a text file written by [`Trace::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Save the trace to a text file. The text goes to `<path>.tmp` first
    /// and is renamed over `path`, so a concurrent [`Trace::load`] reads the
    /// old file or the new one, never a half-written one.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, self.to_text())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = WorkloadOp;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, WorkloadOp>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::Uniform;

    #[test]
    fn record_and_replay_are_identical() {
        let t1 = Trace::record(Uniform::new(11, 64), 500);
        let t2 = Trace::record(Uniform::new(11, 64), 500);
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 500);
        assert_eq!(t1.writes(), 500);
    }

    #[test]
    fn text_round_trip() {
        let t = Trace::from_ops(vec![
            WorkloadOp::Write(Lpn(3)),
            WorkloadOp::Read(Lpn(9)),
            WorkloadOp::Write(Lpn(0)),
        ]);
        let text = t.to_text();
        assert_eq!(text, "W 3\nR 9\nW 0\n");
        assert_eq!(Trace::from_text(&text).unwrap(), t);
    }

    #[test]
    fn trim_and_tenant_round_trip() {
        let mut t = Trace::default();
        t.push_for(WorkloadOp::Write(Lpn(3)), 1);
        t.push_for(WorkloadOp::Trim(Lpn(3)), 1);
        t.push_for(WorkloadOp::Read(Lpn(7)), 0);
        let text = t.to_text();
        assert_eq!(text, "W 3 @1\nT 3 @1\nR 7\n");
        assert_eq!(Trace::from_text(&text).unwrap(), t);
        // Comments, whole-line or trailing, parse to the same trace.
        let annotated = "# only\nW 3 @1 # x\nT 3 @1#x\nR 7 # cold\n";
        assert_eq!(Trace::from_text(annotated).unwrap(), t);
        assert_eq!(t.trims(), 1);
        assert_eq!(t.tenant_ids(), vec![0, 1]);
    }

    #[test]
    fn all_zero_tenants_normalize_to_untagged() {
        // A parsed trace whose tags are all @0-equivalent must equal the
        // untagged trace bit-for-bit, so corpus files stay canonical.
        let untagged = Trace::from_text("W 1\nR 1\n").unwrap();
        let tagged = Trace::from_text("W 1 @0\nR 1 @0\n").unwrap();
        assert_eq!(untagged, tagged);
        assert_eq!(tagged.to_text(), "W 1\nR 1\n");
    }

    #[test]
    fn text_parse_errors_are_reported() {
        assert!(Trace::from_text("X 1").is_err());
        assert!(Trace::from_text("W abc").is_err());
        assert!(Trace::from_text("W").is_err());
        assert!(Trace::from_text("W 1 2").is_err());
        assert!(Trace::from_text("W 1 @x").is_err());
        assert!(Trace::from_text("W 1 @2 z").is_err());
        // A comment hides nothing before it and everything after it.
        assert!(Trace::from_text("W # 1").is_err());
        assert!(Trace::from_text("W 1 2 # x").is_err());
        // Blank lines and comments are fine.
        assert_eq!(Trace::from_text("# header\n\nW 1\n\n").unwrap().len(), 1);
        assert_eq!(Trace::from_text("# only").unwrap().len(), 0);
        let t = Trace::from_text("W 1 @2 # x\nI 5#x\n").unwrap();
        assert_eq!(t.to_text(), "W 1 @2\nI 5\n");
    }

    #[test]
    fn idle_gaps_serialize() {
        let t = Trace::from_ops(vec![
            WorkloadOp::Write(Lpn(1)),
            WorkloadOp::Idle(40),
            WorkloadOp::Read(Lpn(1)),
        ]);
        let text = t.to_text();
        assert_eq!(text, "W 1\nI 40\nR 1\n");
        assert_eq!(Trace::from_text(&text).unwrap(), t);
        assert_eq!(t.writes(), 1, "idle gaps are not writes");
    }

    #[test]
    fn file_round_trip() {
        let mut t = Trace::default();
        t.push_for(WorkloadOp::Write(Lpn(5)), 2);
        t.push(WorkloadOp::Trim(Lpn(5)));
        let dir = std::env::temp_dir().join("ftl_workloads_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_op() -> impl Strategy<Value = WorkloadOp> {
            prop_oneof![
                (0u32..100_000).prop_map(|l| WorkloadOp::Write(Lpn(l))),
                (0u32..100_000).prop_map(|l| WorkloadOp::Read(Lpn(l))),
                (0u32..100_000).prop_map(|l| WorkloadOp::Trim(Lpn(l))),
                (0u32..10_000).prop_map(WorkloadOp::Idle),
            ]
        }

        proptest! {
            /// Any trace survives a text round trip bit-identically — the
            /// property the fuzz corpus depends on.
            #[test]
            fn text_round_trips_any_trace(
                ops in prop::collection::vec(arb_op(), 0..400),
            ) {
                let t = Trace::from_ops(ops);
                let parsed = Trace::from_text(&t.to_text()).unwrap();
                prop_assert_eq!(parsed, t);
            }

            /// Tenant-tagged traces round trip too, including the canonical
            /// empty-vs-all-zero tenant representation.
            #[test]
            fn text_round_trips_tenant_traces(
                ops in prop::collection::vec((arb_op(), 0u8..4), 0..400),
            ) {
                let mut t = Trace::default();
                for (op, tenant) in ops {
                    t.push_for(op, tenant);
                }
                let parsed = Trace::from_text(&t.to_text()).unwrap();
                prop_assert_eq!(parsed, t);
            }
        }
    }
}
