//! Seeded scenario mutations: the search moves of the feedback-driven
//! fuzzer.
//!
//! Every mutation is a small, deterministic edit of a [`Scenario`] — op
//! kind/key point edits (including TRIMs), overwrite storms, TRIM waves,
//! key-skew remaps, idle gaps, fault-plan edits (add/move/drop a write or
//! erase fault), crash point edits, truncation/extension — plus
//! [`crossover`], which splices two corpus parents. All randomness flows
//! from the caller's seeded [`StdRng`], so a fuzz run is reproducible from
//! its seed alone.

use super::scenario::Scenario;
use flash_sim::{EraseFault, Lpn, WriteFault};
use ftl_workloads::{Trace, WorkloadOp};
use rand::{rngs::StdRng, Rng};

/// Bounds the mutator needs: the logical key space and rough fault-index
/// ranges that have a chance of firing on the tiny geometry.
#[derive(Clone, Copy, Debug)]
pub struct MutateBounds {
    /// Logical pages addressable by the engine under test.
    pub logical_pages: u32,
    /// Cap on trace length (keeps scenarios replayable in milliseconds).
    pub max_ops: usize,
}

impl Default for MutateBounds {
    fn default() -> Self {
        MutateBounds {
            logical_pages: 512,
            max_ops: 4_000,
        }
    }
}

/// A seed scenario: `n` uniform writes over the whole key space.
pub fn seed_uniform(rng: &mut StdRng, b: &MutateBounds, n: usize) -> Scenario {
    let mut trace = Trace::default();
    for _ in 0..n {
        trace.push(WorkloadOp::Write(Lpn(rng.gen_range(0u32..b.logical_pages))));
    }
    Scenario::from_trace(trace)
}

/// A seed scenario: a TRIM-less overwrite storm — a hot range hammered with
/// updates (worst case for GC victim picking), mixed with occasional reads.
pub fn seed_storm(rng: &mut StdRng, b: &MutateBounds, n: usize) -> Scenario {
    let hot = rng.gen_range(4u32..32.min(b.logical_pages));
    let base = rng.gen_range(0u32..b.logical_pages - hot);
    let mut trace = Trace::default();
    for _ in 0..n {
        let lpn = Lpn(base + rng.gen_range(0u32..hot));
        if rng.gen_bool(0.15) {
            trace.push(WorkloadOp::Read(lpn));
        } else {
            trace.push(WorkloadOp::Write(lpn));
        }
    }
    Scenario::from_trace(trace)
}

/// A seed scenario: TRIM waves — regions written sequentially, then
/// discarded wholesale, interleaved with uniform traffic. Stresses the
/// erase-marker path and trim-vs-GC interleavings.
pub fn seed_trim_wave(rng: &mut StdRng, b: &MutateBounds, n: usize) -> Scenario {
    let mut trace = Trace::default();
    let mut left = n;
    while left > 0 {
        let region = rng.gen_range(8u32..48.min(b.logical_pages));
        let base = rng.gen_range(0u32..b.logical_pages - region);
        for i in 0..region.min(left as u32) {
            trace.push(WorkloadOp::Write(Lpn(base + i)));
        }
        for i in 0..region.min(left as u32) {
            trace.push(WorkloadOp::Trim(Lpn(base + i)));
        }
        for _ in 0..16.min(left) {
            trace.push(WorkloadOp::Write(Lpn(rng.gen_range(0u32..b.logical_pages))));
        }
        left = left.saturating_sub(region as usize * 2 + 16);
    }
    Scenario::from_trace(trace)
}

/// A seed scenario: bursts of writes separated by idle gaps, so merge work
/// happens off the write path and crash points land inside idle merges.
pub fn seed_bursty(rng: &mut StdRng, b: &MutateBounds, n: usize) -> Scenario {
    let mut trace = Trace::default();
    let mut left = n;
    while left > 0 {
        let burst = rng.gen_range(8usize..64).min(left);
        for _ in 0..burst {
            trace.push(WorkloadOp::Write(Lpn(rng.gen_range(0u32..b.logical_pages))));
        }
        left -= burst;
        trace.push(WorkloadOp::Idle(rng.gen_range(1u32..40)));
    }
    Scenario::from_trace(trace)
}

fn mutate_ops(sc: &mut Scenario, rng: &mut StdRng, b: &MutateBounds) {
    let ops: Vec<WorkloadOp> = sc.trace.ops().to_vec();
    let mut ops = ops;
    match rng.gen_range(0u32..6) {
        // Point edit: rewrite one op's key or kind.
        0 if !ops.is_empty() => {
            let i = rng.gen_range(0usize..ops.len());
            let lpn = Lpn(rng.gen_range(0u32..b.logical_pages));
            ops[i] = match rng.gen_range(0u32..4) {
                0 => WorkloadOp::Write(lpn),
                1 => WorkloadOp::Read(lpn),
                2 => WorkloadOp::Trim(lpn),
                _ => WorkloadOp::Idle(rng.gen_range(1u32..60)),
            };
        }
        // Inject an overwrite storm at a random position.
        1 => {
            let hot = rng.gen_range(2u32..16.min(b.logical_pages));
            let base = rng.gen_range(0u32..b.logical_pages - hot);
            let at = rng.gen_range(0usize..ops.len() + 1);
            let burst: Vec<WorkloadOp> = (0..rng.gen_range(16usize..128))
                .map(|_| WorkloadOp::Write(Lpn(base + rng.gen_range(0u32..hot))))
                .collect();
            ops.splice(at..at, burst);
        }
        // Insert or remove an idle gap.
        2 => {
            if rng.gen_bool(0.5) || ops.is_empty() {
                let at = rng.gen_range(0usize..ops.len() + 1);
                ops.insert(at, WorkloadOp::Idle(rng.gen_range(1u32..80)));
            } else if let Some(i) = ops.iter().position(|o| matches!(o, WorkloadOp::Idle(_))) {
                ops.remove(i);
            }
        }
        // Key-skew remap: squeeze a slice of the trace into a narrow band.
        3 if !ops.is_empty() => {
            let start = rng.gen_range(0usize..ops.len());
            let end = (start + rng.gen_range(8usize..256)).min(ops.len());
            let band = rng.gen_range(2u32..24.min(b.logical_pages));
            let base = rng.gen_range(0u32..b.logical_pages - band);
            for op in &mut ops[start..end] {
                *op = op.map_lpn(|l| Lpn(base + l.0 % band));
            }
        }
        // Inject a TRIM wave: discard a contiguous just-written region.
        4 => {
            let region = rng.gen_range(4u32..32.min(b.logical_pages));
            let base = rng.gen_range(0u32..b.logical_pages - region);
            let at = rng.gen_range(0usize..ops.len() + 1);
            let wave: Vec<WorkloadOp> = (0..region)
                .map(|i| WorkloadOp::Write(Lpn(base + i)))
                .chain((0..region).map(|i| WorkloadOp::Trim(Lpn(base + i))))
                .collect();
            ops.splice(at..at, wave);
        }
        // Truncate or extend.
        _ => {
            if rng.gen_bool(0.5) && ops.len() > 32 {
                let keep = rng.gen_range(16usize..ops.len());
                ops.truncate(keep);
            } else {
                for _ in 0..rng.gen_range(16usize..128) {
                    ops.push(WorkloadOp::Write(Lpn(rng.gen_range(0u32..b.logical_pages))));
                }
            }
        }
    }
    if ops.len() > b.max_ops {
        ops.truncate(b.max_ops);
    }
    sc.trace = Trace::from_ops(ops);
}

fn mutate_faults(sc: &mut Scenario, rng: &mut StdRng) {
    // Plausible attempt ranges on the tiny geometry: each user write costs
    // ~1 device write plus amplification; erases trail at roughly WA/pages
    // per block. Aim inside the run so scheduled faults actually fire.
    let write_span = (sc.trace.writes() as u64 * 3).max(64);
    let erase_span = (write_span / 16).max(8);
    match rng.gen_range(0u32..4) {
        0 => {
            let fault = match rng.gen_range(0u32..3) {
                0 => WriteFault::ProgramFail,
                1 => WriteFault::TornData,
                _ => WriteFault::TornSpare,
            };
            sc.write_faults
                .push((rng.gen_range(0u64..write_span), fault));
        }
        1 => {
            let fault = if rng.gen_bool(0.5) {
                EraseFault::Fail
            } else {
                EraseFault::Crash
            };
            sc.erase_faults
                .push((rng.gen_range(0u64..erase_span), fault));
        }
        2 if !sc.write_faults.is_empty() => {
            let i = rng.gen_range(0usize..sc.write_faults.len());
            if rng.gen_bool(0.5) {
                sc.write_faults.remove(i);
            } else {
                sc.write_faults[i].0 = rng.gen_range(0u64..write_span);
            }
        }
        _ if !sc.erase_faults.is_empty() => {
            let i = rng.gen_range(0usize..sc.erase_faults.len());
            if rng.gen_bool(0.5) {
                sc.erase_faults.remove(i);
            } else {
                sc.erase_faults[i].0 = rng.gen_range(0u64..erase_span);
            }
        }
        _ => {}
    }
}

fn mutate_crash_point(sc: &mut Scenario, rng: &mut StdRng) {
    let n = sc.op_count();
    sc.crash_after = match (sc.crash_after, rng.gen_range(0u32..3)) {
        (_, 0) if n > 0 => Some(rng.gen_range(0usize..n)),
        (Some(at), 1) if n > 0 => Some((at + rng.gen_range(0usize..n)) % n),
        _ => None,
    };
}

/// Produce a mutated child of `parent`: 1–3 random edits drawn from the op,
/// fault-plan and crash-point move sets.
pub fn mutate(parent: &Scenario, rng: &mut StdRng, b: &MutateBounds) -> Scenario {
    let mut sc = parent.clone();
    for _ in 0..rng.gen_range(1u32..4) {
        match rng.gen_range(0u32..6) {
            0..=2 => mutate_ops(&mut sc, rng, b),
            3 => mutate_faults(&mut sc, rng),
            4 => mutate_crash_point(&mut sc, rng),
            _ => sc.cache_entries = rng.gen_range(16usize..256),
        }
    }
    sc
}

/// Splice two parents: a prefix of `a`'s trace followed by a suffix of
/// `b`'s, with `a`'s fault plan and a crash point re-drawn inside the
/// child. Crossover jumps the search between basins two lineages found
/// separately — e.g. `a`'s GC-pressure prefix into `b`'s trim-wave tail.
pub fn crossover(a: &Scenario, b: &Scenario, rng: &mut StdRng, bounds: &MutateBounds) -> Scenario {
    let a_ops = a.trace.ops();
    let b_ops = b.trace.ops();
    let cut_a = if a_ops.is_empty() {
        0
    } else {
        rng.gen_range(0usize..a_ops.len() + 1)
    };
    let cut_b = if b_ops.is_empty() {
        0
    } else {
        rng.gen_range(0usize..b_ops.len())
    };
    let mut ops: Vec<WorkloadOp> = a_ops[..cut_a].to_vec();
    ops.extend_from_slice(&b_ops[cut_b..]);
    if ops.len() > bounds.max_ops {
        ops.truncate(bounds.max_ops);
    }
    let mut child = Scenario::from_trace(Trace::from_ops(ops));
    child.cache_entries = if rng.gen_bool(0.5) {
        a.cache_entries
    } else {
        b.cache_entries
    };
    child.write_faults = a.write_faults.clone();
    child.erase_faults = a.erase_faults.clone();
    mutate_crash_point(&mut child, rng);
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let b = MutateBounds::default();
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sc = seed_storm(&mut rng, &b, 300);
            for _ in 0..20 {
                sc = mutate(&sc, &mut rng, &b);
            }
            sc.to_text()
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }

    #[test]
    fn crossover_splices_and_round_trips() {
        let b = MutateBounds::default();
        let mut rng = StdRng::seed_from_u64(7);
        let pa = seed_storm(&mut rng, &b, 200);
        let pb = seed_trim_wave(&mut rng, &b, 200);
        let child = crossover(&pa, &pb, &mut rng, &b);
        assert!(child.op_count() > 0);
        assert!(child.op_count() <= b.max_ops);
        // The child keeps parent a's fault plan and is fully serializable.
        assert_eq!(child.write_faults, pa.write_faults);
        let rt = Scenario::from_text(&child.to_text()).expect("round trip");
        assert_eq!(rt.to_text(), child.to_text());
    }

    #[test]
    fn trim_wave_seed_contains_trims() {
        let b = MutateBounds::default();
        let mut rng = StdRng::seed_from_u64(3);
        let sc = seed_trim_wave(&mut rng, &b, 400);
        assert!(sc.trace.trims() > 0, "wave seed must emit TRIMs");
        let rt = Scenario::from_text(&sc.to_text()).expect("round trip");
        assert_eq!(rt.to_text(), sc.to_text());
    }

    #[test]
    fn seeds_stay_in_bounds() {
        let b = MutateBounds {
            logical_pages: 100,
            max_ops: 200,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for sc in [
            seed_uniform(&mut rng, &b, 150),
            seed_storm(&mut rng, &b, 150),
            seed_bursty(&mut rng, &b, 150),
        ] {
            for op in &sc.trace {
                if let WorkloadOp::Write(l) | WorkloadOp::Read(l) = op {
                    assert!(l.0 < 100);
                }
            }
        }
    }
}
