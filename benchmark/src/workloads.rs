//! The four workloads: names, sizes, engine configuration and op streams.
//!
//! Streams are built from the repo's own generators (through the adapter)
//! and seeded only from `--seed`; the engine sees nothing but the ops.

use crate::adapter::{self, EngineSpec, Op, OpStream};

/// Stream items per segment: generation happens between segments, outside
/// the timed sections. A multiple of every workload's cycle length, so each
/// segment carries the same op mix.
pub const SEGMENT_OPS: usize = 50_000;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub spec: EngineSpec,
    /// Stream items of the fixed-size window every simulated-clock metric is
    /// taken over (a multiple of [`SEGMENT_OPS`]).
    pub window_ops: usize,
    /// Response-time limit of `sim_max_rate_ops_s`, frozen per workload so
    /// that the capacity lies between 0.3 and 0.8 of `sim_iops` at the
    /// commit that defined the benchmark.
    pub limit_us: f64,
    stream: fn(u64) -> OpStream,
}

impl Workload {
    /// The workload's op stream for a seed (endless).
    pub fn stream(&self, seed: u64) -> OpStream {
        (self.stream)(seed)
    }
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "rand_write_uniform",
        why: "Paper Fig. 9/11-13: uniform page updates (2 % reads), working set 45x the cache; GC migration and translation sync do the work, the validity store is nearly idle.",
        spec: EngineSpec {
            cache_entries: 2048,
            deep_tree: false,
        },
        window_ops: 1_200_000,
        limit_us: 150_000.0,
        stream: rand_write_uniform,
    },
    Workload {
        name: "zipf_hot_rw",
        why: "Zipf(0.99) keys, 30 % reads, cache holds the hot set (18 % of pages): the cache-hit path and the lazy-invalidation cost of a large dirty cache.",
        spec: EngineSpec {
            cache_entries: 16_384,
            deep_tree: false,
        },
        window_ops: 1_350_000,
        limit_us: 150_000.0,
        stream: zipf_hot_rw,
    },
    Workload {
        name: "read_scan_cold",
        why: "94 % reads (sequential scans + uniform) under a cold cache: translation fetch + user read dominate, GC and Gecko do little; highest op rate, so per-op overhead shows first.",
        spec: EngineSpec {
            cache_entries: 2048,
            deep_tree: false,
        },
        window_ops: 4_000_000,
        limit_us: 150_000.0,
        stream: read_scan_cold,
    },
    Workload {
        name: "gecko_deep_tree",
        why: "Bursty writes/reads, TRIM waves and idle ticks on 8-level x 4-shard Gecko trees: buffer, flush, incremental merge, Bloom/fence query, erase markers - the paper's contribution under load.",
        spec: EngineSpec {
            cache_entries: 2048,
            deep_tree: true,
        },
        window_ops: 1_200_000,
        limit_us: 150_000.0,
        stream: gecko_deep_tree,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The benchmark's own generator (SplitMix64), for sub-seeds and for the
/// decisions the benchmark adds on top of the repo's generators.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Independent sub-seed `k` of a run's seed.
fn sub_seed(seed: u64, k: u64) -> u64 {
    SplitMix(seed.wrapping_mul(0x100).wrapping_add(k)).next()
}

/// Alternate `a_ops` items of `a` with `b_ops` items of `b`, forever.
fn cycle(a: OpStream, a_ops: u32, b: OpStream, b_ops: u32) -> OpStream {
    let mut parts = [(a, a_ops), (b, b_ops)];
    let (mut which, mut left) = (0usize, a_ops);
    Box::new(std::iter::from_fn(move || {
        if left == 0 {
            which = 1 - which;
            left = parts[which].1;
        }
        left -= 1;
        parts[which].0.next()
    }))
}

fn rand_write_uniform(seed: u64) -> OpStream {
    // 2 % uniform reads, so the read-latency metrics have samples here too
    // (240 in the slowest 1 %).
    adapter::uniform_mixed(sub_seed(seed, 0), 0.02)
}

fn zipf_hot_rw(seed: u64) -> OpStream {
    let mut rng = SplitMix(sub_seed(seed, 1));
    Box::new(
        adapter::zipfian_writes(sub_seed(seed, 0), 0.99).map(move |op| match op {
            // Reads beside writes on one skewed key set.
            Op::Write(lpn) if rng.chance(0.30) => Op::Read(lpn),
            other => other,
        }),
    )
}

fn read_scan_cold(seed: u64) -> OpStream {
    cycle(
        adapter::scan_reads(64),
        6_000,
        adapter::uniform_mixed(sub_seed(seed, 0), 0.85),
        4_000,
    )
}

fn gecko_deep_tree(seed: u64) -> OpStream {
    cycle(
        adapter::bursty_diurnal(sub_seed(seed, 0), 2_000, 50),
        20_000,
        adapter::trim_wave(sub_seed(seed, 1), 2_048),
        5_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in &ALL {
            let a: Vec<Op> = w.stream(7).take(30_000).collect();
            let b: Vec<Op> = w.stream(7).take(30_000).collect();
            let c: Vec<Op> = w.stream(8).take(30_000).collect();
            assert_eq!(a, b, "{}: same seed, same ops", w.name);
            // read_scan_cold opens with 6 000 seed-independent scan reads.
            assert_ne!(a, c, "{}: another seed, other ops", w.name);
        }
    }

    #[test]
    fn segments_hold_whole_cycles_and_windows_whole_segments() {
        for w in &ALL {
            assert_eq!(w.window_ops % SEGMENT_OPS, 0, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(SEGMENT_OPS % 10_000, 0);
        assert_eq!(SEGMENT_OPS % 25_000, 0);
    }

    #[test]
    fn mixes_are_as_documented() {
        let share = |name: &str, pred: fn(&Op) -> bool| {
            let w = by_name(name).unwrap();
            w.stream(3).take(200_000).filter(pred).count() as f64 / 200_000.0
        };
        let is_read = |op: &Op| matches!(op, Op::Read(_));
        let is_trim = |op: &Op| matches!(op, Op::Trim(_));
        assert!((share("rand_write_uniform", is_read) - 0.02).abs() < 0.002);
        assert!((share("zipf_hot_rw", is_read) - 0.30).abs() < 0.01);
        assert!((share("read_scan_cold", is_read) - 0.94).abs() < 0.01);
        assert!(share("gecko_deep_tree", is_trim) > 0.05);
    }
}
