//! Property-based tests for host TRIM: trimmed pages read as unmapped,
//! acknowledged trims survive crashes without resurrecting stale data, and
//! the sharded validity store is observationally equivalent to the single
//! tree under TRIM-heavy workloads.

use gecko_bench::harness::small_gecko_engine;
use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::geckoftl_core::ftl::FtlEngine;
use geckoftl::geckoftl_core::recovery::gecko_recover;
use proptest::prelude::*;
use std::collections::HashMap;

/// One host operation, as generated by proptest.
#[derive(Clone, Copy, Debug)]
enum Op {
    Write(u32, u64),
    Trim(u32),
    Read(u32),
}

fn op_strategy(lpn_span: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..lpn_span, any::<u64>()).prop_map(|(l, v)| Op::Write(l, v)),
        1 => (0..lpn_span).prop_map(Op::Trim),
        1 => (0..lpn_span).prop_map(Op::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Read-your-trims: after any interleaving of writes, trims and reads,
    /// a trimmed-and-not-rewritten page reads as unmapped and everything
    /// else reads its latest version — even while GC churns underneath.
    #[test]
    fn trimmed_pages_read_unmapped(
        ops in prop::collection::vec(op_strategy(716), 200..1200),
        cache in 24usize..96,
    ) {
        let mut engine = small_gecko_engine(Geometry::tiny(), cache, 1);
        let mut oracle: HashMap<u32, u64> = HashMap::new();
        for &op in &ops {
            match op {
                Op::Write(l, v) => {
                    engine.write(Lpn(l), v);
                    oracle.insert(l, v);
                }
                Op::Trim(l) => {
                    engine.trim(Lpn(l));
                    oracle.remove(&l);
                }
                Op::Read(l) => {
                    prop_assert_eq!(engine.read(Lpn(l)), oracle.get(&l).copied());
                }
            }
        }
        for l in 0..716u32 {
            prop_assert_eq!(engine.read(Lpn(l)), oracle.get(&l).copied(), "final read of L{}", l);
        }
    }

    /// Crash anywhere in a TRIM-heavy stream: recovery must neither lose an
    /// acknowledged write nor resurrect an acknowledged trim. The operation
    /// in flight at the crash point is the only one allowed to be
    /// old-or-new.
    #[test]
    fn trim_survives_arbitrary_crash_points(
        ops in prop::collection::vec(op_strategy(716), 150..900),
        crash_at_frac in 0.0f64..1.0,
        cache in 24usize..96,
    ) {
        let mut engine = small_gecko_engine(Geometry::tiny(), cache, 1);
        let mut oracle: HashMap<u32, u64> = HashMap::new();
        let crash_at = ((ops.len() as f64) * crash_at_frac) as usize;

        for (i, &op) in ops.iter().enumerate() {
            if i == crash_at {
                let cfg = engine.config();
                let gecko_cfg = engine.backend().gecko().unwrap().config();
                let dev = engine.crash();
                let (rec, _) = gecko_recover(dev, cfg, gecko_cfg);
                engine = rec;
                // Every acknowledged op is pre-crash state: mapped pages
                // keep their version, trimmed pages must stay unmapped.
                for l in 0..716u32 {
                    prop_assert_eq!(
                        engine.read(Lpn(l)),
                        oracle.get(&l).copied(),
                        "post-crash read of L{}",
                        l
                    );
                }
            }
            match op {
                Op::Write(l, v) => {
                    engine.write(Lpn(l), v);
                    oracle.insert(l, v);
                }
                Op::Trim(l) => {
                    engine.trim(Lpn(l));
                    oracle.remove(&l);
                }
                Op::Read(l) => {
                    prop_assert_eq!(engine.read(Lpn(l)), oracle.get(&l).copied());
                }
            }
        }
        for l in 0..716u32 {
            prop_assert_eq!(engine.read(Lpn(l)), oracle.get(&l).copied(), "final read of L{}", l);
        }
    }

    /// The per-channel sharded validity store must be observationally
    /// equivalent to the single tree: identical host-visible reads and
    /// identical host-op counters for the same TRIM-heavy op stream,
    /// across shard counts {1, 2, 4}.
    #[test]
    fn shard_counts_are_observationally_equivalent(
        ops in prop::collection::vec(op_strategy(500), 200..800),
    ) {
        let mut engines: Vec<FtlEngine> =
            [1u32, 2, 4].iter().map(|&s| small_gecko_engine(Geometry::tiny(), 64, s)).collect();
        for &op in &ops {
            for engine in &mut engines {
                match op {
                    Op::Write(l, v) => {
                        engine.write(Lpn(l), v);
                    }
                    Op::Trim(l) => {
                        engine.trim(Lpn(l));
                    }
                    Op::Read(l) => {
                        engine.read(Lpn(l));
                    }
                }
            }
        }
        let images: Vec<Vec<Option<u64>>> = engines
            .iter_mut()
            .map(|e| (0..500u32).map(|l| e.read(Lpn(l))).collect())
            .collect();
        for (i, shards) in [2u32, 4].iter().enumerate() {
            prop_assert_eq!(
                &images[i + 1],
                &images[0],
                "shard{} vs shard1 host-visible divergence",
                shards
            );
            prop_assert_eq!(engines[i + 1].counters.writes, engines[0].counters.writes);
            prop_assert_eq!(engines[i + 1].counters.trims, engines[0].counters.trims);
            prop_assert_eq!(engines[i + 1].counters.reads, engines[0].counters.reads);
        }
    }
}
