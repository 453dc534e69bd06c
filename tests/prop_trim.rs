//! Property-based tests for host TRIM: trimmed pages read as unmapped,
//! acknowledged trims survive crashes without resurrecting stale data, and
//! the sharded validity store is observationally equivalent to the single
//! tree under TRIM-heavy workloads, across a crash and recovery too.

use gecko_bench::harness::small_gecko_engine;
use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::ftl_workloads::Oracle;
use geckoftl::geckoftl_core::ftl::FtlEngine;
use geckoftl::geckoftl_core::recovery::gecko_recover;
use proptest::prelude::*;

/// One host operation, as generated by proptest.
#[derive(Clone, Copy, Debug)]
enum Op {
    Write(u32, u64),
    Trim(u32),
    Read(u32),
}

/// Apply `op` to `engine`, check a read against `oracle` and acknowledge a
/// write or trim.
fn apply(engine: &mut FtlEngine, oracle: &mut Oracle, op: Op) {
    match op {
        Op::Write(l, v) => {
            engine.write(Lpn(l), v);
            oracle.ack_write(Lpn(l), v);
        }
        Op::Trim(l) => {
            engine.trim(Lpn(l));
            oracle.ack_trim(Lpn(l));
        }
        Op::Read(l) => assert_eq!(engine.read(Lpn(l)), oracle.expected(Lpn(l)), "read of L{l}"),
    }
}

/// Crash `engine` at an op boundary and recover it with GeckoRec.
fn crash_and_recover(engine: FtlEngine) -> FtlEngine {
    let cfg = engine.config();
    let gecko_cfg = engine.backend().gecko_config().unwrap();
    gecko_recover(engine.crash(), cfg, gecko_cfg).0
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
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        for &op in &ops {
            apply(&mut engine, &mut oracle, op);
        }
        prop_assert_eq!(oracle.verify(|l| engine.read(l)), Ok(()), "final read-back");
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
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        let crash_at = ((ops.len() as f64) * crash_at_frac) as usize;

        for (i, &op) in ops.iter().enumerate() {
            if i == crash_at {
                engine = crash_and_recover(engine);
                // Every acknowledged op is pre-crash state: mapped pages
                // keep their version, trimmed pages must stay unmapped.
                prop_assert_eq!(oracle.verify(|l| engine.read(l)), Ok(()), "post-crash");
            }
            apply(&mut engine, &mut oracle, op);
        }
        prop_assert_eq!(oracle.verify(|l| engine.read(l)), Ok(()), "final read-back");
    }

    /// The per-channel sharded validity store must be observationally
    /// equivalent to the single tree: identical host-visible reads and
    /// identical host-op counters for the same TRIM-heavy op stream,
    /// across shard counts {1, 2, 4}. All three crash at the same op and
    /// recover; right after recovery and at the end every LPN reads the
    /// same on all three, and each passes the oracle.
    #[test]
    fn shard_counts_are_observationally_equivalent(
        ops in prop::collection::vec(op_strategy(500), 200..800),
        crash_at_frac in 0.0f64..1.0,
    ) {
        const SHARDS: [u32; 3] = [1, 2, 4];
        let mut engines: Vec<FtlEngine> =
            SHARDS.iter().map(|&s| small_gecko_engine(Geometry::tiny(), 64, s)).collect();
        let mut oracle = Oracle::new(Geometry::tiny().logical_pages());
        let crash_at = ((ops.len() as f64) * crash_at_frac) as usize;
        // Every LPN's read on each engine, each engine checked by the oracle.
        let read_back = |engines: &mut [FtlEngine], oracle: &Oracle, when: &str| {
            let mut images = Vec::new();
            for (engine, shards) in engines.iter_mut().zip(SHARDS) {
                let mut image = Vec::new();
                let res = oracle.verify(|l| {
                    let got = engine.read(l);
                    image.push(got);
                    got
                });
                assert_eq!(res, Ok(()), "{when} at shards {shards}");
                assert_eq!(images.first().unwrap_or(&image), &image, "{when}: shards {shards} vs 1");
                images.push(image);
            }
        };
        for (i, &op) in ops.iter().enumerate() {
            if i == crash_at {
                engines = engines.into_iter().map(crash_and_recover).collect();
                read_back(&mut engines, &oracle, "post-crash");
            }
            for engine in &mut engines {
                apply(engine, &mut oracle, op);
            }
        }
        read_back(&mut engines, &oracle, "final read-back");
        for i in 1..engines.len() {
            prop_assert_eq!(engines[i].counters.writes, engines[0].counters.writes);
            prop_assert_eq!(engines[i].counters.trims, engines[0].counters.trims);
            prop_assert_eq!(engines[i].counters.reads, engines[0].counters.reads);
        }
    }
}
