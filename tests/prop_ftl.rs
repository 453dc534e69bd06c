//! Property-based tests for the full FTL: for any workload and any crash
//! point, GeckoFTL never loses an acknowledged write (docs/DESIGN.md
//! invariants 2–4), and the baseline FTLs satisfy read-your-writes.

use geckoftl::flash_sim::{EraseFault, FaultPlan, Geometry, Lpn, WriteFault};
use geckoftl::ftl_baselines::{build, BaselineKind};
use geckoftl::geckoftl_core::ftl::{FtlConfig, FtlEngine, ValidityBackend};
use geckoftl::geckoftl_core::gecko::GeckoConfig;
use geckoftl::geckoftl_core::recovery::gecko_recover;
use proptest::prelude::*;
use std::collections::HashMap;

fn tiny_gecko_engine(cache: usize) -> FtlEngine {
    let geo = Geometry::tiny();
    let cfg = FtlConfig {
        cache_entries: cache,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = ValidityBackend::gecko_for(
        geo,
        GeckoConfig {
            page_header_bytes: geo.page_bytes - 64, // force real flush/merge activity
            ..GeckoConfig::paper_default(&geo)
        },
    );
    FtlEngine::format(geo, cfg, gecko)
}

/// Drive `writes` against an engine carrying `plan`. Recoverable faults
/// (program/erase failures) are absorbed inline by the FTL; crash faults
/// (torn pages, mid-erase power cuts) surface as a crash image, which we
/// recover from mid-run exactly as the fuzz harness does: the interrupted
/// write is unacknowledged (old-or-new), everything older must survive.
fn run_faulted(writes: &[(u32, u64)], cache: usize, plan: FaultPlan) -> Result<bool, String> {
    let mut engine = tiny_gecko_engine(cache);
    let cfg = engine.config();
    let gecko_cfg = engine.backend().gecko().unwrap().config();
    engine.with_raw_parts(|dev, _| dev.set_fault_plan(plan));
    let mut oracle: HashMap<u32, u64> = HashMap::new();
    let mut crashed = false;
    for &(lpn, version) in writes {
        engine.write(Lpn(lpn), version);
        let image = engine.with_raw_parts(|dev, _| dev.take_crash_image());
        if let Some(image) = image {
            crashed = true;
            drop(engine);
            let (rec, _) = gecko_recover(image, cfg, gecko_cfg);
            engine = rec;
            for (&l, &want) in &oracle {
                if l == lpn {
                    continue;
                }
                let got = engine.read(Lpn(l));
                if got != Some(want) {
                    return Err(format!("post-crash read of L{l}: got {got:?}, want {want}"));
                }
            }
            let got = engine.read(Lpn(lpn));
            let old = oracle.get(&lpn).copied();
            if got != old && got != Some(version) {
                return Err(format!(
                    "in-flight L{lpn}: got {got:?}, want old {old:?} or new Some({version})"
                ));
            }
            engine.write(Lpn(lpn), version); // host retry of the lost op
        }
        oracle.insert(lpn, version);
    }
    for (&l, &want) in &oracle {
        let got = engine.read(Lpn(l));
        if got != Some(want) {
            return Err(format!("final read of L{l}: got {got:?}, want {want}"));
        }
    }
    Ok(crashed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Crash anywhere; recovery must restore every acknowledged write, and
    /// the device must keep operating correctly afterwards.
    #[test]
    fn geckoftl_survives_arbitrary_crash_points(
        writes in prop::collection::vec((0u32..716, any::<u64>()), 100..1200),
        crash_at_frac in 0.0f64..1.0,
        cache in 24usize..96,
    ) {
        let mut engine = tiny_gecko_engine(cache);
        let mut oracle: HashMap<u32, u64> = HashMap::new();
        let crash_at = ((writes.len() as f64) * crash_at_frac) as usize;

        for (i, &(lpn, version)) in writes.iter().enumerate() {
            if i == crash_at {
                let cfg = engine.config();
                let gecko_cfg = engine.backend().gecko().unwrap().config();
                let dev = engine.crash();
                let (rec, _) = gecko_recover(dev, cfg, gecko_cfg);
                engine = rec;
                for (&l, &want) in &oracle {
                    prop_assert_eq!(engine.read(Lpn(l)), Some(want), "post-crash read of L{}", l);
                }
            }
            engine.write(Lpn(lpn), version);
            oracle.insert(lpn, version);
        }
        for (&l, &want) in &oracle {
            prop_assert_eq!(engine.read(Lpn(l)), Some(want), "final read of L{}", l);
        }
    }

    /// Interleaved reads and writes on every baseline keep read-your-writes.
    #[test]
    fn baselines_read_your_writes(
        ops in prop::collection::vec((0u32..716, any::<bool>()), 200..800),
        kind_idx in 0usize..5,
    ) {
        let kind = BaselineKind::ALL[kind_idx];
        let mut engine = build(kind, Geometry::tiny());
        let mut oracle: HashMap<u32, u64> = HashMap::new();
        let mut version = 0u64;
        for &(lpn, is_write) in &ops {
            if is_write {
                version += 1;
                engine.write(Lpn(lpn), version);
                oracle.insert(lpn, version);
            } else {
                prop_assert_eq!(engine.read(Lpn(lpn)), oracle.get(&lpn).copied());
            }
        }
    }

    /// Clean shutdown + recovery resolves every recovered entry to clean
    /// without losing data (App. C.3.1 false-alarm path).
    #[test]
    fn clean_shutdown_round_trip(
        writes in prop::collection::vec((0u32..716, any::<u64>()), 50..600),
    ) {
        let mut engine = tiny_gecko_engine(64);
        let mut oracle: HashMap<u32, u64> = HashMap::new();
        for &(lpn, version) in &writes {
            engine.write(Lpn(lpn), version);
            oracle.insert(lpn, version);
        }
        engine.shutdown_clean();
        let cfg = engine.config();
        let gecko_cfg = engine.backend().gecko().unwrap().config();
        let dev = engine.crash();
        let (mut rec, _) = gecko_recover(dev, cfg, gecko_cfg);
        rec.sync_all_dirty();
        for (&l, &want) in &oracle {
            prop_assert_eq!(rec.read(Lpn(l)), Some(want));
        }
        prop_assert_eq!(rec.cache().dirty_count(), 0);
    }

    /// Power cut *inside an erase operation* (the pulse completed, firmware
    /// never resumed), searched over erase-attempt indices. A narrow LPN
    /// range forces heavy overwrite traffic, so GC and Gecko merges erase
    /// blocks throughout the run and most sampled indices are reached.
    #[test]
    fn geckoftl_survives_crash_inside_erase(
        writes in prop::collection::vec((0u32..180, any::<u64>()), 300..1000),
        erase_at in 0u64..40,
        cache in 24usize..96,
    ) {
        let plan = FaultPlan::new().on_erase(erase_at, EraseFault::Crash);
        let res = run_faulted(&writes, cache, plan);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// Power cut mid-program with the spare area lost (the page's identity
    /// never made it to flash), searched over write-attempt indices. Also
    /// mixes in a torn *data* page at a second index: only the first fault
    /// reached delivers a crash image, so both orderings get exercised.
    #[test]
    fn geckoftl_survives_mid_spare_write_crash(
        writes in prop::collection::vec((0u32..716, any::<u64>()), 200..900),
        torn_spare_at in 0u64..1500,
        torn_data_at in 0u64..1500,
        cache in 24usize..96,
    ) {
        let plan = FaultPlan::new()
            .on_write(torn_spare_at, WriteFault::TornSpare)
            .on_write(torn_data_at, WriteFault::TornData);
        let res = run_faulted(&writes, cache, plan);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// Recoverable hardware faults — failed programs and failed erases —
    /// must be absorbed on the write path (retry on a fresh page, retire
    /// the bad block) without the host ever noticing: no crash image, no
    /// lost write.
    #[test]
    fn geckoftl_absorbs_program_and_erase_failures(
        writes in prop::collection::vec((0u32..300, any::<u64>()), 300..900),
        program_at in 0u64..1200,
        erase_at in 0u64..30,
    ) {
        let plan = FaultPlan::new()
            .on_write(program_at, WriteFault::ProgramFail)
            .on_erase(erase_at, EraseFault::Fail);
        match run_faulted(&writes, 64, plan) {
            Ok(crashed) => prop_assert!(!crashed, "recoverable faults must not crash"),
            Err(e) => prop_assert!(false, "{}", e),
        }
    }
}
