//! Property-based tests for the full FTL: for any workload and any crash
//! point, GeckoFTL never loses an acknowledged write (docs/DESIGN.md
//! invariants 2–4), and the baseline FTLs satisfy read-your-writes.

use gecko_bench::harness::small_gecko_engine;
use geckoftl::flash_sim::{EraseFault, FaultPlan, Geometry, Lpn, Ppn, WriteFault};
use geckoftl::ftl_baselines::{build, BaselineKind};
use geckoftl::ftl_workloads::Oracle;
use geckoftl::geckoftl_core::ftl::FtlEngine;
use geckoftl::geckoftl_core::recovery::gecko_recover;
use geckoftl::geckoftl_core::translation::TranslationPagePayload;
use proptest::prelude::*;

/// Drive `writes` against an engine carrying `plan`. Recoverable faults
/// (program/erase failures) are absorbed inline by the FTL; crash faults
/// (torn pages, mid-erase power cuts) surface as a crash image, which we
/// recover from mid-run exactly as the fuzz harness does: the interrupted
/// write is unacknowledged (old-or-new), everything older must survive.
fn run_faulted(writes: &[(u32, u64)], cache: usize, plan: FaultPlan) -> Result<bool, String> {
    let mut engine = small_gecko_engine(Geometry::tiny(), cache, 1);
    let cfg = engine.config();
    let gecko_cfg = engine.backend().gecko().unwrap().config();
    engine.with_raw_parts(|dev, _| dev.set_fault_plan(plan));
    let mut oracle = Oracle::new(engine.geometry().logical_pages());
    let mut crashed = false;
    for &(lpn, version) in writes {
        let lpn = Lpn(lpn);
        oracle.in_flight(lpn, Some(version));
        engine.write(lpn, version);
        let image = engine.with_raw_parts(|dev, _| dev.take_crash_image());
        if let Some(image) = image {
            crashed = true;
            drop(engine);
            let (rec, _) = gecko_recover(image, cfg, gecko_cfg);
            engine = rec;
            oracle
                .verify(|l| engine.read(l))
                .map_err(|e| format!("post-crash: {e}"))?;
            engine.write(lpn, version); // host retry of the lost op
        }
        oracle.ack_write(lpn, version);
    }
    oracle
        .verify(|l| engine.read(l))
        .map_err(|e| format!("final read-back: {e}"))?;
    Ok(crashed)
}

/// One step of the read-ahead property: scans long enough to trigger
/// read-ahead, and the traffic that can make what a scan installed wrong.
/// "Ahead" steps address the LPNs the last scan would have read next — the
/// successors it may have installed.
#[derive(Clone, Copy, Debug)]
enum ScanStep {
    /// From `start`, or from where the last scan stopped.
    Scan {
        start: Option<u32>,
        len: u32,
    },
    WriteAhead {
        skip: u32,
        len: u32,
    },
    TrimAhead {
        skip: u32,
        len: u32,
    },
    WriteBurst {
        start: u32,
        len: u32,
    },
    Idle {
        ticks: u32,
    },
    Crash,
}

fn scan_step_strategy() -> impl Strategy<Value = ScanStep> {
    prop_oneof![
        4 => (0u32..1433, 3u32..48).prop_map(|(start, len)| ScanStep::Scan { start: Some(start), len }),
        // Some scans start just below L1024, where
        // translation page 0 — and with it the window — ends.
        1 => (990u32..1024, 3u32..48).prop_map(|(start, len)| ScanStep::Scan { start: Some(start), len }),
        3 => (3u32..48).prop_map(|len| ScanStep::Scan { start: None, len }),
        3 => (0u32..24, 1u32..12).prop_map(|(skip, len)| ScanStep::WriteAhead { skip, len }),
        2 => (0u32..24, 1u32..6).prop_map(|(skip, len)| ScanStep::TrimAhead { skip, len }),
        3 => (0u32..1433, 1u32..24).prop_map(|(start, len)| ScanStep::WriteBurst { start, len }),
        1 => (1u32..4).prop_map(|ticks| ScanStep::Idle { ticks }),
        1 => Just(ScanStep::Crash),
    ]
}

/// The entry of `lpn` in the GMD-current version of its translation page,
/// read without charging IO.
fn flash_resident_entry(engine: &FtlEngine, lpn: Lpn) -> Option<Ppn> {
    let tt = engine.translation();
    let loc = tt.tpage_location(tt.tpage_of(lpn))?;
    let page = engine
        .device()
        .peek_page(loc)
        .expect("GMD names a written page");
    let payload = page
        .blob::<TranslationPagePayload>()
        .expect("a translation page");
    payload.get(lpn.0 % engine.geometry().entries_per_translation_page())
}

/// DESIGN.md invariant 11, second half: a clean cached entry equals the
/// flash-resident one.
fn clean_entries_equal_flash(engine: &FtlEngine) -> Result<(), String> {
    for e in engine.cache().iter_lru_order().filter(|e| !e.dirty) {
        let flash = flash_resident_entry(engine, e.lpn);
        if flash != Some(e.ppn) {
            return Err(format!("clean entry {e:?}, but flash holds {flash:?}"));
        }
    }
    Ok(())
}

/// Invariant 11, first half, against the oracle: the cached entry of
/// an LPN, or else its flash-resident entry, names the page holding the
/// version the host wrote last — or nothing, for a trimmed or never-written
/// LPN.
fn newest_mappings_match(engine: &FtlEngine, oracle: &Oracle) -> Result<(), String> {
    for l in 0..engine.geometry().logical_pages() as u32 {
        let lpn = Lpn(l);
        let cached = engine.cache().lookup(lpn).map(|e| e.ppn);
        let mapping = cached.or_else(|| flash_resident_entry(engine, lpn));
        let held = mapping.map(|ppn| engine.device().peek_page(ppn).and_then(|d| d.as_user()));
        let want = oracle.expected(lpn).map(|version| Some((lpn, version)));
        if held != want {
            return Err(format!(
                "L{l} (cached: {}) maps to {mapping:?} holding {held:?}, want {want:?}",
                cached.is_some()
            ));
        }
    }
    Ok(())
}

/// Run `steps` on a two-translation-page device against the oracle,
/// checking every read, the clean-entry invariant after every host op and
/// the whole mapping after every step.
fn run_scan_steps(steps: &[ScanStep], cache: usize, shards: u32) -> Result<(), String> {
    // 1 433 logical pages: translation page 0 whole, page 1 in part.
    let geo = Geometry::new(128, 16, 1 << 12, 0.7);
    let logical = geo.logical_pages() as u32;
    let mut engine = small_gecko_engine(geo, cache, shards);
    let mut oracle = Oracle::new(geo.logical_pages());
    let mut version = 0u64;
    let mut write = |engine: &mut FtlEngine, oracle: &mut Oracle, l: u32| {
        version += 1;
        engine.write(Lpn(l), version);
        oracle.ack_write(Lpn(l), version);
        clean_entries_equal_flash(engine)
    };
    // Filled once, so scans find mappings and bursts reach GC.
    for l in 0..logical {
        write(&mut engine, &mut oracle, l)?;
    }
    let mut cursor = 0u32; // the LPN the last scan would have read next

    // The `len` LPNs from `start`, wrapped into the logical space.
    let span = |start: u32, len: u32| (start..start + len).map(move |l| l % logical);
    for (i, &step) in steps.iter().enumerate() {
        let at = |e: String| format!("step {i} {step:?}: {e}");
        match step {
            ScanStep::Scan { start, len } => {
                let start = start.unwrap_or(cursor);
                for l in span(start, len) {
                    let got = engine.read(Lpn(l));
                    if got != oracle.expected(Lpn(l)) {
                        return Err(at(format!("read of L{l} got {got:?}")));
                    }
                    clean_entries_equal_flash(&engine).map_err(at)?;
                }
                cursor = (start + len) % logical;
            }
            ScanStep::WriteAhead { skip, len } => {
                for l in span(cursor + skip, len) {
                    write(&mut engine, &mut oracle, l).map_err(at)?;
                }
            }
            ScanStep::WriteBurst { start, len } => {
                for l in span(start, len) {
                    write(&mut engine, &mut oracle, l).map_err(at)?;
                }
            }
            ScanStep::TrimAhead { skip, len } => {
                for l in span(cursor + skip, len) {
                    engine.trim(Lpn(l));
                    oracle.ack_trim(Lpn(l));
                    clean_entries_equal_flash(&engine).map_err(at)?;
                }
            }
            ScanStep::Idle { ticks } => {
                for _ in 0..ticks {
                    engine.idle_tick();
                }
            }
            ScanStep::Crash => {
                let (cfg, gecko_cfg) = (engine.config(), engine.backend().gecko_config().unwrap());
                engine = gecko_recover(engine.crash(), cfg, gecko_cfg).0;
            }
        }
        clean_entries_equal_flash(&engine).map_err(at)?;
        newest_mappings_match(&engine, &oracle).map_err(at)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Sequential read-ahead installs only what flash holds: under any
    /// interleaving of scans, writes and trims of the LPNs ahead of a scan,
    /// write bursts elsewhere, idle ticks and power cuts, every read returns
    /// the oracle's version and DESIGN.md invariant 11 holds throughout —
    /// with one Gecko tree and with four.
    ///
    /// Mutations this fails on: `read_inner` installing successors although
    /// `tpage_location` moved across `make_room` (case 5: a clean entry that
    /// differs from flash), and `install_read_ahead` evicting a dirty LRU
    /// entry (case 0: the mapping of an acknowledged write is gone).
    #[test]
    fn read_ahead_installs_only_flash_resident_mappings(
        steps in prop::collection::vec(scan_step_strategy(), 30..120),
        cache in 4usize..48,
    ) {
        for shards in [1u32, 4] {
            let res = run_scan_steps(&steps, cache, shards);
            prop_assert!(res.is_ok(), "shards={}: {}", shards, res.unwrap_err());
        }
    }

    /// Crash anywhere; recovery must restore every acknowledged write, and
    /// the device must keep operating correctly afterwards.
    #[test]
    fn geckoftl_survives_arbitrary_crash_points(
        writes in prop::collection::vec((0u32..716, any::<u64>()), 100..1200),
        crash_at_frac in 0.0f64..1.0,
        cache in 24usize..96,
    ) {
        let mut engine = small_gecko_engine(Geometry::tiny(), cache, 1);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        let crash_at = ((writes.len() as f64) * crash_at_frac) as usize;

        for (i, &(lpn, version)) in writes.iter().enumerate() {
            if i == crash_at {
                let cfg = engine.config();
                let gecko_cfg = engine.backend().gecko().unwrap().config();
                let dev = engine.crash();
                let (rec, _) = gecko_recover(dev, cfg, gecko_cfg);
                engine = rec;
                prop_assert_eq!(oracle.verify(|l| engine.read(l)), Ok(()), "post-crash");
            }
            engine.write(Lpn(lpn), version);
            oracle.ack_write(Lpn(lpn), version);
        }
        prop_assert_eq!(oracle.verify(|l| engine.read(l)), Ok(()), "final read-back");
    }

    /// Interleaved reads and writes on every baseline keep read-your-writes.
    #[test]
    fn baselines_read_your_writes(
        ops in prop::collection::vec((0u32..716, any::<bool>()), 200..800),
        kind_idx in 0usize..5,
    ) {
        let kind = BaselineKind::ALL[kind_idx];
        let mut engine = build(kind, Geometry::tiny());
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        let mut version = 0u64;
        for &(lpn, is_write) in &ops {
            let lpn = Lpn(lpn);
            if is_write {
                version += 1;
                engine.write(lpn, version);
                oracle.ack_write(lpn, version);
            } else {
                prop_assert_eq!(engine.read(lpn), oracle.expected(lpn));
            }
        }
    }

    /// Clean shutdown + recovery resolves every recovered entry to clean
    /// without losing data (App. C.3.1 false-alarm path).
    #[test]
    fn clean_shutdown_round_trip(
        writes in prop::collection::vec((0u32..716, any::<u64>()), 50..600),
    ) {
        let mut engine = small_gecko_engine(Geometry::tiny(), 64, 1);
        let mut oracle = Oracle::new(engine.geometry().logical_pages());
        for &(lpn, version) in &writes {
            engine.write(Lpn(lpn), version);
            oracle.ack_write(Lpn(lpn), version);
        }
        engine.shutdown_clean();
        let cfg = engine.config();
        let gecko_cfg = engine.backend().gecko().unwrap().config();
        let dev = engine.crash();
        let (mut rec, _) = gecko_recover(dev, cfg, gecko_cfg);
        rec.sync_all_dirty();
        prop_assert_eq!(oracle.verify(|l| rec.read(l)), Ok(()));
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
