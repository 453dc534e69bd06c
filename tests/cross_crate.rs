//! Workspace-level integration tests exercising the public facade: every
//! FTL built from `ftl_baselines` running workloads from `ftl_workloads` on
//! the `flash_sim` substrate, with results cross-checked between crates.

use gecko_bench::harness::{drive, OpDriver};
use geckoftl::flash_sim::MetaKind;
use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::ftl_baselines::{build, build_with, BaselineKind};
use geckoftl::ftl_models::{ram_model, recovery_model, RecoveryComponent, RecoveryModel};
use geckoftl::ftl_workloads::{HotCold, Oracle, Trace, Uniform, WorkloadOp, Zipfian};
use geckoftl::geckoftl_core::ftl::{BlockGroup, FtlConfig, FtlEngine, HostOpKind};
use geckoftl::geckoftl_core::recovery::{gecko_recover, RecoveryReport, RecoveryStep, StepCost};

fn geo() -> Geometry {
    Geometry::tiny()
}

/// Acknowledge in `oracle` the host op `driver` issued for `op`, and check
/// the version a read returned against it.
fn apply_acked(ftl: &mut FtlEngine, driver: &mut OpDriver, oracle: &mut Oracle, op: WorkloadOp) {
    let Some((host, done)) = driver.apply(ftl, op, None).expect("in-range op") else {
        return;
    };
    match host.kind {
        HostOpKind::Write { version } => oracle.ack_write(host.lpn, version),
        HostOpKind::Read => assert_eq!(
            done.version,
            oracle.expected(host.lpn),
            "read of {:?}",
            host.lpn
        ),
        HostOpKind::Trim => oracle.ack_trim(host.lpn),
    }
}

fn replay_with_oracle(kind: BaselineKind, trace: &Trace) {
    let mut ftl = build(kind, geo());
    let mut oracle = Oracle::new(geo().logical_pages());
    let mut driver = OpDriver::new(0);
    for op in trace.iter() {
        apply_acked(&mut ftl, &mut driver, &mut oracle, op);
    }
    let res = oracle.verify(|l| ftl.read(l));
    assert_eq!(res, Ok(()), "{}: final read-back", kind.name());
}

#[test]
fn all_ftls_agree_on_a_zipfian_trace() {
    let logical = geo().logical_pages();
    let trace = Trace::record(Zipfian::new(5, logical, 0.9), 5000);
    for kind in BaselineKind::ALL {
        replay_with_oracle(kind, &trace);
    }
}

#[test]
fn all_ftls_agree_on_a_hot_cold_trace() {
    let logical = geo().logical_pages();
    let trace = Trace::record(HotCold::new(6, logical, 0.1, 0.9), 5000);
    for kind in [
        BaselineKind::GeckoFtl,
        BaselineKind::MuFtl,
        BaselineKind::IbFtl,
    ] {
        replay_with_oracle(kind, &trace);
    }
}

#[test]
fn geckoftl_crash_recovery_through_the_facade() {
    let g = geo();
    let mut ftl = build(BaselineKind::GeckoFtl, g);
    let logical = g.logical_pages();
    let mut oracle = Oracle::new(logical);
    let mut driver = OpDriver::new(0);
    for op in Uniform::new(12, logical).take(4000) {
        apply_acked(&mut ftl, &mut driver, &mut oracle, op);
    }
    let cfg = ftl.config();
    let gecko_cfg = ftl.backend().gecko().expect("gecko").config();
    let dev = ftl.crash();
    let (mut rec, report) = gecko_recover(dev, cfg, gecko_cfg);
    assert!(report.total_secs() > 0.0);
    assert_eq!(oracle.verify(|l| rec.read(l)), Ok(()));
}

/// The 18 crash instants of a uniform run (`K = C = 256`), one every 1 000
/// ops from op 2 000: each instant's recovery report, with the pages written
/// on translation blocks and on Gecko blocks at that instant, and the model
/// the run's geometry and cache give.
fn uniform_crash_instants() -> (RecoveryModel, Vec<(usize, RecoveryReport, u64, u64)>) {
    const C: usize = 256;
    let g = Geometry::new(256, 16, 256, 0.7);
    let cfg = FtlConfig {
        cache_entries: C,
        ..FtlConfig::geckoftl(&g)
    };
    let mut ftl = build_with(BaselineKind::GeckoFtl, g, cfg);
    let gecko_cfg = ftl.backend().gecko().expect("gecko").config();
    let mut driver = OpDriver::new(0);
    let mut instants = Vec::new();
    for (i, op) in Uniform::new(15, g.logical_pages()).take(20_000).enumerate() {
        driver.apply(&mut ftl, op, None).expect("in-range op");
        if i >= 2_000 && i % 1_000 == 0 {
            let dev = ftl.device();
            let written = |group: BlockGroup| -> u64 {
                let bm = ftl.block_manager();
                bm.blocks_of_group(group)
                    .map(|b| dev.written_pages(b) as u64)
                    .sum()
            };
            let (tpages, gpages) = (
                written(BlockGroup::Translation),
                written(BlockGroup::Meta(MetaKind::GeckoRun)),
            );
            let (_, report) = gecko_recover(dev.clone(), cfg, gecko_cfg);
            instants.push((i, report, tpages, gpages));
        }
    }
    (
        recovery_model(BaselineKind::GeckoFtl, &g, C as u64),
        instants,
    )
}

/// The model component `name` prices, and the step's measured cost.
fn step_and_model(
    model: &RecoveryModel,
    name: &str,
    report: &RecoveryReport,
    step: RecoveryStep,
) -> (StepCost, RecoveryComponent) {
    let component = model
        .components
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("the model prices {name}"))
        .clone();
    let cost = report
        .steps
        .iter()
        .find(|(s, _)| *s == step)
        .unwrap_or_else(|| panic!("{step:?} ran"))
        .1;
    (cost, component)
}

/// GeckoRec step 6 against the analytical model's "LRU cache" component,
/// the paper's `K + 2·C` spare reads (`ftl_models::recovery_model`), at the
/// 18 crash instants of [`uniform_crash_instants`]: measured never exceeds
/// the model. The engine orders the blocks by step 1's scan instead of `K`
/// probes, and stops at the checkpoint horizon the translation pages persist
/// (DESIGN.md invariant 15). Measured / model is 0.58 on the mean here (446
/// of 768 spare reads, ≈ 1.7·C); a fixed `2·C + 4·B` window reads 577 at
/// every instant (0.75), and so does the scan at the two instants where step
/// 4b reads no translation-page version to take the horizon from.
#[test]
fn dirty_entry_step_stays_within_the_recovery_model() {
    let (model, instants) = uniform_crash_instants();
    let mut measured = Vec::new();
    let mut bound = 0;
    for (i, report, _, _) in &instants {
        let (step6, lru) = step_and_model(&model, "LRU cache", report, RecoveryStep::DirtyEntries);
        assert!(
            step6.spare_reads <= lru.spare_reads,
            "op {i}: step 6 read {} spare areas, the model {}",
            step6.spare_reads,
            lru.spare_reads
        );
        measured.push(step6.spare_reads);
        bound = lru.spare_reads;
    }
    let ratio = measured.iter().sum::<u64>() as f64 / measured.len() as f64 / bound as f64;
    assert!(ratio < 0.7, "measured / model = {ratio:.3}");
}

/// GeckoRec steps 1–5 against their `ftl_models::recovery_model` components
/// at the same 18 crash instants. Every page-read count fits the model: step 3
/// reads no page against its 20 (the run directories come from the spare
/// tags), step 4 at most 20 against `2·V = 72` and step 5 at most 10 against
/// `G = 16` (each live run page once; DESIGN.md invariant 16). Step 1 reads at
/// most `K` spare areas, step 2 at most 70 against `2·T = 90`, step 4 none
/// against `V = 36`.
///
/// One spare-read count exceeds the model, and ROADMAP item 8 lists it as
/// `off`: step 3 reads up to 25 spare areas against `G = 16`. It scans every
/// written page of the Gecko blocks, merged-away runs included, where the
/// model counts live pages. The test pins that explanation instead of
/// loosening the model.
#[test]
fn recovery_steps_1_to_5_stay_within_the_recovery_model() {
    let (model, instants) = uniform_crash_instants();
    for (i, report, tpages, gpages) in &instants {
        let check = |name, step| step_and_model(&model, name, report, step);
        let (bid, init) = check("init scan", RecoveryStep::Bid);
        assert!(bid.spare_reads <= init.spare_reads, "op {i}: step 1");
        assert_eq!(bid.page_reads, 0, "op {i}: step 1");
        let (gmd, _) = check("translation", RecoveryStep::Gmd);
        assert_eq!(
            gmd.spare_reads, *tpages,
            "op {i}: step 2 reads every translation page's spare"
        );
        assert_eq!(gmd.page_reads, 0, "op {i}: step 2");
        let (dirs, run_dirs) = check("run directories", RecoveryStep::RunDirectories);
        assert_eq!(
            dirs.spare_reads, *gpages,
            "op {i}: step 3 reads every Gecko page's spare"
        );
        assert!(dirs.page_reads <= run_dirs.page_reads, "op {i}: step 3");
        let (buffer, gecko_buffer) = check("gecko buffer", RecoveryStep::Buffer);
        assert!(
            buffer.spare_reads <= gecko_buffer.spare_reads,
            "op {i}: step 4"
        );
        assert!(
            buffer.page_reads <= gecko_buffer.page_reads,
            "op {i}: step 4"
        );
        let (bvc, validity) = check("validity metadata", RecoveryStep::Bvc);
        assert_eq!(bvc.spare_reads, 0, "op {i}: step 5");
        assert!(bvc.page_reads <= validity.page_reads, "op {i}: step 5");
    }
}

#[test]
fn empirical_ram_report_matches_analytical_model_shape() {
    // The engine's self-reported RAM accounting and the standalone model
    // must agree on the structures they share.
    let g = Geometry::new(1 << 10, 1 << 7, 1 << 12, 0.7);
    let mut ftl = build(BaselineKind::GeckoFtl, g);
    for lpn in 0..g.logical_pages() as u32 {
        ftl.write(Lpn(lpn), 1);
    }
    let emp = ftl.ram_report();
    let model = ram_model(
        BaselineKind::GeckoFtl,
        &g,
        ftl.config().cache_entries as u64,
    );
    assert_eq!(emp.gmd, model.component("GMD"));
    assert_eq!(emp.bvc, model.component("BVC"));
    assert_eq!(emp.cache, model.component("LRU cache"));
    // Gecko's live structure stays within the model's 2× space bound.
    let modelled = model.component("run directories") + model.component("gecko buffers");
    assert!(
        emp.validity <= 2 * modelled.max(1),
        "empirical gecko RAM {} vs model {}",
        emp.validity,
        modelled
    );
}

#[test]
fn mixed_read_write_workload_accounts_read_amplification() {
    let g = geo();
    let mut ftl = build(BaselineKind::GeckoFtl, g);
    let logical = g.logical_pages();
    for lpn in 0..logical as u32 {
        ftl.write(Lpn(lpn), 1);
    }
    let snap = ftl.device().stats().clone();
    let gen = geckoftl::ftl_workloads::Mixed::new(9, Uniform::new(10, logical), 0.5, logical);
    drive(&mut ftl, gen, 4000);
    let d = ftl.device().stats().since(&snap);
    assert!(d.logical_reads > 1000);
    // Read misses fetch translation pages (read-amplification), and those
    // fetches are excluded from write-amplification.
    let fetches = d
        .counts(geckoftl::flash_sim::IoPurpose::TranslationFetch)
        .page_reads;
    assert!(fetches > 0, "cache misses must fetch translation pages");
    let wa = d.wa_breakdown(10.0);
    assert!(wa.total() < 10.0);
}
