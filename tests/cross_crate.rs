//! Workspace-level integration tests exercising the public facade: every
//! FTL built from `ftl_baselines` running workloads from `ftl_workloads` on
//! the `flash_sim` substrate, with results cross-checked between crates.

use gecko_bench::harness::{drive, OpDriver};
use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::ftl_baselines::{build, build_with, BaselineKind};
use geckoftl::ftl_models::{ram_model, recovery_model};
use geckoftl::ftl_workloads::{HotCold, Trace, Uniform, Zipfian};
use geckoftl::geckoftl_core::ftl::{FtlConfig, HostOpKind};
use geckoftl::geckoftl_core::recovery::{gecko_recover, RecoveryStep};
use std::collections::HashMap;

fn geo() -> Geometry {
    Geometry::tiny()
}

fn replay_with_oracle(kind: BaselineKind, trace: &Trace) {
    let mut ftl = build(kind, geo());
    let mut oracle: HashMap<u32, u64> = HashMap::new();
    let mut driver = OpDriver::new(0);
    for op in trace.iter() {
        let Some((host, done)) = driver.apply(&mut ftl, op, None).expect("in-range trace") else {
            continue;
        };
        match host.kind {
            HostOpKind::Write { version } => {
                oracle.insert(host.lpn.0, version);
            }
            HostOpKind::Read => assert_eq!(
                done.version,
                oracle.get(&host.lpn.0).copied(),
                "{}: read of L{}",
                kind.name(),
                host.lpn.0
            ),
            HostOpKind::Trim => {
                oracle.remove(&host.lpn.0);
            }
        }
    }
    for (&lpn, &want) in &oracle {
        assert_eq!(
            ftl.read(Lpn(lpn)),
            Some(want),
            "{}: final L{lpn}",
            kind.name()
        );
    }
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
    let mut oracle: HashMap<u32, u64> = HashMap::new();
    let logical = g.logical_pages();
    let mut driver = OpDriver::new(0);
    for op in Uniform::new(12, logical).take(4000) {
        let issued = driver.apply(&mut ftl, op, None).expect("in-range op");
        if let Some((host, _)) = issued {
            if let HostOpKind::Write { version } = host.kind {
                oracle.insert(host.lpn.0, version);
            }
        }
    }
    let cfg = ftl.config();
    let gecko_cfg = ftl.backend().gecko().expect("gecko").config();
    let dev = ftl.crash();
    let (mut rec, report) = gecko_recover(dev, cfg, gecko_cfg);
    assert!(report.total_secs() > 0.0);
    for (&lpn, &want) in &oracle {
        assert_eq!(rec.read(Lpn(lpn)), Some(want));
    }
}

/// GeckoRec step 6 against the analytical model's "LRU cache" component,
/// the paper's `K + 2·C` spare reads (`ftl_models::recovery_model`), at 18
/// crash instants of a uniform run (`K = C = 256`): measured never exceeds
/// the model. The engine orders the blocks by step 1's scan instead of `K`
/// probes, and stops at the checkpoint horizon the translation pages persist
/// (DESIGN.md invariant 15). Measured / model is 0.58 on the mean here (446
/// of 768 spare reads, ≈ 1.7·C); a fixed `2·C + 4·B` window reads 577 at
/// every instant (0.75), and so does the scan at the two instants where step
/// 4b reads no translation-page version to take the horizon from.
#[test]
fn dirty_entry_step_stays_within_the_recovery_model() {
    const C: usize = 256;
    let g = Geometry::new(256, 16, 256, 0.7);
    let cfg = FtlConfig {
        cache_entries: C,
        ..FtlConfig::geckoftl(&g)
    };
    let mut ftl = build_with(BaselineKind::GeckoFtl, g, cfg);
    let gecko_cfg = ftl.backend().gecko().expect("gecko").config();
    let model = recovery_model(BaselineKind::GeckoFtl, &g, C as u64)
        .components
        .into_iter()
        .find(|c| c.name == "LRU cache")
        .expect("the model prices the dirty entries")
        .spare_reads;
    let mut driver = OpDriver::new(0);
    let mut measured = Vec::new();
    for (i, op) in Uniform::new(15, g.logical_pages()).take(20_000).enumerate() {
        driver.apply(&mut ftl, op, None).expect("in-range op");
        if i >= 2_000 && i % 1_000 == 0 {
            let (_, report) = gecko_recover(ftl.device().clone(), cfg, gecko_cfg);
            let step6 = report
                .steps
                .iter()
                .find(|(s, _)| *s == RecoveryStep::DirtyEntries)
                .expect("step 6 ran")
                .1
                .spare_reads;
            assert!(
                step6 <= model,
                "op {i}: step 6 read {step6} spare areas, the model {model}"
            );
            measured.push(step6);
        }
    }
    let ratio = measured.iter().sum::<u64>() as f64 / measured.len() as f64 / model as f64;
    assert!(ratio < 0.7, "measured / model = {ratio:.3}");
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
