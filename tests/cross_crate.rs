//! Workspace-level integration tests exercising the public facade: every
//! FTL built from `ftl_baselines` running workloads from `ftl_workloads` on
//! the `flash_sim` substrate, with results cross-checked between crates.

use gecko_bench::harness::{drive, OpDriver};
use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::ftl_baselines::{build, BaselineKind};
use geckoftl::ftl_models::ram_model;
use geckoftl::ftl_workloads::{HotCold, Trace, Uniform, Zipfian};
use geckoftl::geckoftl_core::ftl::HostOpKind;
use geckoftl::geckoftl_core::recovery::gecko_recover;
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
