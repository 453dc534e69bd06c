//! Power-failure drill: crash GeckoFTL at random points in a write-heavy
//! workload, run GeckoRec, and verify that not a single acknowledged write
//! is lost — repeatedly, like a durability torture test would.
//!
//! ```text
//! cargo run --release --example power_failure
//! ```

use gecko_bench::harness::OpDriver;
use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::ftl_workloads::Uniform;
use geckoftl::geckoftl_core::ftl::{FtlEngine, HostOpKind};
use geckoftl::geckoftl_core::recovery::gecko_recover;
use std::collections::HashMap;

fn main() {
    let geo = Geometry::new(256, 64, 4096, 0.7);
    let logical = geo.logical_pages();
    let mut ftl = FtlEngine::geckoftl(geo);
    let mut oracle: HashMap<u32, u64> = HashMap::new();
    let mut driver = OpDriver::new(0);
    let mut gen = Uniform::new(0xC0FFEE, logical);

    for round in 1..=6u32 {
        // Crash later and later into the workload each round.
        let ops = 2_000 * round as u64;
        for op in (&mut gen).take(ops as usize) {
            let issued = driver.apply(&mut ftl, op, None).expect("in-range op");
            if let Some((host, _)) = issued {
                if let HostOpKind::Write { version } = host.kind {
                    oracle.insert(host.lpn.0, version);
                }
            }
        }

        let cfg = ftl.config();
        let gecko_cfg = ftl.backend().gecko().expect("gecko").config();
        let dev = ftl.crash(); // ← the plug is pulled here
        let (recovered, report) = gecko_recover(dev, cfg, gecko_cfg);
        ftl = recovered;

        // Verify every acknowledged write.
        let mut checked = 0u64;
        for (&lpn, &want) in &oracle {
            assert_eq!(
                ftl.read(Lpn(lpn)),
                Some(want),
                "round {round}: lost write to L{lpn}"
            );
            checked += 1;
        }
        println!(
            "round {round}: crashed after {ops} ops → recovered in {:.1} sim-ms \
             ({} entries, {} invalidations, {} erase markers rebuilt); {checked} pages verified ✔",
            report.total_secs() * 1e3,
            report.recovered_entries,
            report.recovered_invalidations,
            report.recovered_erases,
        );
    }
    println!("\nsurvived {} crashes with zero data loss", 6);
}
