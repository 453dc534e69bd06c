//! Quickstart: build GeckoFTL on a simulated flash device, write and read
//! some pages, survive a power failure, and inspect the costs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::geckoftl_core::ftl::FtlEngine;
use geckoftl::geckoftl_core::recovery::gecko_recover;

fn main() {
    // A small simulated device: 256 blocks × 128 pages × 4 KB = 128 MB,
    // with the paper's 70 % logical/physical ratio.
    let geo = Geometry::new(256, 128, 4096, 0.7);
    let mut ftl = FtlEngine::geckoftl(geo);
    println!(
        "device: {} blocks × {} pages × {} B  ({} logical pages exposed)",
        geo.blocks,
        geo.pages_per_block,
        geo.page_bytes,
        geo.logical_pages()
    );

    // Write every logical page once, then update a hot subset.
    for lpn in 0..geo.logical_pages() as u32 {
        ftl.write(Lpn(lpn), u64::from(lpn));
    }
    for round in 1..=50u64 {
        for lpn in 0..500u32 {
            ftl.write(Lpn(lpn), round * 1000 + u64::from(lpn));
        }
    }
    assert_eq!(ftl.read(Lpn(42)), Some(50 * 1000 + 42));
    println!(
        "after {} writes: {} GC operations, {} checkpoints, {} syncs",
        ftl.counters.writes,
        ftl.counters.gc_operations,
        ftl.counters.checkpoints,
        ftl.counters.syncs
    );

    // Integrated RAM, as the paper accounts it.
    let ram = ftl.ram_report();
    println!(
        "integrated RAM: GMD {} B + cache {} B + BVC {} B + gecko {} B = {} B",
        ram.gmd,
        ram.cache,
        ram.bvc,
        ram.validity,
        ram.total()
    );

    // Write-amplification decomposition (the paper's §5 metric).
    let wa = ftl.device().stats().wa_breakdown(10.0);
    println!(
        "write-amplification: user {:.3} + translation {:.3} + validity {:.3} = {:.3}",
        wa.user,
        wa.translation,
        wa.validity,
        wa.total()
    );

    // Pull the plug. All RAM state is gone; only flash survives.
    let cfg = ftl.config();
    let gecko_cfg = ftl.backend().gecko().expect("gecko").config();
    let dev = ftl.crash();
    let (mut recovered, report) = gecko_recover(dev, cfg, gecko_cfg);
    println!(
        "power failure → GeckoRec recovered in {:.1} simulated ms \
         ({} spare reads, {} page reads, {} cache entries recreated)",
        report.total_secs() * 1e3,
        report.total_spare_reads(),
        report.total_page_reads(),
        report.recovered_entries
    );

    // Data is intact.
    assert_eq!(recovered.read(Lpn(42)), Some(50 * 1000 + 42));
    assert_eq!(recovered.read(Lpn(499)), Some(50 * 1000 + 499));
    println!("all data verified after recovery ✔");
}
