//! A miniature database page store on top of GeckoFTL — the kind of
//! "very large database application" the paper's introduction motivates.
//!
//! A fixed-size table of 4 KB database pages is mapped 1:1 onto logical
//! flash pages; a buffer-pool-like writer dirties pages with a skewed
//! (zipfian) access pattern and flushes them through the FTL. The demo
//! compares the flash-level write-amplification GeckoFTL and µ-FTL induce
//! for the same database workload.
//!
//! ```text
//! cargo run --release --example kv_store
//! ```

use gecko_bench::harness::OpDriver;
use geckoftl::flash_sim::{Geometry, Lpn};
use geckoftl::ftl_baselines::{build, BaselineKind};
use geckoftl::ftl_workloads::Zipfian;

/// A trivial page-granular "database": page id → record count, persisted
/// through an FTL.
struct PageStore {
    ftl: geckoftl::geckoftl_core::ftl::FtlEngine,
    commits: u64,
}

impl PageStore {
    fn new(kind: BaselineKind, geo: Geometry) -> Self {
        PageStore {
            ftl: build(kind, geo),
            commits: 0,
        }
    }

    /// "Commit" a database page: encode its new version and write it.
    fn commit_page(&mut self, page_id: u32, row_count: u64) {
        self.commits += 1;
        // Version tag doubles as the page's content checksum here.
        self.ftl.write(Lpn(page_id), row_count);
    }

    /// Point lookup of a page's stored version.
    fn read_page(&mut self, page_id: u32) -> Option<u64> {
        self.ftl.read(Lpn(page_id))
    }
}

fn main() {
    let geo = Geometry::new(512, 128, 4096, 0.7);
    let table_pages = geo.logical_pages() as u32;
    println!(
        "database: {table_pages} pages of 4 KB ({} MB table)",
        (table_pages as u64 * 4096) >> 20
    );

    for kind in [BaselineKind::GeckoFtl, BaselineKind::MuFtl] {
        let mut store = PageStore::new(kind, geo);

        // Load phase: populate the whole table.
        for p in 0..table_pages {
            store.commit_page(p, 100);
        }

        // OLTP-ish phase: zipfian updates (hot pages commit constantly),
        // interleaved with lookups.
        // (The driver stamps each commit with the next row version.)
        let mut rows = OpDriver::new(101);
        let snap = store.ftl.device().stats().clone();
        for op in Zipfian::new(2024, table_pages as u64, 0.9).take(100_000) {
            let issued = rows.apply(&mut store.ftl, op, None).expect("page in range");
            let Some((commit, _)) = issued else { continue };
            store.commits += 1;
            if rows.version.is_multiple_of(64) {
                let _ = store.read_page(commit.lpn.0);
            }
        }
        let delta = store.ftl.device().stats().since(&snap);
        let wa = delta.wa_breakdown(10.0);
        let us = delta.total_busy_us();
        println!(
            "{:>9}: {} commits | WA user {:.2} translation {:.2} validity {:.2} → total {:.2} | {:.2} simulated s",
            kind.name(),
            store.commits,
            wa.user,
            wa.translation,
            wa.validity,
            wa.total(),
            us / 1e6,
        );
    }
    println!("\nLower validity WA means more device lifetime for the same database workload.");
}
