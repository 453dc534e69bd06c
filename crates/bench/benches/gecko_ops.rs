//! Criterion micro-benchmarks of the core data structures: Logarithmic
//! Gecko updates/queries/merges, the mapping cache, and bitmaps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flash_sim::{BlockId, FlashDevice, Geometry, Ppn};
use geckoftl_core::cache::{CacheEntry, MappingCache};
use geckoftl_core::gecko::{Bitmap, GeckoConfig, LogGecko};
use geckoftl_core::validity::FlatMetaSink;

fn small_cfg(geo: &Geometry) -> GeckoConfig {
    GeckoConfig {
        page_header_bytes: geo.page_bytes - 256, // small pages → real merges
        ..GeckoConfig::paper_default(geo)
    }
}

fn bench_gecko_updates(c: &mut Criterion) {
    let geo = Geometry::small();
    c.bench_function("gecko_mark_invalid", |b| {
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((3000..4096).map(BlockId).collect());
        let mut gecko = LogGecko::new(geo, small_cfg(&geo));
        let mut x = 0u64;
        b.iter(|| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (3000 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
        });
    });
}

fn bench_gecko_query(c: &mut Criterion) {
    let geo = Geometry::small();
    // One pre-loaded structure serves the single query, the batched query
    // and the probe-every-run naive oracle.
    let mut dev = FlashDevice::new(geo);
    let mut sink = FlatMetaSink::new((3000..4096).map(BlockId).collect());
    let mut gecko = LogGecko::new(geo, small_cfg(&geo));
    let mut x = 7u64;
    for _ in 0..200_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let page = (x >> 33) % (3000 * geo.pages_per_block as u64);
        gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
    }
    c.bench_function("gecko_gc_query_fast", |b| {
        let mut blk = 0u32;
        b.iter(|| {
            blk = (blk + 1) % 3000;
            black_box(gecko.gc_query(&mut dev, BlockId(blk)));
        });
    });
    c.bench_function("gecko_gc_query_batch8", |b| {
        let mut blk = 0u32;
        b.iter(|| {
            let blocks: Vec<BlockId> = (0..8).map(|i| BlockId((blk + i * 311) % 3000)).collect();
            blk = (blk + 1) % 3000;
            black_box(gecko.gc_query_batch(&mut dev, &blocks));
        });
    });
    c.bench_function("gecko_gc_query_naive_oracle", |b| {
        let mut blk = 0u32;
        b.iter(|| {
            blk = (blk + 1) % 3000;
            black_box(gecko.gc_query_naive(&mut dev, BlockId(blk)));
        });
    });
}

fn bench_merge_pump(c: &mut Criterion) {
    // Steady-state incremental merging: updates stream in while the
    // scheduler is pumped with a bounded step per update — the engine's
    // piggyback pattern. Measures the CPU cost of the state machine
    // (planning, resumable read/fold/write, install), not simulated IO.
    c.bench_function("gecko_update_with_merge_pump", |b| {
        let geo = Geometry::small();
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((3000..4096).map(BlockId).collect());
        let cfg = GeckoConfig {
            sync_merge: false,
            ..small_cfg(&geo)
        };
        let mut gecko = LogGecko::new(geo, cfg);
        let mut x = 11u64;
        b.iter(|| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (3000 * geo.pages_per_block as u64);
            gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
            gecko.pump_merges(&mut dev, &mut sink, 4);
        });
    });
}

fn bench_cache_ops(c: &mut Criterion) {
    c.bench_function("cache_insert_evict", |b| {
        let mut cache = MappingCache::new(4096);
        let mut lpn = 0u32;
        b.iter(|| {
            if cache.is_full() {
                cache.pop_lru();
            }
            cache.insert(CacheEntry::clean(flash_sim::Lpn(lpn), Ppn(lpn)));
            lpn = lpn.wrapping_add(1);
        });
    });
    c.bench_function("cache_lookup_promote", |b| {
        let mut cache = MappingCache::new(4096);
        for i in 0..4096u32 {
            cache.insert(CacheEntry::clean(flash_sim::Lpn(i), Ppn(i)));
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 97) % 4096;
            black_box(cache.lookup(flash_sim::Lpn(i)));
            cache.promote(flash_sim::Lpn(i));
        });
    });
}

fn bench_bitmap(c: &mut Criterion) {
    c.bench_function("bitmap_or_128", |b| {
        let mut a = Bitmap::new(128);
        let mut other = Bitmap::new(128);
        for i in (0..128).step_by(3) {
            other.set(i);
        }
        b.iter(|| {
            a.or_assign(black_box(&other));
        });
    });
}

fn bench_translation_sync(c: &mut Criterion) {
    use geckoftl_core::ftl::BlockManager;
    use geckoftl_core::translation::TranslationTable;
    let geo = Geometry::small();
    let mut dev = FlashDevice::new(geo);
    let mut bm = BlockManager::new(geo);
    let mut tt = TranslationTable::new(geo);
    tt.format(&mut dev, &mut bm);
    c.bench_function("translation_sync_8_updates", |b| {
        let mut x = 0u32;
        b.iter(|| {
            // 8 dirty entries of one translation page, like a typical batch.
            let updates: Vec<(flash_sim::Lpn, Ppn)> = (0..8)
                .map(|i| {
                    (
                        flash_sim::Lpn(i * 100),
                        Ppn(x.wrapping_add(i) % 100_000 + 1),
                    )
                })
                .collect();
            x = x.wrapping_add(17);
            black_box(tt.synchronize(&mut dev, &mut bm, 0, &updates));
        });
    });
}

fn bench_pvl(c: &mut Criterion) {
    use ftl_baselines::PvlStore;
    use geckoftl_core::validity::ValidityStore;
    let geo = Geometry::small();
    c.bench_function("pvl_mark_invalid", |b| {
        let mut dev = FlashDevice::new(geo);
        let mut sink = FlatMetaSink::new((3000..4096).map(BlockId).collect());
        let mut pvl = PvlStore::new(geo);
        let mut x = 0u64;
        let mut i = 0u64;
        b.iter(|| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % (3000 * geo.pages_per_block as u64);
            pvl.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
            // Periodic erases keep entries expirable, as a real GC would.
            i += 1;
            if i.is_multiple_of(64) {
                pvl.note_erase(&mut dev, &mut sink, BlockId(((x >> 20) % 3000) as u32));
            }
        });
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_gecko_updates, bench_gecko_query, bench_merge_pump, bench_cache_ops,
        bench_bitmap, bench_translation_sync, bench_pvl
}
criterion_main!(benches);
