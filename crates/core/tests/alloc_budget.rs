//! Allocation budget of the eviction → synchronization → report → flush
//! path, of one merge, of the device's page store and of telemetry
//! recording: how many allocator calls each step may make once its reusable
//! storage is warm.
//!
//! A counting `#[global_allocator]` needs a test binary of its own, so no
//! other test pays for it. Calls (`alloc` and `realloc`; frees are not
//! counted) are tallied per thread, because the harness runs the tests of a
//! binary on parallel threads.
//!
//! Measured with this file at the parent of the commits that introduced it:
//! the range query made 4 calls (it collected into a fresh `Vec` grown
//! 4 → 32), the report batch 9 (`vec![Vec::new(); shards]`, four growing
//! sub-vectors, the `BTreeMap` nodes), one synchronization 6 (the 4 KB copy,
//! the `Arc`, `SyncOutcome::before_images` grown 4 → 32), the aborted
//! synchronization 5 and the no-op unmap 1 (each copied the 4 KB it then
//! threw away), and the steady-state window below 91 937 against 61 766 now.
//!
//! The page-store tests were measured the same way at the parent of the
//! packed store: `FlashDevice::new` of the benchmark geometry made 1 026
//! calls for 6.3 MB (one 6 KB page vector per block, every page written as
//! free) against 2 calls for 50 KB now, a block's later lives none, and a
//! second pending crash image 135 against the first one's 68 (it deep-copied
//! the image it replaced). A block now reserves its pages on its first
//! program, and a metadata block again in every life (its general-form
//! storage goes with the erase), which the steady-state window sees as
//! 50 181 calls against 49 056 — one per 16 metadata pages on its geometry,
//! inside the unchanged budget of 81 188.

use flash_sim::{
    BlockId, EraseFault, FaultPlan, FlashDevice, Geometry, IoOp, IoPurpose, Lpn, MetaKind, MetaTag,
    PageData, Ppn, SpanKind, SpareInfo, Telemetry,
};
use geckoftl_core::cache::{CacheEntry, MappingCache};
use geckoftl_core::ftl::{BlockManager, FtlConfig, FtlEngine, ValidityBackend};
use geckoftl_core::gecko::{GeckoConfig, LogGecko, ShardedGecko};
use geckoftl_core::translation::{SyncOutcome, TranslationTable};
use geckoftl_core::validity::{FlatMetaSink, ValidityStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without a
    /// destructor, so the allocator may touch it at any point of a thread's
    /// life.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` counts its whole new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// two thread-local counter bumps, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + new_size as u64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocator_calls<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let result = f();
    (result, CALLS.with(Cell::get) - before)
}

fn write_user_page(dev: &mut FlashDevice, block: BlockId, lpn: Lpn) {
    let info = SpareInfo::User {
        lpn,
        before: Some(Ppn(7)),
    };
    dev.write_page(
        block,
        PageData::User { lpn, version: 1 },
        info,
        IoPurpose::UserWrite,
    )
    .unwrap();
}

/// Program the rest of `block` with whole user pages.
fn fill_with_user_pages(dev: &mut FlashDevice, block: BlockId) {
    while !dev.block_is_full(block) {
        write_user_page(dev, block, Lpn(dev.written_pages(block)));
    }
}

#[test]
fn a_device_costs_nothing_per_page_until_programmed() {
    // The benchmark's geometry: 1 024 blocks × 128 pages.
    let geo = Geometry::new(1024, 128, 4096, 0.7).with_channels(4);
    let bytes_before = BYTES.with(Cell::get);
    let (mut dev, calls) = allocator_calls(|| FlashDevice::new(geo));
    let bytes = BYTES.with(Cell::get) - bytes_before;
    // Measured: 2 calls for 50 176 B — the block table (48 B a block) and
    // the bad-block table (1 B a block). Nothing per page: 0.4 B a page
    // where every page used to be written as free, 48 B each.
    assert!(
        calls <= geo.blocks as u64 + 8 && bytes <= 64 * geo.blocks as u64,
        "{calls} allocator calls and {bytes} B for {} blocks",
        geo.blocks
    );

    // A block's first life reserves its pages once, on the first program.
    let ((), calls) = allocator_calls(|| fill_with_user_pages(&mut dev, BlockId(5)));
    assert_eq!(calls, 1);
    // Every later life of a block of user pages reuses that storage.
    let ((), calls) = allocator_calls(|| {
        for _ in 0..3 {
            dev.erase_block(BlockId(5), IoPurpose::GcMigrateUser)
                .unwrap();
            fill_with_user_pages(&mut dev, BlockId(5));
        }
    });
    assert_eq!(calls, 0);
}

#[test]
fn one_life_of_a_metadata_block_allocates_at_most_twice() {
    let geo = Geometry::tiny();
    let mut dev = FlashDevice::new(geo);
    let payload = PageData::blob_of([0u8; 64]);
    let one_life = |dev: &mut FlashDevice, block: BlockId, user_pages_first: u32| {
        let ((), calls) = allocator_calls(|| {
            for i in 0..user_pages_first {
                write_user_page(dev, block, Lpn(i));
            }
            while !dev.block_is_full(block) {
                let info = SpareInfo::Meta {
                    kind: MetaKind::GeckoRun,
                    tag: MetaTag::Id(9),
                };
                dev.write_page(block, payload.clone(), info, IoPurpose::ValidityMerge)
                    .unwrap();
            }
            dev.erase_block(block, IoPurpose::ValidityGc).unwrap();
        });
        calls
    };
    // The general form's storage, reserved by the first metadata page.
    assert_eq!(one_life(&mut dev, BlockId(0), 0), 1);
    // Its erase dropped that storage, so the next life pays again — and
    // once more if user pages come first and are rewritten.
    assert_eq!(one_life(&mut dev, BlockId(0), 0), 1);
    assert_eq!(one_life(&mut dev, BlockId(0), 3), 2);
    // A recycled block of user pages turned metadata block: its packed
    // storage is freed, not reused.
    fill_with_user_pages(&mut dev, BlockId(1));
    dev.erase_block(BlockId(1), IoPurpose::GcMigrateUser)
        .unwrap();
    assert_eq!(one_life(&mut dev, BlockId(1), 0), 1);
}

#[test]
fn a_second_crash_image_costs_what_the_first_did() {
    let geo = Geometry::tiny();
    let mut dev = FlashDevice::new(geo);
    for b in 0..8 {
        fill_with_user_pages(&mut dev, BlockId(b));
    }
    dev.set_fault_plan(
        FaultPlan::new()
            .on_erase(0, EraseFault::Crash)
            .on_erase(1, EraseFault::Crash),
    );
    let mut crash_erase =
        |block| allocator_calls(|| dev.erase_block(BlockId(block), IoPurpose::GcMigrateUser)).1;
    let first = crash_erase(0);
    // The first image is still pending: the second fault replaces it
    // without copying it.
    let second = crash_erase(1);
    assert!(first >= 8, "an image copies every programmed block");
    assert!(
        second <= first,
        "first image {first} calls, second {second}"
    );
    let image = dev.take_crash_image().expect("the second fault's image");
    assert!(!image.crash_image_ready() && image.fault_plan().is_empty());
    assert_eq!(image.erase_count(BlockId(1)), 1);
}

/// docs/OBSERVABILITY.md's rules "zero overhead when disabled" and
/// "preallocated sink … never reallocated": recording costs no allocator
/// call either way, even once the ring wraps.
#[test]
fn telemetry_records_without_allocating() {
    let record = |t: &mut Telemetry| {
        for i in 0..10_000u32 {
            let start = f64::from(i) * 1_000.0;
            t.record_io(0, IoOp::PageWrite, 0, start, 1_000.0);
            t.record_span(SpanKind::HostWrite, i, start, start + 1_000.0);
        }
    };
    let mut t = Telemetry::default();
    let ((), calls) = allocator_calls(|| record(&mut t));
    assert_eq!(calls, 0, "a disabled telemetry must not allocate");
    assert_eq!(t.total_events(), 0);

    t.enable(64);
    let ((), calls) = allocator_calls(|| record(&mut t));
    assert_eq!(calls, 0, "the ring must be preallocated, never grown");
    assert_eq!(t.total_events(), 20_000);
    assert_eq!(t.dropped_events(), t.total_events() - 64);
}

#[test]
fn range_query_into_a_warm_vector_allocates_nothing() {
    let mut cache = MappingCache::new(64);
    for i in 0..40u32 {
        cache.insert(CacheEntry {
            dirty: i % 3 != 0,
            ..CacheEntry::clean(Lpn(i * 25), Ppn(i))
        });
    }
    let mut batch = Vec::new();
    cache.dirty_in_range(Lpn(0), Lpn(1024), &mut batch); // warm-up
    let warm = batch.len();
    assert!(warm > 16, "the range holds a real batch");

    let ((), calls) = allocator_calls(|| cache.dirty_in_range(Lpn(0), Lpn(1024), &mut batch));
    assert_eq!(batch.len(), warm);
    assert_eq!(calls, 0);
}

#[test]
fn report_batch_without_a_flush_allocates_nothing() {
    let geo = Geometry::tiny();
    let cfg = GeckoConfig {
        shards: 4,
        ..GeckoConfig::paper_default(&geo)
    };
    let mut dev = FlashDevice::new(geo);
    let mut sink = FlatMetaSink::new((32..64).map(BlockId).collect());
    let mut store = ShardedGecko::new(geo, cfg);
    // 20 pages of 20 blocks, five per shard; the warm-up batch of their
    // neighbours sizes every shard's buffer.
    let batch = |offset: u32| -> Vec<Ppn> {
        (0..20u32)
            .map(|b| Ppn(b * geo.pages_per_block + offset))
            .collect()
    };
    store.mark_invalid_batch(&mut dev, &mut sink, &batch(0));
    let ppns = batch(1);

    let ((), calls) = allocator_calls(|| store.mark_invalid_batch(&mut dev, &mut sink, &ppns));
    assert_eq!(store.stats().flushes, 0, "the batch must not trip a flush");
    assert_eq!(store.stats().buffer_inserts, 40);
    assert_eq!(calls, 0);
}

fn formatted_table() -> (FlashDevice, BlockManager, TranslationTable) {
    let geo = Geometry::tiny();
    let mut dev = FlashDevice::new(geo);
    let mut bm = BlockManager::new(geo);
    let mut tt = TranslationTable::new(geo);
    tt.format(&mut dev, &mut bm);
    (dev, bm, tt)
}

#[test]
fn synchronize_allocates_only_the_new_page_version() {
    let (mut dev, mut bm, mut tt) = formatted_table();
    let updates = |base: u32| -> Vec<(Lpn, Ppn)> {
        (0..20u32).map(|i| (Lpn(i * 7), Ppn(base + i))).collect()
    };
    let mut outcome = SyncOutcome::default();
    tt.synchronize_into(&mut dev, &mut bm, 0, &updates(100), &mut outcome); // warm-up
    let batch = updates(200);

    let ((), calls) =
        allocator_calls(|| tt.synchronize_into(&mut dev, &mut bm, 0, &batch, &mut outcome));
    assert_eq!(outcome.before_images.len(), 20);
    assert!(!outcome.aborted);
    // The new version's entries and the `Arc` they are stored behind.
    assert!(calls <= 2, "{calls} allocator calls");
}

#[test]
fn aborted_synchronize_and_no_op_unmap_copy_nothing() {
    let (mut dev, mut bm, mut tt) = formatted_table();
    let batch: Vec<(Lpn, Ppn)> = (0..20u32).map(|i| (Lpn(i * 7), Ppn(100 + i))).collect();
    let mut outcome = SyncOutcome::default();
    tt.synchronize_into(&mut dev, &mut bm, 0, &batch, &mut outcome);
    tt.synchronize_into(&mut dev, &mut bm, 0, &batch, &mut outcome); // warms `already_synced`
    assert!(outcome.aborted);
    let reads_before = dev.stats().counts(IoPurpose::TranslationSync).page_reads;

    // Every update equals flash (App. C.3.1): read, compare, abort.
    let ((), calls) =
        allocator_calls(|| tt.synchronize_into(&mut dev, &mut bm, 0, &batch, &mut outcome));
    assert!(outcome.aborted);
    assert_eq!(outcome.already_synced.len(), 20);
    assert_eq!(calls, 0, "an aborted synchronize must not copy the page");

    // Trimming a never-written page: read, see it unmapped, return.
    let (before, calls) = allocator_calls(|| tt.unmap(&mut dev, &mut bm, Lpn(3)));
    assert_eq!(before, None);
    assert_eq!(calls, 0, "a no-op unmap must not copy the page");

    let reads = dev.stats().counts(IoPurpose::TranslationSync).page_reads - reads_before;
    assert_eq!(reads, 2, "both no-op paths still pay their read");
}

#[test]
fn one_merge_allocates_per_page_not_per_entry() {
    // 512 reportable blocks (the upper half holds the run pages) at V = 31
    // entries per Gecko page: the deepest run grows to 17 pages.
    let geo = Geometry::new(1024, 16, 1 << 12, 0.7);
    let cfg = GeckoConfig {
        page_header_bytes: geo.page_bytes - 190,
        ..GeckoConfig::default()
    };
    assert_eq!(cfg.entries_per_page(&geo), 31);
    let mut dev = FlashDevice::new(geo);
    let mut sink = FlatMetaSink::new((512..1024).map(BlockId).collect());
    let mut gecko = LogGecko::new(geo, cfg);
    let merge_io = |dev: &FlashDevice| {
        let io = dev.stats().counts(IoPurpose::ValidityMerge);
        (io.page_reads, io.page_writes)
    };
    let mut x = 0x5EEDu64;
    // Keep the tree settled, report by report, until a flush plans the
    // merge to measure: one job of ≥ 4 participants and ≥ 16 input pages
    // whose install plans no follow-on.
    for _ in 0..200_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let page = (x >> 33) % (512 * geo.pages_per_block as u64);
        gecko.mark_invalid(&mut dev, &mut sink, Ppn(page as u32));
        if gecko.merge_jobs_pending() == 0 {
            continue;
        }
        let runs_before = gecko.runs_newest_first().count();
        let merges_before = gecko.stats.merges;
        let (reads_before, writes_before) = merge_io(&dev);
        let ((), calls) = allocator_calls(|| gecko.drain_merges(&mut dev, &mut sink));
        let participants = (runs_before + 1 - gecko.runs_newest_first().count()) as u64;
        let (reads, writes) = merge_io(&dev);
        let (input_pages, output_pages) = (reads - reads_before, writes - writes_before);
        if gecko.stats.merges != merges_before || participants < 4 || input_pages < 16 {
            continue;
        }
        // Two per output page (its entries, the `Arc` around its payload)
        // and, measured, seven per merge (the sort's scratch, the writer's
        // key ranges, directory and Bloom filter, the lineage in the
        // preamble and on the page, the postamble's page list) — 31 for the
        // 5 runs, 17 input and 12 output pages this finds. Nothing per
        // input page, participant or entry: at the parent the same merge
        // made 39, eight of them the unreserved output vector growing.
        let budget = 2 * output_pages + 10;
        assert!(
            calls <= budget,
            "{calls} allocator calls for a merge of {participants} runs, {input_pages} input \
             pages and {output_pages} output pages (budget {budget})"
        );
        return;
    }
    panic!("the report stream never planned a 4-participant merge of 16 pages");
}

/// Sequential read-ahead keeps its successors in one vector the engine owns:
/// once a pass has grown it, a miss that installs a window of clean entries
/// (evicting as many) and the hits that follow allocate nothing.
#[test]
fn steady_state_sequential_reads_allocate_nothing() {
    let geo = Geometry::tiny();
    let cfg = FtlConfig {
        cache_entries: 64,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = ValidityBackend::gecko_for(geo, GeckoConfig::paper_default(&geo));
    let mut engine = FtlEngine::format(geo, cfg, gecko);
    for lpn in 0..300 {
        engine.write(Lpn(lpn), lpn as u64);
    }
    engine.shutdown_clean();
    let pass = |engine: &mut FtlEngine| {
        for lpn in 0..300 {
            assert_eq!(engine.read(Lpn(lpn)), Some(lpn as u64));
        }
    };
    // Warm-up: the pass ends with L236..L299 cached, so the next one starts
    // cold and meets a full cache at every install.
    pass(&mut engine);

    let fetches = |e: &FtlEngine| {
        let stats = e.device().stats();
        stats.counts(IoPurpose::TranslationFetch).page_reads
    };
    let before = fetches(&engine);
    let ((), calls) = allocator_calls(|| pass(&mut engine));
    // Misses at reads 1, 2, 3, 6, 12, 24, 48 and 96 of the run, then — a
    // window is at most the 63 entries beside the demand one — at 160, 224
    // and 288.
    assert_eq!(fetches(&engine) - before, 11);
    assert_eq!(calls, 0);
}

/// Allocator calls allowed per flush, per merge page written and per
/// collection, on top of the two per synchronization. Each of those builds
/// things a flash page or a run must own — a page's entries and the `Arc`
/// around its payload, a run's directory, postamble and Bloom filter, a merge
/// job's read buffer, a collection's migration list — at a measured 6.0 calls
/// per event on this geometry. What the budget keeps out is a cost per
/// *report*: the ≈ 25 calls a synchronization used to make would put the
/// window at 1.13 × the budget.
const CALLS_PER_MAINTENANCE_EVENT: u64 = 8;

#[test]
fn steady_state_writes_allocate_per_maintenance_event_not_per_report() {
    // 256 blocks × 16 pages, 4 shards, V = 6 entries per Gecko page: syncs,
    // flushes, merges and collections all run thousands of times.
    let geo = Geometry::new(256, 16, 1 << 12, 0.7);
    let cfg = FtlConfig {
        cache_entries: 64,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko = ValidityBackend::gecko_for(
        geo,
        GeckoConfig {
            page_header_bytes: geo.page_bytes - 64,
            shards: 4,
            ..GeckoConfig::paper_default(&geo)
        },
    );
    let mut engine = FtlEngine::format(geo, cfg, gecko);
    let logical = engine.geometry().logical_pages();
    let mut x = 0x5EEDu64;
    let mut write = |engine: &mut FtlEngine, version: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        engine.write(Lpn(((x >> 33) % logical) as u32), version);
    };
    // Warm-up: two device overwrites, so GC, merges and every scratch
    // vector have reached their steady state.
    for v in 0..2 * geo.total_pages() {
        write(&mut engine, v);
    }

    let counters = engine.counters;
    let gecko_before = engine.backend().gecko_stats().expect("gecko backend");
    let merge_writes = |e: &FtlEngine| {
        e.device()
            .stats()
            .counts(IoPurpose::ValidityMerge)
            .page_writes
    };
    let merge_writes_before = merge_writes(&engine);
    let ((), calls) = allocator_calls(|| {
        for v in 0..20_000 {
            write(&mut engine, v);
        }
    });
    let syncs = engine.counters.syncs - counters.syncs;
    let collections = engine.counters.gc_operations - counters.gc_operations;
    let flushes = engine.backend().gecko_stats().unwrap().flushes - gecko_before.flushes;
    let merge_pages = merge_writes(&engine) - merge_writes_before;
    assert!(
        syncs > 1_000 && flushes > 500 && merge_pages > 500 && collections > 500,
        "the window must exercise every step: {syncs} syncs, {flushes} flushes, \
         {merge_pages} merge pages, {collections} collections"
    );
    let budget = 2 * syncs + CALLS_PER_MAINTENANCE_EVENT * (flushes + merge_pages + collections);
    assert!(
        calls <= budget,
        "{calls} allocator calls for {syncs} syncs, {flushes} flushes, {merge_pages} merge \
         pages and {collections} collections (budget {budget})"
    );
}
