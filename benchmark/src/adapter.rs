//! The only file of the benchmark that names repo APIs.
//!
//! Everything else in this crate talks to the program through the types
//! below, so the set of items a later PR must keep compiling is exactly what
//! this file imports (listed in `README.md` as the benchmark's API contract).

use geckoftl::flash_sim::{
    BlockId, FlashDevice, Geometry, IoPurpose, LatencyModel, Lpn, PageData, Ppn, SpareInfo,
    WaCategory,
};
use geckoftl::ftl_workloads::{BurstyDiurnal, Mixed, Scan, TrimWave, Uniform, WorkloadOp, Zipfian};
use geckoftl::geckoftl_core::cache::{CacheEntry, MappingCache};
use geckoftl::geckoftl_core::ftl::{
    BlockGroup, BlockManager, FtlConfig, FtlEngine, ValidityBackend,
};
use geckoftl::geckoftl_core::gecko::analysis::GeckoCostModel;
use geckoftl::geckoftl_core::gecko::GeckoConfig;
use geckoftl::geckoftl_core::recovery::{gecko_recover, RecoveryStep};
use geckoftl::geckoftl_core::translation::TranslationTable;
use geckoftl::geckoftl_core::validity::FlatMetaSink;
use std::hint::black_box;
use std::time::Instant;

pub use geckoftl::flash_sim::telemetry::{parse_json, Json};

/// The device every workload runs on: 1024 blocks × 128 pages × 4 KB
/// (512 MB), R = 0.7, four channels.
fn geometry() -> Geometry {
    Geometry::new(1024, 128, 4096, 0.7).with_channels(4)
}

/// Logical pages of the common device (91 750).
pub fn logical_pages() -> u32 {
    geometry().logical_pages() as u32
}

/// What changes per workload in the engine's configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpec {
    /// `C`, the mapping-cache capacity in entries.
    pub cache_entries: usize,
    /// Shrink the usable Gecko page to 256 bytes (V ≈ 31 entries/page), so
    /// the 4 × 1024-entry trees grow to paper-scale depth.
    pub deep_tree: bool,
}

fn gecko_config(spec: &EngineSpec) -> GeckoConfig {
    let geo = geometry();
    let mut cfg = GeckoConfig::paper_default(&geo);
    cfg.shards = 4;
    if spec.deep_tree {
        cfg.page_header_bytes = geo.page_bytes - 256;
    }
    cfg
}

/// One host-level operation of a workload stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Write(u32),
    Read(u32),
    Trim(u32),
    /// `n` idle ticks the host donates to background maintenance.
    Idle(u32),
}

pub type OpStream = Box<dyn Iterator<Item = Op>>;

fn boxed(gen: impl Iterator<Item = WorkloadOp> + 'static) -> OpStream {
    Box::new(gen.map(|op| match op {
        WorkloadOp::Write(l) => Op::Write(l.0),
        WorkloadOp::Read(l) => Op::Read(l.0),
        WorkloadOp::Trim(l) => Op::Trim(l.0),
        WorkloadOp::Idle(n) => Op::Idle(n),
    }))
}

/// `Mixed(Uniform)`: uniform page updates with `read_ratio` uniform reads.
pub fn uniform_mixed(seed: u64, read_ratio: f64) -> OpStream {
    let n = logical_pages() as u64;
    boxed(Mixed::new(
        seed ^ 0x5eed,
        Uniform::new(seed, n),
        read_ratio,
        n,
    ))
}

/// `Zipfian(theta)` page updates (LPN = popularity rank).
pub fn zipfian_writes(seed: u64, theta: f64) -> OpStream {
    boxed(Zipfian::new(seed, logical_pages() as u64, theta))
}

/// `Scan`: sequential read sweeps of `window` pages.
pub fn scan_reads(window: u32) -> OpStream {
    boxed(Scan::new(logical_pages() as u64, window))
}

/// `BurstyDiurnal`: busy phases (skewed writes + reads) and idle gaps.
pub fn bursty_diurnal(seed: u64, busy_ops: u32, quiet_ticks: u32) -> OpStream {
    boxed(BurstyDiurnal::new(
        seed,
        logical_pages() as u64,
        busy_ops,
        quiet_ticks,
    ))
}

/// `TrimWave`: write a region sequentially, then discard it wholesale.
pub fn trim_wave(seed: u64, region: u32) -> OpStream {
    boxed(TrimWave::new(seed, logical_pages() as u64, region))
}

/// Number of IO purposes the device accounts separately.
pub const PURPOSES: usize = IoPurpose::ALL.len();

/// The repo module an IO purpose is charged to in the per-layer ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Ftl,
    Gc,
    Translation,
    Gecko,
    Recovery,
    /// Format and fill IO; never seen in a measured phase.
    Other,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Ftl,
        Layer::Gc,
        Layer::Translation,
        Layer::Gecko,
        Layer::Recovery,
        Layer::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Ftl => "ftl",
            Layer::Gc => "gc",
            Layer::Translation => "translation",
            Layer::Gecko => "gecko",
            Layer::Recovery => "recovery",
            Layer::Other => "other",
        }
    }
}

/// Layer of the purpose at position `i` of the snapshot arrays.
pub fn purpose_layer(i: usize) -> Layer {
    match IoPurpose::ALL[i] {
        IoPurpose::UserWrite | IoPurpose::UserRead => Layer::Ftl,
        IoPurpose::GcMigrateUser => Layer::Gc,
        IoPurpose::TranslationSync | IoPurpose::TranslationFetch | IoPurpose::TranslationGc => {
            Layer::Translation
        }
        IoPurpose::ValidityUpdate
        | IoPurpose::ValidityQuery
        | IoPurpose::ValidityMerge
        | IoPurpose::ValidityGc => Layer::Gecko,
        IoPurpose::Recovery => Layer::Recovery,
        IoPurpose::TranslationInit | IoPurpose::WearLevel | IoPurpose::Fill => Layer::Other,
    }
}

/// Label of the purpose at position `i` of the snapshot arrays.
pub fn purpose_label(i: usize) -> &'static str {
    IoPurpose::ALL[i].label()
}

/// Position in the snapshot arrays of the purpose labelled `label`.
pub fn purpose_index(label: &str) -> usize {
    (0..PURPOSES)
        .find(|&i| purpose_label(i) == label)
        .unwrap_or_else(|| panic!("no IO purpose is labelled {label}"))
}

/// IO charged to one purpose.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Io {
    pub page_reads: u64,
    pub page_writes: u64,
    pub spare_reads: u64,
    pub erases: u64,
    pub busy_us: f64,
}

impl Io {
    pub fn events(&self) -> u64 {
        self.page_reads + self.page_writes + self.spare_reads + self.erases
    }
}

impl std::ops::AddAssign for Io {
    fn add_assign(&mut self, o: Io) {
        self.page_reads += o.page_reads;
        self.page_writes += o.page_writes;
        self.spare_reads += o.spare_reads;
        self.erases += o.erases;
        self.busy_us += o.busy_us;
    }
}

impl std::ops::SubAssign for Io {
    fn sub_assign(&mut self, o: Io) {
        self.page_reads -= o.page_reads;
        self.page_writes -= o.page_writes;
        self.spare_reads -= o.spare_reads;
        self.erases -= o.erases;
        self.busy_us -= o.busy_us;
    }
}

/// Every public counter of the engine at one instant, or (after
/// [`Snapshot::since`]) its change over an interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub sim_us: f64,
    pub io: [Io; PURPOSES],
    pub logical_writes: u64,
    pub writes: u64,
    pub reads: u64,
    pub trims: u64,
    pub syncs: u64,
    pub syncs_aborted: u64,
    pub checkpoints: u64,
    pub gc_operations: u64,
    pub gc_migrations: u64,
    pub gc_uip_skips: u64,
    pub buffer_inserts: u64,
    pub flushes: u64,
    pub merges: u64,
    pub queries: u64,
    pub bloom_skips: u64,
    pub fence_probes: u64,
    pub merge_pages_stepped: u64,
    pub merge_stall_drains: u64,
}

/// Write-amplification by the paper's three categories (§5).
#[derive(Clone, Copy, Debug)]
pub struct Wa {
    pub user: f64,
    pub translation: f64,
    pub validity: f64,
}

impl Wa {
    pub fn total(&self) -> f64 {
        self.user + self.translation + self.validity
    }
}

impl Snapshot {
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = *self;
        d.sim_us -= earlier.sim_us;
        for (a, b) in d.io.iter_mut().zip(earlier.io) {
            *a -= b;
        }
        d.logical_writes -= earlier.logical_writes;
        d.writes -= earlier.writes;
        d.reads -= earlier.reads;
        d.trims -= earlier.trims;
        d.syncs -= earlier.syncs;
        d.syncs_aborted -= earlier.syncs_aborted;
        d.checkpoints -= earlier.checkpoints;
        d.gc_operations -= earlier.gc_operations;
        d.gc_migrations -= earlier.gc_migrations;
        d.gc_uip_skips -= earlier.gc_uip_skips;
        d.buffer_inserts -= earlier.buffer_inserts;
        d.flushes -= earlier.flushes;
        d.merges -= earlier.merges;
        d.queries -= earlier.queries;
        d.bloom_skips -= earlier.bloom_skips;
        d.fence_probes -= earlier.fence_probes;
        d.merge_pages_stepped -= earlier.merge_pages_stepped;
        d.merge_stall_drains -= earlier.merge_stall_drains;
        d
    }

    /// IO summed over the purposes of one layer.
    pub fn layer_io(&self, layer: Layer) -> Io {
        let mut total = Io::default();
        for (i, io) in self.io.iter().enumerate() {
            if purpose_layer(i) == layer {
                total += *io;
            }
        }
        total
    }

    /// IO summed over all purposes.
    pub fn total_io(&self) -> Io {
        let mut total = Io::default();
        for io in self.io {
            total += io;
        }
        total
    }

    /// IO of one purpose, by its label (`"validity_query"`, ...).
    pub fn io_of(&self, label: &str) -> Io {
        self.io[purpose_index(label)]
    }

    /// The paper's write-amplification over this interval:
    /// (internal writes + internal reads / δ) ÷ logical writes, δ = 10.
    pub fn wa(&self) -> Wa {
        let delta = LatencyModel::paper().delta();
        let denom = self.logical_writes.max(1) as f64;
        let mut wa = Wa {
            user: 0.0,
            translation: 0.0,
            validity: 0.0,
        };
        for (io, p) in self.io.iter().zip(IoPurpose::ALL) {
            let share = (io.page_writes as f64 + io.page_reads as f64 / delta) / denom;
            match p.wa_category() {
                Some(WaCategory::User) => wa.user += share,
                Some(WaCategory::Translation) => wa.translation += share,
                Some(WaCategory::Validity) => wa.validity += share,
                None => {}
            }
        }
        wa
    }
}

/// The paper's integrated-RAM accounting, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ram {
    pub gmd: u64,
    pub cache: u64,
    pub bvc: u64,
    pub validity: u64,
    pub total: u64,
}

/// The engine under test.
pub struct Engine {
    inner: FtlEngine,
}

impl Engine {
    /// Format a fresh device: `FtlConfig::geckoftl` defaults (metadata-aware
    /// GC, checkpoint-deferred recovery, QoS off), `GeckoConfig::paper_default`
    /// with four shards, incremental merges, fast query path.
    pub fn format(spec: &EngineSpec) -> Engine {
        let geo = geometry();
        let mut cfg = FtlConfig::geckoftl(&geo);
        cfg.cache_entries = spec.cache_entries;
        let backend = ValidityBackend::gecko_for(geo, gecko_config(spec));
        Engine {
            inner: FtlEngine::format(geo, cfg, backend),
        }
    }

    #[inline]
    pub fn write(&mut self, lpn: u32, version: u64) {
        self.inner.write(Lpn(lpn), version);
    }

    #[inline]
    pub fn read(&mut self, lpn: u32) -> Option<u64> {
        self.inner.read(Lpn(lpn))
    }

    #[inline]
    pub fn trim(&mut self, lpn: u32) -> bool {
        self.inner.trim(Lpn(lpn))
    }

    #[inline]
    pub fn idle(&mut self, ticks: u32) {
        for _ in 0..ticks {
            self.inner.idle_tick();
        }
    }

    /// The simulated clock, in µs since format.
    #[inline]
    pub fn sim_us(&self) -> f64 {
        self.inner.device().clock().now_us()
    }

    pub fn snapshot(&self) -> Snapshot {
        let stats = self.inner.device().stats();
        let mut io = [Io::default(); PURPOSES];
        for (slot, p) in io.iter_mut().zip(IoPurpose::ALL) {
            let c = stats.counts(p);
            *slot = Io {
                page_reads: c.page_reads,
                page_writes: c.page_writes,
                spare_reads: c.spare_reads,
                erases: c.erases,
                busy_us: stats.busy_us(p),
            };
        }
        let c = self.inner.counters;
        let g = self
            .inner
            .backend()
            .gecko_stats()
            .expect("the benchmark runs a Gecko backend");
        Snapshot {
            sim_us: self.sim_us(),
            io,
            logical_writes: stats.logical_writes,
            writes: c.writes,
            reads: c.reads,
            trims: c.trims,
            syncs: c.syncs,
            syncs_aborted: c.syncs_aborted,
            checkpoints: c.checkpoints,
            gc_operations: c.gc_operations,
            gc_migrations: c.gc_migrations,
            gc_uip_skips: c.gc_uip_skips,
            buffer_inserts: g.buffer_inserts,
            flushes: g.flushes,
            merges: g.merges,
            queries: g.queries,
            bloom_skips: g.bloom_skips,
            fence_probes: g.fence_probes,
            merge_pages_stepped: g.merge_pages_stepped,
            merge_stall_drains: g.merge_stall_drains,
        }
    }

    pub fn ram(&self) -> Ram {
        let r = self.inner.ram_report();
        Ram {
            gmd: r.gmd,
            cache: r.cache,
            bvc: r.bvc,
            validity: r.validity,
            total: r.total(),
        }
    }

    /// Whether `lpn` is in the mapping cache (read-only probe).
    #[inline]
    pub fn cache_holds(&self, lpn: u32) -> bool {
        self.inner.cache().lookup(Lpn(lpn)).is_some()
    }

    pub fn cache_dirty_fraction(&self) -> f64 {
        let c = self.inner.cache();
        c.dirty_count() as f64 / c.capacity() as f64
    }

    pub fn free_blocks(&self) -> usize {
        self.inner.block_manager().free_blocks()
    }

    pub fn merge_backlog_pages(&self) -> u64 {
        self.inner.backend().merge_backlog_pages()
    }

    /// Host ns of one `pick_victims(device, 8, user blocks)` on the live
    /// state (`&self`: it changes nothing).
    pub fn time_pick_victims(&self) -> u64 {
        let t = Instant::now();
        black_box(
            self.inner
                .block_manager()
                .pick_victims(self.inner.device(), 8, |g| g == BlockGroup::User),
        );
        t.elapsed().as_nanos() as u64
    }

    pub fn enable_telemetry(&mut self, ring_capacity: usize) {
        self.inner.telemetry_mut().enable(ring_capacity);
    }

    pub fn telemetry_dropped(&self) -> u64 {
        self.inner.telemetry().dropped_events()
    }

    /// What a power failure at this instant leaves behind: RAM state is
    /// lost, the flash image survives. A copy, so the engine carries on.
    pub fn crash_image(&self) -> CrashImage {
        CrashImage {
            dev: self.inner.device().clone(),
            cfg: self.inner.config(),
            gecko: self
                .inner
                .backend()
                .gecko_config()
                .expect("the benchmark runs a Gecko backend"),
        }
    }
}

/// Analytical validity write-amplification of a configuration
/// (`gecko::analysis`), given the measured GC operations per logical write.
pub fn model_validity_wa(spec: &EngineSpec, gc_per_write: f64) -> f64 {
    let model = GeckoCostModel {
        cfg: gecko_config(spec),
        geo: geometry(),
    };
    model.validity_wa(LatencyModel::paper().delta(), gc_per_write)
}

/// What survives a power failure.
pub struct CrashImage {
    dev: FlashDevice,
    cfg: FtlConfig,
    gecko: GeckoConfig,
}

/// Cost of one GeckoRec run.
#[derive(Clone, Debug)]
pub struct RecoveryCost {
    pub total_ms: f64,
    /// `(step, simulated ms)` in execution order; steps are named `bid`,
    /// `gmd`, `run_directories`, `buffer`, `bvc`, `dirty_entries`.
    pub steps: Vec<(&'static str, f64)>,
    pub spare_reads: u64,
    pub page_reads: u64,
    pub recovered_entries: u64,
}

impl RecoveryCost {
    pub fn step_ms(&self, name: &str) -> f64 {
        self.steps
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ms)| ms)
            .sum()
    }
}

impl CrashImage {
    /// Run GeckoRec on the image.
    pub fn recover(self) -> (Engine, RecoveryCost) {
        let (inner, report) = gecko_recover(self.dev, self.cfg, self.gecko);
        let steps = report
            .steps
            .iter()
            .map(|(step, cost)| {
                let name = match step {
                    RecoveryStep::Bid => "bid",
                    RecoveryStep::Gmd => "gmd",
                    RecoveryStep::RunDirectories => "run_directories",
                    RecoveryStep::Buffer => "buffer",
                    RecoveryStep::Bvc => "bvc",
                    RecoveryStep::DirtyEntries => "dirty_entries",
                };
                (name, cost.sim_us / 1e3)
            })
            .collect();
        let cost = RecoveryCost {
            total_ms: report.total_secs() * 1e3,
            steps,
            spare_reads: report.total_spare_reads(),
            page_reads: report.total_page_reads(),
            recovered_entries: report.recovered_entries as u64,
        };
        (Engine { inner }, cost)
    }
}

// ---------------------------------------------------------------------------
// Layer drives: host ns per call of each layer's public functions, timed on a
// standalone instance built with the workload's configuration and fed the
// workload's own op list.
// ---------------------------------------------------------------------------

fn ns_per(t: Instant, calls: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Host time of individually timed calls.
#[derive(Default)]
struct CallTimer {
    ns: u64,
    max_ns: u64,
    calls: u64,
}

impl CallTimer {
    fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let result = black_box(call());
        let ns = t.elapsed().as_nanos() as u64;
        self.ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.calls += 1;
        result
    }

    fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

pub struct CacheDrive {
    pub access_ns: f64,
    pub evictions_per_kop: f64,
}

/// A standalone `MappingCache` fed the op list's LPNs through
/// `lookup`/`promote`/`insert`/`pop_lru` (`remove` for trims).
pub fn drive_cache(spec: &EngineSpec, ops: &[Op]) -> CacheDrive {
    let mut cache = MappingCache::new(spec.cache_entries);
    let (mut accesses, mut evictions) = (0u64, 0u64);
    let t = Instant::now();
    for op in ops {
        let lpn = match *op {
            Op::Write(l) | Op::Read(l) => Lpn(l),
            Op::Trim(l) => {
                black_box(cache.remove(Lpn(l)));
                accesses += 1;
                continue;
            }
            Op::Idle(_) => continue,
        };
        accesses += 1;
        if cache.lookup(lpn).is_some() {
            cache.promote(lpn);
        } else {
            if cache.is_full() {
                black_box(cache.pop_lru());
                evictions += 1;
            }
            cache.insert(CacheEntry::clean(lpn, Ppn(lpn.0)));
        }
    }
    CacheDrive {
        access_ns: ns_per(t, accesses),
        evictions_per_kop: evictions as f64 * 1e3 / accesses.max(1) as f64,
    }
}

pub struct TranslationDrive {
    pub lookup_ns: f64,
    pub sync_ns: f64,
}

/// A standalone `TranslationTable` on its own device and block manager:
/// `lookup` of every LPN in the list, then one single-entry `synchronize`
/// per written LPN (at most `max_syncs`).
pub fn drive_translation(ops: &[Op], max_syncs: usize) -> TranslationDrive {
    let geo = geometry();
    let mut dev = FlashDevice::new(geo);
    let mut bm = BlockManager::new(geo);
    // As under the metadata-aware policy the engine runs: a translation
    // block is erased once every page in it is obsolete.
    bm.erase_empty_metadata = true;
    let mut tt = TranslationTable::new(geo);
    tt.format(&mut dev, &mut bm);

    let mut lookups = 0u64;
    let t = Instant::now();
    for op in ops {
        if let Op::Write(l) | Op::Read(l) | Op::Trim(l) = *op {
            black_box(tt.lookup(&mut dev, Lpn(l), IoPurpose::TranslationFetch));
            lookups += 1;
        }
    }
    let lookup_ns = ns_per(t, lookups);

    let total_pages = geo.total_pages() as u32;
    let mut syncs = 0u64;
    let t = Instant::now();
    for op in ops {
        if let Op::Write(l) = *op {
            // A fresh address each time, so no sync is aborted as a no-op.
            let ppn = Ppn(syncs as u32 % total_pages);
            let tpage = tt.tpage_of(Lpn(l));
            black_box(tt.synchronize(&mut dev, &mut bm, tpage, &[(Lpn(l), ppn)]));
            syncs += 1;
            if syncs as usize == max_syncs {
                break;
            }
        }
    }
    TranslationDrive {
        lookup_ns,
        sync_ns: ns_per(t, syncs),
    }
}

pub struct GeckoDrive {
    pub mark_invalid_mean_ns: f64,
    pub mark_invalid_max_ns: f64,
    pub pump_merges_ns: f64,
    pub gc_query_ns: f64,
    pub gc_query_batch8_ns: f64,
    pub note_erase_ns: f64,
    pub reads_per_query: f64,
}

/// A standalone validity store (`ValidityBackend::gecko_for(..).store()`)
/// writing through a `FlatMetaSink`. Before-images come from a shadow
/// append-only allocator over the op list, so keys follow the workload: each
/// write takes the next page of the user region and reports the page it
/// supersedes; when the allocator wraps onto a used block, that block is
/// queried, erased, and whatever still lived there is forgotten. The shadow
/// starts as the set-up's sequential fill leaves the device.
pub fn drive_gecko(spec: &EngineSpec, ops: &[Op]) -> GeckoDrive {
    const USER_BLOCKS: u32 = 896;
    let geo = geometry();
    let cfg = gecko_config(spec);
    let mut dev = FlashDevice::new(geo);
    let mut sink = FlatMetaSink::new((USER_BLOCKS..geo.blocks).map(BlockId).collect());
    let mut backend = ValidityBackend::gecko_for(geo, cfg);
    let per_block = geo.pages_per_block;
    // As after the set-up's sequential fill: page `l` holds logical page `l`.
    let logical = logical_pages();
    let mut map: Vec<Option<u32>> = (0..logical).map(Some).collect();
    let mut owner: Vec<Option<u32>> = (0..USER_BLOCKS * per_block)
        .map(|p| (p < logical).then_some(p))
        .collect();
    let mut next = logical.next_multiple_of(per_block);
    let mut used: Vec<bool> = (0..USER_BLOCKS).map(|b| b * per_block < next).collect();

    let [mut mark, mut pump, mut query, mut batch, mut erase] =
        std::array::from_fn(|_| CallTimer::default());

    for op in ops {
        let (lpn, is_write) = match *op {
            Op::Write(l) => (l, true),
            Op::Trim(l) => (l, false),
            _ => continue,
        };
        if let Some(before) = map[lpn as usize].take() {
            owner[before as usize] = None;
            mark.time(|| {
                backend
                    .store()
                    .mark_invalid(&mut dev, &mut sink, Ppn(before))
            });
            // The engine piggybacks one bounded merge slice on every op.
            pump.time(|| backend.pump_merges(&mut dev, &mut sink, cfg.merge_step_pages as u64));
        }
        if !is_write {
            continue;
        }
        if next.is_multiple_of(per_block) {
            let block = next / per_block;
            if used[block as usize] {
                query.time(|| {
                    backend
                        .store()
                        .gc_query(&mut dev, &mut sink, BlockId(block))
                });
                if query.calls.is_multiple_of(8) {
                    let blocks: Vec<BlockId> = (0..8)
                        .map(|i| BlockId((block + i * 111) % USER_BLOCKS))
                        .collect();
                    batch.time(|| backend.store().gc_query_batch(&mut dev, &mut sink, &blocks));
                }
                erase.time(|| {
                    backend
                        .store()
                        .note_erase(&mut dev, &mut sink, BlockId(block))
                });
                for page in block * per_block..(block + 1) * per_block {
                    if let Some(l) = owner[page as usize].take() {
                        map[l as usize] = None;
                    }
                }
            }
            used[block as usize] = true;
        }
        map[lpn as usize] = Some(next);
        owner[next as usize] = Some(lpn);
        next = (next + 1) % (USER_BLOCKS * per_block);
    }

    let queries = backend.gecko_stats().expect("gecko backend").queries;
    let query_reads = dev.stats().counts(IoPurpose::ValidityQuery).page_reads;
    GeckoDrive {
        mark_invalid_mean_ns: mark.mean_ns(),
        mark_invalid_max_ns: mark.max_ns as f64,
        pump_merges_ns: pump.mean_ns(),
        gc_query_ns: query.mean_ns(),
        gc_query_batch8_ns: batch.mean_ns(),
        note_erase_ns: erase.mean_ns(),
        reads_per_query: query_reads as f64 / queries.max(1) as f64,
    }
}

pub struct FlashDrive {
    pub write_page_ns: f64,
    pub read_page_ns: f64,
    pub erase_block_ns: f64,
}

/// A standalone `FlashDevice`: program, read back and erase `blocks` blocks.
pub fn drive_flash(blocks: u32) -> FlashDrive {
    let geo = geometry();
    let mut dev = FlashDevice::new(geo);
    let per_block = geo.pages_per_block;
    let (mut w_ns, mut r_ns, mut e_ns) = (0u128, 0u128, 0u128);
    for b in 0..blocks {
        let block = BlockId(b % geo.blocks);
        let t = Instant::now();
        for p in 0..per_block {
            let lpn = Lpn(b * per_block + p);
            dev.write_page(
                block,
                PageData::User {
                    lpn,
                    version: p as u64,
                },
                SpareInfo::User { lpn, before: None },
                IoPurpose::UserWrite,
            )
            .expect("program a free page");
        }
        w_ns += t.elapsed().as_nanos();
        let first = geo.first_page(block).0;
        let t = Instant::now();
        for p in 0..per_block {
            black_box(
                dev.read_page(Ppn(first + p), IoPurpose::UserRead)
                    .expect("read a programmed page"),
            );
        }
        r_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        dev.erase_block(block, IoPurpose::GcMigrateUser)
            .expect("erase a healthy block");
        e_ns += t.elapsed().as_nanos();
    }
    let pages = (blocks * per_block) as f64;
    FlashDrive {
        write_page_ns: w_ns as f64 / pages,
        read_page_ns: r_ns as f64 / pages,
        erase_block_ns: e_ns as f64 / blocks as f64,
    }
}
