//! The FTL engine (paper §4): the machinery shared by GeckoFTL and the four
//! baseline FTLs of the evaluation.
//!
//! One engine, three policy axes — exactly the axes along which the paper's
//! §5.3 comparison varies:
//!
//! 1. **Validity store** ([`crate::validity::ValidityStore`]): RAM PVB,
//!    flash PVB, page validity log, or Logarithmic Gecko.
//! 2. **GC victim policy** ([`GcPolicy`]): greedy over all blocks, or
//!    GeckoFTL's metadata-aware policy that never migrates metadata (§4.2).
//! 3. **Recovery scheme** ([`RecoveryPolicy`]): battery-backed (DFTL, µ-FTL),
//!    restricted-dirty-fraction (LazyFTL, IB-FTL), or GeckoFTL's
//!    checkpoint-plus-deferred-synchronization scheme (§4.3).
//!
//! All five FTLs share GeckoFTL's lazy invalid-page identification (the UIP
//! protocol of §4.1): sync-time invalidation uses the translation page that
//! is being read anyway, so no FTL pays a fetch-on-miss read for writes.
//! This normalization is what lets Figure 13/14-style comparisons attribute
//! differences purely to the three axes above (see docs/DESIGN.md,
//! "Deviations").

mod audit;
pub mod block_manager;
mod engine_gc;
mod host;

pub use audit::{Rule, Violation};
pub use block_manager::{BlockGroup, BlockManager, BlockState, ChainLink};
pub use host::{Completion, FtlError, HostOp, HostOpKind};

use crate::cache::{CacheEntry, MappingCache};
use crate::gecko::{Bitmap, GeckoConfig, ShardedGecko};
use crate::translation::{SyncOutcome, TranslationTable};
use crate::validity::{MetaSink, ValidityStore};
use flash_sim::{
    BlockId, FlashDevice, Geometry, Histogram, IoPurpose, Lpn, PageData, Ppn, SpareInfo, Telemetry,
};
use std::collections::{BTreeMap, HashMap};

/// Garbage-collection victim-selection policy (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcPolicy {
    /// The state-of-the-art greedy policy: always the block with the fewest
    /// valid pages, regardless of its contents.
    GreedyAll,
    /// GeckoFTL's policy: greedy over user blocks only; metadata blocks are
    /// never migrated, just erased once fully invalid.
    MetadataAware,
}

/// How the FTL bounds the recovery cost of dirty cached mapping entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// A battery synchronizes everything before power runs out. No runtime
    /// bound on dirty entries: the battery-backed FTLs (DFTL, µ-FTL), and
    /// GeckoFTL's no-checkpoint ablation.
    Battery,
    /// At most [`RESTRICTED_DIRTY_FRACTION`]` · C` cached entries may be
    /// dirty; excess dirty entries are synchronized eagerly (LazyFTL,
    /// IB-FTL). Trades runtime write-amplification for bounded recovery.
    RestrictedDirty,
    /// GeckoFTL (§4.3): checkpoints every `C` cache operations bound the
    /// recovery scan of an engine that has checkpointed since it last
    /// resumed to at most `2·C` spare reads — it stops at the checkpoint
    /// horizon the translation pages persist, on average `1.5·C` back — and
    /// synchronization of recovered entries is deferred until after normal
    /// operation resumes. Before that first checkpoint, a crash walks back
    /// over the recovered entries however far that is (docs/DESIGN.md
    /// invariant 15).
    CheckpointDeferred,
}

/// The dirty-entry cap of [`RecoveryPolicy::RestrictedDirty`], as a fraction
/// of `C` (§5.3: "we set the proportion of the cache that stores dirty
/// mapping entries for LazyFTL and IB-FTL to 10% of C").
pub const RESTRICTED_DIRTY_FRACTION: f64 = 0.1;

/// The GC floor, in blocks' worth of free user pages — the free pool's plus
/// the unwritten tails of both user frontiers. A write that finds fewer than
/// one block above it picks a victim, and the writes that follow pay its
/// migrations in paced slices out of the block of slack between trigger and
/// floor; a write that finds the free pages below the floor itself collects
/// synchronously until they are back above it (`maybe_gc`).
pub const GC_FREE_THRESHOLD: usize = 8;

/// A translation-page sync that finds more blocks than this protected first
/// forces a Gecko flush, which releases them all (App. C.2.2's no-erase
/// list stays a handful of blocks, even inside a GC burst).
pub const MAX_PROTECTED_BLOCKS: usize = 8;

/// `K`: at the start of every host write, at most this many
/// translation-page versions are newer than the Gecko store's durable
/// watermark — the links of the version chain [`BlockManager::chain_len`]
/// counts. A write that finds `K` flushes the store first, which bounds the
/// version chains GeckoRec step 4b reads (App. C.2.2) the way the paper
/// bounds its other recovery structures, by capping what the buffer absorbs.
/// GeckoRec hands the engine the chain step 4b read, so the cap holds on a
/// recovered engine too.
pub const MAX_UNFLUSHED_VERSIONS: usize = 96;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct FtlConfig {
    /// `C`: capacity of the LRU mapping cache, in entries.
    pub cache_entries: usize,
    /// Victim-selection policy.
    pub gc_policy: GcPolicy,
    /// Dirty-entry recovery scheme.
    pub recovery: RecoveryPolicy,
}

impl FtlConfig {
    /// The paper's cache-to-capacity ratio: 2¹⁹ entries for a 2 TB device
    /// (4 MB of entries at 8 B each) ≈ 0.14 % of logical pages.
    pub fn scaled_cache_entries(geo: &Geometry) -> usize {
        ((geo.logical_pages() as f64 * (1 << 19) as f64 / 375_809_638.0) as usize).max(64)
    }

    /// GeckoFTL defaults for a geometry.
    pub fn geckoftl(geo: &Geometry) -> Self {
        FtlConfig {
            cache_entries: Self::scaled_cache_entries(geo),
            gc_policy: GcPolicy::MetadataAware,
            recovery: RecoveryPolicy::CheckpointDeferred,
        }
    }

    /// The checkpoint period in force: the paper's `C` cache operations
    /// (§4.3) under [`RecoveryPolicy::CheckpointDeferred`]; `None` under the
    /// other policies, which take no checkpoints.
    pub fn resolved_checkpoint_period(&self) -> Option<u64> {
        matches!(self.recovery, RecoveryPolicy::CheckpointDeferred)
            .then_some(self.cache_entries as u64)
    }
}

/// The validity backend: GeckoFTL's Logarithmic Gecko is held concretely so
/// the engine can drive its flush/recovery hooks; baseline stores plug in as
/// trait objects.
pub enum ValidityBackend {
    /// Logarithmic Gecko (GeckoFTL): [`GeckoConfig::shards`] independent
    /// trees, one tree when `shards == 1`.
    Gecko(ShardedGecko),
    /// Any other validity store (RAM/flash PVB, PVL).
    External(Box<dyn ValidityStore>),
}

impl ValidityBackend {
    /// Build the Gecko backend `cfg` asks for.
    pub fn gecko_for(geo: Geometry, cfg: GeckoConfig) -> Self {
        ValidityBackend::Gecko(ShardedGecko::new(geo, cfg))
    }

    /// The store as a trait object.
    pub fn store(&mut self) -> &mut dyn ValidityStore {
        match self {
            ValidityBackend::Gecko(g) => g,
            ValidityBackend::External(s) => s.as_mut(),
        }
    }

    /// Immutable view for RAM accounting.
    pub fn store_ref(&self) -> &dyn ValidityStore {
        match self {
            ValidityBackend::Gecko(g) => g,
            ValidityBackend::External(s) => s.as_ref(),
        }
    }

    /// The Logarithmic Gecko store, if this is one — the backend with
    /// flush watermarks, merge schedulers and the recovery protocol of
    /// Appendix C.
    pub fn gecko(&self) -> Option<&ShardedGecko> {
        match self {
            ValidityBackend::Gecko(g) => Some(g),
            ValidityBackend::External(_) => None,
        }
    }

    /// The Gecko configuration.
    pub fn gecko_config(&self) -> Option<GeckoConfig> {
        self.gecko().map(ShardedGecko::config)
    }

    /// Aggregated Gecko lifetime counters (summed over shards).
    pub fn gecko_stats(&self) -> Option<crate::gecko::GeckoStats> {
        self.gecko().map(ShardedGecko::stats)
    }

    /// Pending incremental merge work in page-IOs (0 for non-Gecko).
    pub fn merge_backlog_pages(&self) -> u64 {
        self.gecko().map_or(0, ShardedGecko::merge_backlog_pages)
    }

    /// Advance pending merge work by one bounded slice per shard. Returns
    /// `true` while work remains; `false` for non-Gecko backends.
    pub fn pump_merges(
        &mut self,
        dev: &mut FlashDevice,
        sink: &mut dyn MetaSink,
        budget: u64,
    ) -> bool {
        match self {
            ValidityBackend::Gecko(g) => g.pump_merges(dev, sink, budget),
            ValidityBackend::External(_) => false,
        }
    }
}

/// Breakdown of the engine's integrated-RAM footprint, using the paper's
/// per-structure accounting (§2 + Appendix B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RamReport {
    /// Global Mapping Directory.
    pub gmd: u64,
    /// LRU mapping cache (8 bytes/entry).
    pub cache: u64,
    /// Blocks Validity Counter (2 bytes/block).
    pub bvc: u64,
    /// The validity store's RAM state (PVB bitmap, run directories + merge
    /// buffers, PVL head pointers, ...).
    pub validity: u64,
    /// Telemetry ring buffer + histograms (0 while telemetry is disabled).
    /// Charged like any other engine RAM — an observer that keeps an event
    /// ring in firmware RAM pays for it under a fig14-style budget.
    pub telemetry: u64,
    /// The invalid bitmaps an engine out of GeckoRec keeps while any
    /// recovered entry is uncertain (DESIGN.md invariant 13): a block id and
    /// one bit per page for each block they cover; 0 otherwise.
    pub recovery: u64,
    /// The user-block collection in flight, which outlives host ops: the
    /// victim's block id, its invalid bitmap (one bit per page), its page
    /// cursor and the pages it skipped as UIPs (an LPN and a page offset
    /// each); 0 between collections.
    pub gc: u64,
}

impl RamReport {
    /// Total integrated RAM in bytes.
    pub fn total(&self) -> u64 {
        self.gmd + self.cache + self.bvc + self.validity + self.telemetry + self.recovery + self.gc
    }
}

/// A page-associative FTL instance running on a simulated flash device.
pub struct FtlEngine {
    pub(crate) dev: FlashDevice,
    pub(crate) bm: BlockManager,
    pub(crate) tt: TranslationTable,
    pub(crate) cache: MappingCache,
    pub(crate) backend: ValidityBackend,
    pub(crate) cfg: FtlConfig,
    /// Checkpoint epoch (increments at every checkpoint).
    epoch: u64,
    /// `dev.now_seq()` when the current epoch began: every user page written
    /// in it has at least this seq. The next checkpoint makes it the
    /// translation table's horizon.
    epoch_start: u64,
    ops_since_checkpoint: u64,
    /// The user-block collection in flight, from the write that picks its
    /// victim to the one that erases it; at most one at a time.
    gc_victim: Option<GcVictim>,
    /// Storage of the synchronization operation in flight, reused by the
    /// next one.
    sync_scratch: SyncScratch,
    /// The LPN a host read must name to extend the current run of
    /// consecutive host-read LPNs, and that run's length so far. RAM-only:
    /// an engine out of recovery starts a new run.
    read_run: (u32, u32),
    /// The successors a read miss took from its translation page, reused by
    /// the next one. Contents are meaningless outside `read_inner`.
    read_ahead: Vec<(Lpn, Ppn)>,
    /// [`FtlEngine::durable_watermark`]; it never decreases.
    durable: u64,
    /// Lifetime op counters.
    pub counters: EngineCounters,
    /// Per-tenant accounting, populated by ops submitted with a tenant.
    /// RAM-only observation — it never influences the simulation, so
    /// single-tenant callers using `write`/`read` stay byte-identical.
    /// `BTreeMap` so reports iterate tenants in a deterministic order.
    tenants: BTreeMap<TenantId, TenantStats>,
    /// Lifetime simulated time spent inside GC (victim selection, queries,
    /// migrations, erases). `submit` diffs this around each tenant-tagged
    /// op to charge GC debt to the tenant whose op triggered it.
    gc_attrib_us: f64,
    /// The user pages the recovered BVC counts invalid, held while any
    /// recovery-restored entry is still uncertain, in the cache or in the
    /// overflow recovery resolves after resume (`None` otherwise, and on an
    /// engine that never recovered); charged to [`RamReport::recovery`].
    pub(crate) recovered_invalid: Option<RecoveredInvalid>,
}

/// Which user pages BVC already counts invalid, for the App. C.3.2
/// re-reports of recovery-restored entries (DESIGN.md invariant 13).
/// Step 5 counted every page its validity scan found invalid, and the C.3
/// corrections can report such a page again: an uncertain entry's sync
/// re-reports a before-image recovery already knew, and a host write to the
/// entry followed by its sync reports the same page twice. Each would
/// decrement BVC a second time and let GC erase a block that still holds
/// newest copies.
pub(crate) struct RecoveredInvalid {
    /// `dev.now_seq()` when recovery finished: a block whose erase seq is
    /// lower still holds the pages the bits describe.
    pub(crate) seq: u64,
    /// Per user block, the pages BVC counts invalid: step 5's bitmaps, the
    /// torn pages step 6 counted, and every re-report since.
    pub(crate) pages: HashMap<BlockId, Bitmap>,
    /// Recovered entries that did not fit into the cache are still waiting
    /// for their sync (`resolve_recovered_overflow`). They are uncertain
    /// without being cached, so the cache's uncertain count cannot tell.
    pub(crate) overflow_pending: bool,
}

/// A user-block collection in progress. It spans the host ops that pay
/// its migrations, so everything it needs between two of them is here.
struct GcVictim {
    block: BlockId,
    /// The victim's invalid pages: the validity store's answer to this
    /// collection's one `gc_query`, plus every page of the block reported
    /// invalid since — by a host write, a trim, or the synchronization a
    /// migration's eviction triggers — which must not be migrated as live.
    invalid: Bitmap,
    /// The next page to look at: every page below it is known invalid,
    /// migrated, or skipped as a UIP.
    cursor: u32,
    /// The pages skipped as UIPs (§4.1) and their LPNs: each entry's UIP
    /// flag is cleared once the victim's erase marker exists, unless a sync
    /// has reported the page since (`clear_skipped_uip`).
    uip_skipped: Vec<(Lpn, u32)>,
    /// Simulated time the collection began: its `GcCollect` span runs from
    /// here to the erase.
    started_us: f64,
}

/// The vectors one `sync_tpage` fills, kept between calls so a steady-state
/// synchronization allocates nothing but the new translation-page version.
/// Contents are meaningless outside `sync_tpage`.
#[derive(Default)]
struct SyncScratch {
    /// The translation page's dirty cached entries, in LPN order.
    updates: Vec<(Lpn, Ppn)>,
    /// What `TranslationTable::synchronize_into` found.
    outcome: SyncOutcome,
    /// Before-images to report invalid: the validity store's batch.
    ppns: Vec<Ppn>,
    /// Per page of `ppns`, "count BVC leniently".
    lenient: Vec<bool>,
}

/// A tenant / stream identifier for multi-tenant accounting
/// ([`HostOp::tenant`]).
pub type TenantId = u8;

/// Per-tenant accounting: op counts, bytes, latency histograms, and the GC
/// debt (simulated µs of garbage collection) this tenant's writes triggered.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Writes issued by this tenant.
    pub writes: u64,
    /// Reads issued by this tenant.
    pub reads: u64,
    /// Trims issued by this tenant.
    pub trims: u64,
    /// Logical bytes written by this tenant.
    pub bytes_written: u64,
    /// GC victim collections triggered by this tenant's ops.
    pub gc_operations: u64,
    /// GC page migrations triggered by this tenant's ops.
    pub gc_migrations: u64,
    /// Simulated µs of GC work charged to this tenant: the debt its ops
    /// paid.
    pub gc_debt_us: f64,
    /// End-to-end write latencies (µs).
    pub write_lat: Histogram,
    /// End-to-end read latencies (µs).
    pub read_lat: Histogram,
}

/// Engine-level (non-IO) counters for reports and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Application writes served.
    pub writes: u64,
    /// Application reads served.
    pub reads: u64,
    /// Synchronization operations performed (including aborted ones).
    pub syncs: u64,
    /// Synchronization operations aborted as all-false-alarms (App. C.3.1).
    pub syncs_aborted: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Garbage-collection operations (victims erased).
    pub gc_operations: u64,
    /// Host ops that found the free user pages below the GC floor and
    /// collected synchronously until they were back above it (`maybe_gc`).
    pub gc_floor_fallbacks: u64,
    /// Live pages migrated by GC.
    pub gc_migrations: u64,
    /// Pages skipped by GC because the UIP spare-check identified them
    /// (§4.1's garbage-collection policy).
    pub gc_uip_skips: u64,
    /// TRIM/discard operations served.
    pub trims: u64,
}

impl FtlEngine {
    /// Format a fresh device and build an engine on it.
    pub fn format(geo: Geometry, cfg: FtlConfig, backend: ValidityBackend) -> Self {
        Self::format_with(geo, cfg, |_, _| backend)
    }

    /// As [`FtlEngine::format`], for a validity store that is itself
    /// flash-resident (µ-FTL's PVB): `make_backend` materializes it on the
    /// engine's own freshly formatted device.
    #[doc(hidden)]
    pub fn format_with(
        geo: Geometry,
        cfg: FtlConfig,
        make_backend: impl FnOnce(&mut FlashDevice, &mut BlockManager) -> ValidityBackend,
    ) -> Self {
        assert!(
            (cfg.cache_entries as u64) < geo.overprovisioned_pages() / 2,
            "cache too large: unidentified invalid pages could starve GC"
        );
        let mut dev = FlashDevice::new(geo);
        let mut bm = BlockManager::new(geo);
        bm.erase_empty_metadata = cfg.gc_policy == GcPolicy::MetadataAware;
        let mut tt = TranslationTable::new(geo);
        tt.format(&mut dev, &mut bm);
        let cache = MappingCache::new(cfg.cache_entries);
        let backend = make_backend(&mut dev, &mut bm);
        Self::from_parts(dev, bm, tt, cache, backend, cfg)
    }

    /// Build GeckoFTL with paper-default tuning on a fresh device.
    pub fn geckoftl(geo: Geometry) -> Self {
        let backend = ValidityBackend::gecko_for(geo, GeckoConfig::paper_default(&geo));
        Self::format(geo, FtlConfig::geckoftl(&geo), backend)
    }

    /// Assemble an engine from its components: freshly formatted ones, or
    /// those GeckoRec recovered. Not part of the ordinary API surface.
    #[doc(hidden)]
    pub fn from_parts(
        dev: FlashDevice,
        bm: BlockManager,
        tt: TranslationTable,
        cache: MappingCache,
        backend: ValidityBackend,
        cfg: FtlConfig,
    ) -> Self {
        let durable = backend.gecko().map_or(0, ShardedGecko::last_flush_seq);
        let epoch_start = dev.now_seq();
        FtlEngine {
            dev,
            bm,
            tt,
            cache,
            backend,
            cfg,
            epoch: 1,
            epoch_start,
            ops_since_checkpoint: 0,
            gc_victim: None,
            sync_scratch: SyncScratch::default(),
            read_run: (0, 0),
            read_ahead: Vec::new(),
            durable,
            counters: EngineCounters::default(),
            tenants: BTreeMap::new(),
            gc_attrib_us: 0.0,
            recovered_invalid: None,
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> Geometry {
        self.dev.geometry()
    }

    /// The underlying device (stats, clock).
    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    /// Engine configuration.
    pub fn config(&self) -> FtlConfig {
        self.cfg
    }

    /// The mapping cache (inspection).
    pub fn cache(&self) -> &MappingCache {
        &self.cache
    }

    /// The translation table (inspection): the GMD says which flash page
    /// holds the current version of each translation page.
    pub fn translation(&self) -> &TranslationTable {
        &self.tt
    }

    /// The block manager (inspection).
    pub fn block_manager(&self) -> &BlockManager {
        &self.bm
    }

    /// The validity backend (inspection).
    pub fn backend(&self) -> &ValidityBackend {
        &self.backend
    }

    /// The Gecko store's durable watermark as the engine last saw it
    /// (inspection; 0 for other validity stores): every translation-page
    /// version at or before it has its reports on flash, so protections and
    /// the version cap are judged against it (DESIGN.md invariants 6, 14).
    pub fn durable_watermark(&self) -> u64 {
        self.durable
    }

    /// The user block whose collection is in flight (inspection): picked by
    /// an earlier write, its migrations paid by the writes since, not yet
    /// erased. `None` between collections.
    pub fn gc_victim(&self) -> Option<BlockId> {
        self.gc_victim.as_ref().map(|v| v.block)
    }

    /// Integrated-RAM footprint breakdown (paper accounting).
    pub fn ram_report(&self) -> RamReport {
        RamReport {
            gmd: self.tt.gmd_ram_bytes(),
            cache: self.cache.ram_bytes(),
            bvc: self.bm.bvc_ram_bytes(),
            validity: self.backend.store_ref().ram_bytes(),
            telemetry: self.dev.telemetry().ram_bytes(),
            recovery: self.recovered_invalid.as_ref().map_or(0, |r| {
                let bitmap = self.dev.geometry().pages_per_block.div_ceil(8) as u64;
                r.pages.len() as u64 * (4 + bitmap)
            }),
            gc: self.gc_victim.as_ref().map_or(0, |v| {
                let bitmap = v.invalid.len().div_ceil(8) as u64;
                4 + bitmap + 2 + 6 * v.uip_skipped.len() as u64
            }),
        }
    }

    /// Telemetry sink carried by the device (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        self.dev.telemetry()
    }

    /// Mutable telemetry sink: enable recording before a measured phase.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        self.dev.telemetry_mut()
    }

    /// Simulate a power failure: all RAM-resident state is lost; only the
    /// flash device survives. Feed the result to
    /// [`crate::recovery::gecko_recover`].
    pub fn crash(self) -> FlashDevice {
        self.dev
    }

    /// Run a closure with mutable access to the device and block manager
    /// (fault plans and crash images in the fuzzer and the property tests).
    pub fn with_raw_parts<R>(
        &mut self,
        f: impl FnOnce(&mut FlashDevice, &mut BlockManager) -> R,
    ) -> R {
        f(&mut self.dev, &mut self.bm)
    }

    /// The body of a host write ([`FtlEngine::submit`] has checked `lpn`).
    fn write_inner(&mut self, lpn: Lpn, version: u64) {
        if self.bm.chain_len() >= MAX_UNFLUSHED_VERSIONS {
            self.flush_validity();
        }
        self.maybe_gc();
        self.counters.writes += 1;
        // Record the superseded copy's address in the new page's spare area
        // so the immediate invalidation report (§4.1) survives a crash of
        // Gecko's buffer (recovered by the step-6 backwards scan).
        let before = self.cache.lookup(lpn).map(|e| e.ppn);
        let ppn = self.bm.append(
            &mut self.dev,
            BlockGroup::User,
            PageData::User { lpn, version },
            SpareInfo::User { lpn, before },
            IoPurpose::UserWrite,
        );
        self.dev.stats_mut().logical_writes += 1;
        self.tick_checkpoint_clock();
        self.install_write_mapping(lpn, ppn);
        // Piggyback one bounded merge-scheduler slice (§3's incremental
        // merges): instead of occasionally paying a whole Logarithmic Gecko
        // merge inline, every write pays at most `merge_step_pages` of it
        // per shard.
        self.pump_merge_slice();
        self.post_op();
    }

    /// Advance pending incremental Gecko merge work by one bounded step,
    /// charged to the current operation: an op that feeds the validity
    /// store (a write, a trim, a whole victim of GC's floor fallback) pays
    /// at most `merge_step_pages` of merge IO per shard inline. Reads never
    /// call it: they touch no validity metadata (paper §3 amortises merges
    /// over validity updates).
    fn pump_merge_slice(&mut self) {
        if let Some(cfg) = self.backend.gecko_config() {
            self.backend
                .pump_merges(&mut self.dev, &mut self.bm, cfg.merge_step_pages as u64);
        }
    }

    /// Donate one idle-time *quantum* to background maintenance: pump the
    /// due-merge backlog slice by slice until it is drained or the
    /// quantum's budget of `8 × channels` pumps is spent. (The channel
    /// factor buys no parallelism — time is single-lane — it is simply the
    /// quantum size the multi-channel experiments were tuned with.) Returns
    /// `true` while more background work remains, so idle loops can keep
    /// ticking.
    ///
    /// An idle tick is deliberately bigger than the write path's
    /// piggybacked slice: when idle ticks advanced the scheduler by one
    /// slice each, a workload whose idle gaps were sized in ticks (as the
    /// bench traces are) merely kept pace with newly planned work, and the
    /// deep-merge backlog accumulated during bursts was never drained —
    /// idle-period starvation that concentrated into forced stalls later.
    pub fn idle_tick(&mut self) -> bool {
        let Some(cfg) = self.backend.gecko_config() else {
            return false;
        };
        let slice = cfg.merge_step_pages as u64;
        let budget_slices = 8 * self.dev.geometry().channels.max(1) as u64;
        for _ in 0..budget_slices {
            if !self.backend.pump_merges(&mut self.dev, &mut self.bm, slice) {
                return false;
            }
        }
        true
    }

    /// Install the cache entry for a fresh write of `lpn` now at `ppn`
    /// (shared by the write path and GC migrations; §4.1's cache protocol).
    pub(crate) fn install_write_mapping(&mut self, lpn: Lpn, ppn: Ppn) {
        let epoch = self.epoch;
        if let Some(e) = self.cache.lookup(lpn) {
            // Before-image is the currently cached address: report it
            // invalid immediately; the UIP flag (covering the
            // flash-resident entry's before-image) is left as-is.
            // For a recovery-restored entry the same page may be re-reported
            // by the C.3 correction path, so count it leniently.
            let (old, uncertain) = (e.ppn, e.uncertain);
            self.report_invalid(&[old], &[uncertain]);
            self.cache.update_entry(lpn, |e| {
                e.ppn = ppn;
                e.dirty = true;
                e.written_epoch = epoch;
            });
            self.cache.promote(lpn);
        } else {
            // Unknown before-image: defer identification via the UIP flag.
            self.make_room();
            self.cache.insert(CacheEntry {
                lpn,
                ppn,
                dirty: true,
                uip: true,
                uncertain: false,
                written_epoch: epoch,
            });
        }
    }

    /// The body of a host read ([`FtlEngine::submit`] has checked `lpn`).
    ///
    /// Sequential read-ahead: a miss that is at least the third read of a
    /// run of consecutive LPNs keeps, from the translation page it has just
    /// paid for, the mappings of the next `run − 1` LPNs as clean cache
    /// entries — the window doubles from miss to miss and ends with the
    /// page. It never issues an IO of its own (docs/DESIGN.md,
    /// "Deviations").
    fn read_inner(&mut self, lpn: Lpn) -> Option<u64> {
        self.counters.reads += 1;
        self.dev.stats_mut().logical_reads += 1;
        let (expected, run) = self.read_run;
        let run = if lpn.0 == expected {
            run.saturating_add(1)
        } else {
            1
        };
        self.read_run = (lpn.0.wrapping_add(1), run);
        let ppn = if let Some(e) = self.cache.lookup(lpn) {
            let p = e.ppn;
            self.cache.promote(lpn);
            p
        } else {
            let ahead = if run >= 3 { run - 1 } else { 0 };
            let tpage = self.tt.tpage_of(lpn);
            let fetched = self.tt.tpage_location(tpage);
            let p = self.tt.lookup_ahead(
                &mut self.dev,
                lpn,
                IoPurpose::TranslationFetch,
                ahead,
                &mut self.read_ahead,
            )?;
            self.make_room();
            self.cache.insert(CacheEntry::clean(lpn, p));
            // Evicting a dirty entry of this very translation page wrote a
            // new version of it, and the victim — now uncached — may be one
            // of the successors: only the GMD-current version holds the
            // newest mapping of every uncached LPN (invariant 11).
            if self.tt.tpage_location(tpage) == fetched {
                self.cache.install_read_ahead(lpn, &self.read_ahead);
            }
            self.post_op();
            p
        };
        let data = self
            .dev
            .read_page(ppn, IoPurpose::UserRead)
            .expect("mapped page readable");
        let (stored_lpn, version) = data.as_user().expect("user block page holds user data");
        // A hard assert: read-ahead installs mappings no demand fetch has
        // checked, and the benchmark, the goldens and the fuzz campaign run
        // in release.
        assert_eq!(stored_lpn, lpn, "mapping must point at this page's data");
        Some(version)
    }

    /// The body of a host trim ([`FtlEngine::submit`] has checked `lpn`).
    fn trim_inner(&mut self, lpn: Lpn) -> bool {
        self.maybe_gc();
        self.counters.trims += 1;
        let tpage = self.tt.tpage_of(lpn);
        // Push this translation page's dirty cached state down first: the
        // unmap below must supersede a version that already reflects the
        // cache, so the before-image it returns is the true newest copy and
        // recovery's version-chain diff (App. C.2.2) sees one coherent
        // mapped → unmapped transition.
        self.sync_tpage(tpage);
        self.cache.remove(lpn);
        // Keep the pre-unmap version findable for recovery's diffs, exactly
        // as sync_tpage protects the pre-sync version.
        let link = self.protect_tpage_version(tpage);
        let before = self.tt.unmap(&mut self.dev, &mut self.bm, lpn);
        match before {
            Some(ppn) => self.report_invalid(&[ppn], &[false]),
            // An unmapped LPN: no version was written.
            None => self.withdraw_link(link),
        }
        self.pump_merge_slice();
        self.post_op();
        before.is_some()
    }

    /// Per-tenant accounting of the ops submitted with a tenant.
    pub fn tenant_stats(&self) -> &BTreeMap<TenantId, TenantStats> {
        &self.tenants
    }

    /// `lpn`'s mapping target: the cached entry's `ppn`, else the flash
    /// translation table's. Unlike [`FtlEngine::read`], it charges no IO and
    /// leaves the cache alone.
    pub fn current_mapping(&self, lpn: Lpn) -> Option<Ppn> {
        self.cache
            .lookup(lpn)
            .map(|e| e.ppn)
            .or_else(|| self.tt.peek(&self.dev, lpn))
    }

    /// Ask the validity store for a block's invalid bitmap without running a
    /// GC operation (test/debug introspection; charges query IO).
    pub fn debug_validity(&mut self, block: BlockId) -> Bitmap {
        self.backend
            .store()
            .gc_query(&mut self.dev, &mut self.bm, block)
    }

    /// A user page is being reported invalid: if it lies in the block being
    /// collected, the collection must see it (its query was answered
    /// earlier).
    fn note_gc_invalidation(&mut self, ppn: Ppn) {
        if let Some(victim) = &mut self.gc_victim {
            let geo = self.dev.geometry();
            if geo.block_of(ppn) == victim.block {
                victim.invalid.set(geo.offset_of(ppn).0);
            }
        }
    }

    /// Report user pages invalid — the one path from an identified
    /// before-image to the collection in flight, BVC and the validity store.
    /// `lenient[i]` marks the App. C.3.2 re-report of a recovery-restored
    /// entry, which BVC may have counted already (`count_recovered_report`).
    /// The store takes the pages as one flush generation: a
    /// synchronization's reports must not straddle a Gecko buffer flush, or
    /// a crash would lose the tail while recovery's C.2.2 diff skips the sync
    /// (its translation page predates the flush).
    fn report_invalid(&mut self, pages: &[Ppn], lenient: &[bool]) {
        debug_assert_eq!(pages.len(), lenient.len());
        if pages.is_empty() {
            return;
        }
        for (&ppn, &lenient) in pages.iter().zip(lenient) {
            self.note_gc_invalidation(ppn);
            if !lenient || self.count_recovered_report(ppn) {
                self.bm.page_obsolete(&mut self.dev, ppn);
            }
        }
        let store = self.backend.store();
        match *pages {
            // A single report goes to the one tree that owns the page.
            [ppn] => store.mark_invalid(&mut self.dev, &mut self.bm, ppn),
            _ => store.mark_invalid_batch(&mut self.dev, &mut self.bm, pages),
        }
        self.after_validity_op();
    }

    /// Whether a re-report of `ppn` by a recovery-restored entry still has to
    /// decrement BVC, noting it as counted if so. It does not if the page's
    /// block is unerased since recovery and the page is already counted
    /// (DESIGN.md invariant 13), nor on a retired block, whose count
    /// retirement zeroed for good.
    fn count_recovered_report(&mut self, ppn: Ppn) -> bool {
        let geo = self.dev.geometry();
        let block = geo.block_of(ppn);
        let Some(rec) = &mut self.recovered_invalid else {
            return true;
        };
        if self.bm.is_retired(block) {
            return false;
        }
        let bits = rec
            .pages
            .entry(block)
            .or_insert_with(|| Bitmap::new(geo.pages_per_block));
        let off = geo.offset_of(ppn).0;
        let counted = bits.get(off) && self.dev.erase_seq(block) < rec.seq;
        bits.set(off);
        !counted
    }

    /// Evict until the cache has room for one insert: the clean-first pick
    /// ([`MappingCache::clean_victim`]), or, when the window holds dirty
    /// entries only, the LRU entry after a sync of its translation page.
    pub(crate) fn make_room(&mut self) {
        while self.cache.is_full() {
            let victim = self.cache.clean_victim().unwrap_or_else(|| {
                let lru = self.cache.peek_lru().expect("full cache has an LRU entry");
                let lpn = lru.lpn;
                self.sync_tpage(self.tt.tpage_of(lpn));
                lpn
            });
            self.cache.remove(victim);
        }
    }

    /// Keep `tpage`'s current flash version findable for GeckoRec's buffer
    /// recovery (App. C.2.2) across the write that is about to supersede it.
    /// The protection must be in place *before* that write marks the old
    /// version obsolete — otherwise its block can become empty and be erased
    /// on the spot, leaving a gap in the version chain recovery diffs. If
    /// the write does not happen after all, [`FtlEngine::withdraw_link`]
    /// hands the link back.
    fn protect_tpage_version(&mut self, tpage: u32) -> Option<ChainLink> {
        self.backend.gecko()?;
        // Bound the protected set: when it has grown past a handful of
        // blocks, force a Gecko flush — this makes every buffered report
        // durable and releases every protection (the paper bounds its
        // recovery structures the same way, cf. C.2.2's cap on buffer
        // absorption). First, so the flush cannot release the protection
        // taken below.
        if self.bm.protected_count() > MAX_PROTECTED_BLOCKS {
            self.flush_validity();
        }
        // Stamped with the seq the superseding version is about to get: the
        // old version is needed until that version's reports are durable.
        let geo = self.geometry();
        let old = self.tt.tpage_location(tpage);
        Some(
            self.bm
                .protect(old.map(|p| geo.block_of(p)), self.dev.now_seq()),
        )
    }

    /// Hand back the link [`FtlEngine::protect_tpage_version`] took for a
    /// write that did not happen: a link stands for a version, and
    /// [`MAX_UNFLUSHED_VERSIONS`] and [`MAX_PROTECTED_BLOCKS`] count them.
    fn withdraw_link(&mut self, link: Option<ChainLink>) {
        if let Some(link) = link {
            self.bm.withdraw(link);
        }
    }

    /// Synchronization operation (§4): push every dirty cached entry of one
    /// translation page to flash, identify before-images (UIP protocol) and
    /// correct recovered flags (App. C.3).
    pub(crate) fn sync_tpage(&mut self, tpage: u32) {
        self.sync_tpage_and(tpage, &[]);
    }

    /// [`FtlEngine::sync_tpage`], pushing also `uncached`: entries of this
    /// translation page, in LPN order, that are dirty but not in the cache.
    fn sync_tpage_and(&mut self, tpage: u32, uncached: &[CacheEntry]) {
        // Nothing below re-enters `sync_tpage`; if it did, the nested call
        // would merely start from empty vectors.
        let mut scratch = std::mem::take(&mut self.sync_scratch);
        self.sync_tpage_with(tpage, uncached, &mut scratch);
        self.sync_scratch = scratch;
    }

    fn sync_tpage_with(&mut self, tpage: u32, uncached: &[CacheEntry], scratch: &mut SyncScratch) {
        let SyncScratch {
            updates,
            outcome,
            ppns,
            lenient,
        } = scratch;
        let (lo, hi) = self.tt.lpn_range(tpage);
        self.cache.dirty_in_range(lo, hi, updates);
        if !uncached.is_empty() {
            updates.extend(uncached.iter().map(|e| (e.lpn, e.ppn)));
            updates.sort_unstable_by_key(|&(lpn, _)| lpn);
        }
        if updates.is_empty() {
            return;
        }
        self.counters.syncs += 1;
        let link = self.protect_tpage_version(tpage);
        self.tt
            .synchronize_into(&mut self.dev, &mut self.bm, tpage, updates, outcome);
        if outcome.aborted {
            self.counters.syncs_aborted += 1;
            self.withdraw_link(link);
        }
        // Collect every before-image to report, then submit them as one
        // batch (`report_invalid`).
        ppns.clear();
        lenient.clear();
        for (lpn, before) in &outcome.before_images {
            let e = match self.cache.lookup(*lpn) {
                Some(e) => *e,
                None => {
                    let i = uncached.binary_search_by_key(lpn, |e| e.lpn);
                    uncached[i.expect("synced entry cached or passed in")]
                }
            };
            if e.uip {
                if let Some(before_ppn) = *before {
                    // App. C.3.2: a recovered entry's before-image may have
                    // been erased and rewritten before the crash; only
                    // report it if its spare area still names this logical
                    // page.
                    let still_before = !e.uncertain
                        || self
                            .dev
                            .read_spare(before_ppn, IoPurpose::TranslationSync)
                            .is_ok_and(
                                |s| matches!(s.info, SpareInfo::User { lpn: l, .. } if l == *lpn),
                            );
                    if still_before {
                        ppns.push(before_ppn);
                        lenient.push(e.uncertain);
                    }
                }
            }
            self.cache.update_entry(*lpn, |e| {
                e.dirty = false;
                e.uip = false;
                e.uncertain = false;
            });
        }
        self.report_invalid(ppns, lenient);
        for lpn in &outcome.already_synced {
            // The entry already matches flash: either a recovered entry that
            // was never dirty (App. C.3.1) or an ABA physical-address-reuse
            // cycle (see `TranslationTable::synchronize`) — clear the
            // assumed flags without writing anything.
            self.cache.update_entry(*lpn, |e| {
                e.dirty = false;
                e.uip = false;
                e.uncertain = false;
            });
        }
        self.release_recovered_invalid();
    }

    /// Drop the recovered invalid bitmaps once no uncertain entry remains:
    /// only an uncertain entry re-reports leniently.
    fn release_recovered_invalid(&mut self) {
        let pending = self
            .recovered_invalid
            .as_ref()
            .is_some_and(|r| r.overflow_pending);
        if !pending && self.cache.uncertain_count() == 0 {
            self.recovered_invalid = None;
        }
    }

    /// Verify recovery-recreated entries that did not fit into the cache:
    /// pass them through synchronization operations (App. C.3 corrections),
    /// one per translation page, each with all of that page's entries. Used
    /// only by [`crate::recovery::gecko_recover`].
    ///
    /// One sync per page, not one per entry: a sync copies the entries it
    /// does not update from the version it supersedes, and that version may
    /// map a recovered LPN to a page whose block GC erased before the crash
    /// (the LPN's newer copy is what recovery recreated). Written after the
    /// erase, such a version would defeat invariant 12's erase-timestamp rule
    /// at the next recovery, which would report that page invalid in the
    /// block's new life.
    pub(crate) fn resolve_recovered_overflow(&mut self, mut entries: Vec<CacheEntry>) {
        entries.sort_unstable_by_key(|e| e.lpn);
        let mut rest = &entries[..];
        while let Some(first) = rest.first() {
            let tpage = self.tt.tpage_of(first.lpn);
            let (page, tail) =
                rest.split_at(rest.partition_point(|e| self.tt.tpage_of(e.lpn) == tpage));
            self.sync_tpage_and(tpage, page);
            rest = tail;
        }
        if let Some(rec) = &mut self.recovered_invalid {
            rec.overflow_pending = false;
        }
        self.release_recovered_invalid();
    }

    /// Synchronize every dirty entry (clean shutdown; GC fallback).
    pub fn sync_all_dirty(&mut self) {
        while let Some(e) = self.cache.oldest_dirty() {
            let tpage = self.tt.tpage_of(e.lpn);
            self.sync_tpage(tpage);
        }
    }

    /// Clean shutdown: finish the collection in flight, synchronize all
    /// dirty entries, persist validity buffers and settle any background
    /// merge work. Models the battery-backed pre-shutdown work of
    /// DFTL/µ-FTL.
    pub fn shutdown_clean(&mut self) {
        if self.gc_victim.is_some() {
            self.collect_once();
        }
        self.sync_all_dirty();
        self.backend.store().flush(&mut self.dev, &mut self.bm);
        // The flush may itself have scheduled a merge; finish it so the
        // device is fully quiescent at power-off.
        while self.idle_tick() {}
        self.after_validity_op();
    }

    /// Count a user-page write toward the checkpoint period. GC migrations
    /// tick too: they create dirty entries and emit user pages, and an
    /// epoch — the distance from one horizon to the next — is only `C`
    /// pages long if the period counts every page the backwards scan will
    /// have to walk over.
    pub(crate) fn tick_checkpoint_clock(&mut self) {
        if matches!(self.cfg.recovery, RecoveryPolicy::CheckpointDeferred) {
            self.ops_since_checkpoint += 1;
        }
    }

    /// Take a checkpoint if the period has elapsed and no collection is in
    /// flight. A checkpoint never falls inside a collection: one that comes
    /// due meanwhile waits for the victim's erase, so every copy of an
    /// unerased victim lies above the persisted horizon and GeckoRec step 6
    /// walks it (DESIGN.md invariant 18).
    pub(crate) fn maybe_checkpoint(&mut self) {
        if self.gc_victim.is_some() {
            return;
        }
        if let Some(period) = self.cfg.resolved_checkpoint_period() {
            if self.ops_since_checkpoint >= period {
                self.checkpoint();
            }
        }
    }

    /// Bookkeeping after each application-level operation.
    fn post_op(&mut self) {
        match self.cfg.recovery {
            RecoveryPolicy::CheckpointDeferred => {
                self.maybe_checkpoint();
            }
            RecoveryPolicy::RestrictedDirty => {
                let max_dirty =
                    ((self.cfg.cache_entries as f64 * RESTRICTED_DIRTY_FRACTION) as usize).max(1);
                while self.cache.dirty_count() > max_dirty {
                    let lpn = self.cache.oldest_dirty().expect("dirty entries exist").lpn;
                    self.sync_tpage(self.tt.tpage_of(lpn));
                }
            }
            RecoveryPolicy::Battery => {}
        }
        self.after_validity_op();
    }

    /// Runtime checkpoint (§4.3): synchronize dirty entries not written
    /// since the previous checkpoint. Every dirty entry left was written in
    /// the epoch that ends here, so its user page is no older than that
    /// epoch's start, which becomes the horizon that every later
    /// translation-page version persists and recovery's backwards scan stops
    /// at (DESIGN.md invariant 15).
    ///
    /// The checkpoint's last sync writes the first version carrying the new
    /// horizon: the horizon rises just before it, when the only stale
    /// entries left are that sync's own. A checkpoint with no stale entry
    /// syncs the oldest dirty entry's page for it. Otherwise the horizon
    /// would reach flash only with the next eviction's sync, which
    /// clean-first eviction defers, and recovery would walk back to an older
    /// one.
    fn checkpoint(&mut self) {
        debug_assert!(self.gc_victim.is_none(), "a checkpoint inside a collection");
        self.counters.checkpoints += 1;
        self.ops_since_checkpoint = 0;
        let stale = self.cache.dirty_written_before(self.epoch);
        // The newest stale entry's page goes last.
        let last = stale
            .last()
            .copied()
            .or_else(|| self.cache.oldest_dirty().map(|e| e.lpn))
            .map(|lpn| self.tt.tpage_of(lpn));
        for lpn in stale {
            // May already have been cleaned by an earlier batched sync.
            let tpage = self.tt.tpage_of(lpn);
            if Some(tpage) != last && self.cache.lookup(lpn).is_some_and(|e| e.dirty) {
                self.sync_tpage(tpage);
            }
        }
        self.tt.set_horizon(self.epoch_start);
        if let Some(tpage) = last {
            self.sync_tpage(tpage);
        }
        debug_assert!(
            self.cache.dirty_written_before(self.epoch).is_empty(),
            "a checkpoint leaves only entries written in the epoch it ends dirty"
        );
        self.epoch_start = self.dev.now_seq();
        self.epoch += 1;
    }

    /// Flush the validity store's buffers and advance the durable watermark.
    pub(crate) fn flush_validity(&mut self) {
        self.backend.store().flush(&mut self.dev, &mut self.bm);
        self.after_validity_op();
    }

    /// Advance the durable watermark and release the version chain through
    /// it; the block manager erases any released block that has become empty
    /// (DESIGN.md invariant 6). Then raise the block manager's floor to the
    /// MIN, below which no recovery's threshold falls, and which it keeps
    /// payloads against (invariant 17).
    fn after_validity_op(&mut self) {
        let Some(gecko) = self.backend.gecko() else {
            return;
        };
        let min = gecko.last_flush_seq();
        // Every version written so far has made its reports by now. A link
        // taken since the watermark last rose is newer than it, so nothing
        // is due unless it rises.
        let newest = self.dev.now_seq().saturating_sub(1);
        let durable = gecko.durable_watermark(newest);
        if durable > self.durable {
            self.durable = durable;
            self.bm.release_through(&mut self.dev, durable);
        }
        self.bm.raise_floor(&mut self.dev, min);
    }
}
