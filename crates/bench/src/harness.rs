//! Shared simulation drivers for the experiments.

use flash_sim::{Geometry, IoStats};
use ftl_workloads::{Trace, Uniform, WorkloadOp};
use geckoftl_core::ftl::{
    Completion, FtlConfig, FtlEngine, FtlError, HostOp, HostOpKind, TenantId, ValidityBackend,
};
use geckoftl_core::gecko::GeckoConfig;

/// The default simulation geometry for write-amplification experiments:
/// 1024 blocks of 128 × 4 KB pages (512 MB) at the paper's R = 0.7.
///
/// Keeps the paper's B, P and R; only K is scaled down so a full experiment
/// sweep runs in seconds. Figures that vary a parameter (B, K, R) derive
/// their geometries from this one.
pub fn sim_geometry() -> Geometry {
    Geometry::new(1 << 10, 1 << 7, 1 << 12, 0.7)
}

/// The small-geometry GeckoFTL the golden traces, the fuzzer and the
/// property tests run: paper defaults, except a Gecko page shrunk to 64
/// usable bytes so flushes and merges happen at this scale, and the
/// validity store split `shards` ways.
pub fn small_gecko_engine(geo: Geometry, cache_entries: usize, shards: u32) -> FtlEngine {
    let cfg = FtlConfig {
        cache_entries,
        ..FtlConfig::geckoftl(&geo)
    };
    let gecko_cfg = GeckoConfig {
        page_header_bytes: geo.page_bytes - 64,
        shards,
        ..GeckoConfig::paper_default(&geo)
    };
    FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko_cfg))
}

/// Write every logical page once (sequentially) so the device reaches its
/// steady-state fill level before measurements start.
pub fn fill_sequential(engine: &mut FtlEngine) {
    let logical = engine.geometry().logical_pages();
    for lpn in 0..logical {
        engine.write(flash_sim::Lpn(lpn as u32), lpn);
    }
}

/// The one place a [`WorkloadOp`] turns into engine calls: writes get the
/// next version tag, `Idle(n)` expands to `n` idle ticks, and a refused op
/// comes back as a [`DriveError`] naming its position in the stream. Every
/// experiment, trace replay, the fuzzer, the integration tests and the
/// examples dispatch through [`OpDriver::apply`].
#[derive(Debug)]
pub struct OpDriver {
    /// Version tag of the most recent write; the next write gets
    /// `version + 1`.
    pub version: u64,
    /// Workload ops applied so far: the index a [`DriveError`] reports.
    applied: usize,
}

/// A workload op the engine refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriveError {
    /// Position of the op in the stream this driver was fed.
    pub index: usize,
    /// The refused op.
    pub op: WorkloadOp,
    /// The engine's reason.
    pub error: FtlError,
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op #{} ({:?}): {}", self.index, self.op, self.error)
    }
}

impl std::error::Error for DriveError {}

impl OpDriver {
    /// A driver whose first write carries `version + 1`.
    pub fn new(version: u64) -> Self {
        OpDriver {
            version,
            applied: 0,
        }
    }

    /// Apply one workload op, charged to `tenant` if given. Returns the
    /// host op issued and its completion, or `None` for an idle gap.
    pub fn apply(
        &mut self,
        engine: &mut FtlEngine,
        op: WorkloadOp,
        tenant: Option<TenantId>,
    ) -> Result<Option<(HostOp, Completion)>, DriveError> {
        let index = self.applied;
        self.applied += 1;
        let (kind, lpn) = match op {
            WorkloadOp::Write(lpn) => {
                self.version += 1;
                let version = self.version;
                (HostOpKind::Write { version }, lpn)
            }
            WorkloadOp::Read(lpn) => (HostOpKind::Read, lpn),
            WorkloadOp::Trim(lpn) => (HostOpKind::Trim, lpn),
            WorkloadOp::Idle(ticks) => {
                for _ in 0..ticks {
                    engine.idle_tick();
                }
                return Ok(None);
            }
        };
        let host = HostOp { kind, lpn, tenant };
        match engine.submit(host) {
            Ok(done) => Ok(Some((host, done))),
            Err(error) => Err(DriveError { index, op, error }),
        }
    }

    /// Apply a whole stream of untagged ops. Panics on a refused op: the
    /// generators and recorded traces fed here stay inside the logical
    /// space they were built for.
    pub fn run(&mut self, engine: &mut FtlEngine, ops: impl IntoIterator<Item = WorkloadOp>) {
        for op in ops {
            self.apply(engine, op, None)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Apply `n` operations from a workload generator.
pub fn drive(engine: &mut FtlEngine, gen: impl Iterator<Item = WorkloadOp>, n: u64) {
    OpDriver::new(1 << 32).run(engine, gen.take(n as usize));
}

/// Replay a recorded [`Trace`] against an engine with every op charged to
/// its tenant, so tenant accounting applies. Writes carry the version
/// tags `version + 1, version + 2, …`.
pub fn replay_trace(engine: &mut FtlEngine, trace: &Trace, version: u64) {
    let mut driver = OpDriver::new(version);
    for (op, tenant) in trace.iter_with_tenants() {
        driver
            .apply(engine, op, Some(tenant))
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Fill the device, then reach GC steady state with `logical / 2` uniform
/// updates drawn from `seed`. Returns the stream to measure with.
pub fn warm_up_uniform(engine: &mut FtlEngine, seed: u64) -> Uniform {
    fill_sequential(engine);
    let logical = engine.geometry().logical_pages();
    let mut gen = Uniform::new(seed, logical);
    drive(engine, &mut gen, logical / 2);
    gen
}

/// [`warm_up_uniform`], then the IO delta of `writes` more updates from the
/// same stream.
pub fn measure_uniform(engine: &mut FtlEngine, writes: u64, seed: u64) -> IoStats {
    let mut gen = warm_up_uniform(engine, seed);
    let snap = engine.device().stats().clone();
    drive(engine, &mut gen, writes);
    engine.device().stats().since(&snap)
}
