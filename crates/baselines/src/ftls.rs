//! Ready-made baseline FTL configurations (paper §5.3).

use crate::pvb::{FlashPvb, RamPvb};
use crate::pvl::PvlStore;
use flash_sim::Geometry;
use geckoftl_core::ftl::{FtlConfig, FtlEngine, GcPolicy, RecoveryPolicy, ValidityBackend};
use geckoftl_core::gecko::GeckoConfig;

/// The five FTLs of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// DFTL \[22\]: RAM PVB, battery-backed recovery, greedy GC.
    Dftl,
    /// LazyFTL \[26\]: RAM PVB, restricted dirty fraction, greedy GC.
    LazyFtl,
    /// µ-FTL \[24\]: flash-resident PVB, battery, greedy GC.
    MuFtl,
    /// IB-FTL \[18\]: page validity log + cleaning, restricted dirty fraction,
    /// greedy GC.
    IbFtl,
    /// GeckoFTL: Logarithmic Gecko, checkpoints + deferred synchronization,
    /// metadata-aware GC.
    GeckoFtl,
}

impl BaselineKind {
    /// All five FTLs in the paper's presentation order.
    pub const ALL: [BaselineKind; 5] = [
        BaselineKind::Dftl,
        BaselineKind::LazyFtl,
        BaselineKind::MuFtl,
        BaselineKind::IbFtl,
        BaselineKind::GeckoFtl,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Dftl => "DFTL",
            BaselineKind::LazyFtl => "LazyFTL",
            BaselineKind::MuFtl => "u-FTL",
            BaselineKind::IbFtl => "IB-FTL",
            BaselineKind::GeckoFtl => "GeckoFTL",
        }
    }

    /// Whether the FTL depends on a battery for recovery (Figure 13).
    pub fn needs_battery(self) -> bool {
        matches!(self, BaselineKind::Dftl | BaselineKind::MuFtl)
    }

    /// The FTL's recovery policy in the shared engine.
    pub fn recovery_policy(self) -> RecoveryPolicy {
        match self {
            BaselineKind::Dftl | BaselineKind::MuFtl => RecoveryPolicy::Battery,
            BaselineKind::LazyFtl | BaselineKind::IbFtl => RecoveryPolicy::RestrictedDirty,
            BaselineKind::GeckoFtl => RecoveryPolicy::CheckpointDeferred,
        }
    }

    /// The FTL's garbage-collection policy.
    pub fn gc_policy(self) -> GcPolicy {
        match self {
            BaselineKind::GeckoFtl => GcPolicy::MetadataAware,
            _ => GcPolicy::GreedyAll,
        }
    }
}

/// Build an FTL of the given kind with paper-scaled defaults for `geo`.
pub fn build(kind: BaselineKind, geo: Geometry) -> FtlEngine {
    build_with(
        kind,
        geo,
        FtlConfig {
            cache_entries: FtlConfig::scaled_cache_entries(&geo),
            gc_policy: kind.gc_policy(),
            recovery: kind.recovery_policy(),
            qos_headroom_blocks: 0,
        },
    )
}

/// Build an FTL of the given kind with an explicit engine configuration
/// (used by the Figure 14 experiment, which resizes caches and equalizes the
/// GC scheme).
pub fn build_with(kind: BaselineKind, geo: Geometry, cfg: FtlConfig) -> FtlEngine {
    match kind {
        BaselineKind::Dftl | BaselineKind::LazyFtl => FtlEngine::format(
            geo,
            cfg,
            ValidityBackend::External(Box::new(RamPvb::new(geo))),
        ),
        // The flash PVB is materialized on the device the engine will use.
        BaselineKind::MuFtl => FtlEngine::format_with(geo, cfg, |dev, bm| {
            ValidityBackend::External(Box::new(FlashPvb::format(geo, dev, bm)))
        }),
        BaselineKind::IbFtl => FtlEngine::format(
            geo,
            cfg,
            ValidityBackend::External(Box::new(PvlStore::new(geo))),
        ),
        BaselineKind::GeckoFtl => FtlEngine::format(
            geo,
            cfg,
            ValidityBackend::gecko_for(geo, GeckoConfig::paper_default(&geo)),
        ),
    }
}
