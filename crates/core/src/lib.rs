//! # geckoftl-core
//!
//! The paper's primary contribution: **Logarithmic Gecko** (a write-optimized
//! flash-resident replacement for the Page Validity Bitmap) and **GeckoFTL**,
//! the page-associative flash translation layer built around it
//! (Dayan, Bonnet, Idreos: *GeckoFTL: Scalable Flash Translation Techniques
//! For Very Large Flash Devices*, SIGMOD 2016).
//!
//! Layering, bottom-up:
//!
//! * [`gecko`] — the Logarithmic Gecko structure (§3): buffer, runs, levels,
//!   merges, GC queries, entry-partitioning and its cost model.
//! * [`validity`] — the [`validity::ValidityStore`] abstraction that lets the
//!   same FTL engine run on a RAM/flash PVB, a page validity log, or
//!   Logarithmic Gecko (how the paper's five FTLs are compared).
//! * [`cache`] — the RAM-resident LRU mapping cache with dirty / UIP /
//!   uncertainty flags and epoch checkpoints (§4, §4.3).
//! * [`translation`] — the flash-resident translation table + Global Mapping
//!   Directory, with batched synchronization operations (§4, DFTL-style).
//! * [`ftl`] — the FTL engine: block groups, BVC, garbage collection with
//!   either the greedy or the metadata-aware victim policy (§4.2).
//! * [`recovery`] — GeckoRec, the 8-step power-failure recovery algorithm
//!   (§4.3 + Appendix C), including deferred synchronization and flag
//!   correction.
//!
//! Appendix D's wear leveling is not simulated (`docs/DESIGN.md`,
//! "Deviations from the paper").
//!
//! The ready-made GeckoFTL configuration lives in [`ftl::FtlEngine`] via
//! [`ftl::FtlConfig::geckoftl`]; baseline FTLs (DFTL, LazyFTL, µ-FTL,
//! IB-FTL) are assembled from the same engine in the `ftl-baselines` crate.

pub mod cache;
pub mod ftl;
pub mod gecko;
pub mod recovery;
pub mod translation;
pub mod validity;

pub use cache::{CacheEntry, MappingCache};
pub use ftl::{
    Completion, FtlConfig, FtlEngine, FtlError, GcPolicy, HostOp, HostOpKind, RecoveryPolicy,
    TenantId, TenantStats,
};
pub use gecko::{Bitmap, GeckoConfig, GeckoEntry, GeckoKey, LogGecko};
pub use recovery::{RecoveryReport, RecoveryStep};
pub use translation::TranslationTable;
pub use validity::{MetaSink, ValidityStore};
