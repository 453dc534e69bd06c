//! # ftl-workloads
//!
//! Workload generators for FTL experiments. The paper's evaluation uses
//! uniformly random page updates as its adversarial workload (§5.1: it
//! minimizes the coalescing Gecko's buffer can do and is fair to the
//! workload-insensitive PVB); this crate also provides zipfian and hot/cold
//! generators, mixed read/write streams, scenario shapes and trace
//! record/replay for broader experiments and ablations, and the
//! acknowledged-state [`Oracle`] every crash test checks a replay against.

pub mod generators;
pub mod oracle;
pub mod shapes;
pub mod trace;

pub use generators::{HotCold, Mixed, Uniform, WorkloadOp, Zipfian};
pub use oracle::Oracle;
pub use shapes::{BurstyDiurnal, OverwriteStorm, Scan, TenantMix, TrimWave};
pub use trace::{TenantId, Trace};
