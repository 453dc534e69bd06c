//! # ftl-models
//!
//! Closed-form models of integrated-RAM requirements and recovery times for
//! the five FTLs of the paper's evaluation. The paper produces Figure 1 and
//! the top/middle panels of Figure 13 from exactly such models ("we modeled
//! the sizes of their different data structures using the formulas in
//! Section 2 and Appendix B", "we modeled the number and types of flash IOs
//! ... needed to recover") — simulating a 2 TB device page-by-page is
//! neither necessary nor what the authors did.
//!
//! All models take a [`flash_sim::Geometry`] plus the cache size `C`, so the
//! same code produces the paper-scale numbers and the scaled-down
//! configurations used by the simulations (where the empirical
//! `FtlEngine::ram_report` can be cross-checked against them).

pub mod ram;
pub mod recovery;
pub mod sweep;

pub use ram::{ram_model, RamComponent, RamModel};
pub use recovery::{recovery_model, RecoveryComponent, RecoveryModel};
pub use sweep::{capacity_sweep, CapacityPoint};
