//! # gecko-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation, shared simulation drivers, and plain-text/CSV reporting.
//!
//! Run everything with the `reproduce` binary:
//!
//! ```text
//! cargo run --release -p gecko-bench --bin reproduce -- all
//! ```
//!
//! Experiments use scaled-down device geometries (see docs/DESIGN.md,
//! "Simulated time"): RAM and
//! recovery comparisons come from the analytical models at full paper scale
//! (as in the paper), write-amplification comparisons from simulation.

pub mod experiments;
pub mod fuzz;
pub mod golden;
pub mod harness;
pub mod report;

pub use harness::{drive, fill_sequential, measure_uniform, replay_trace, sim_geometry};
pub use report::{format_table, write_csv, Table};
