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

/// Process-wide smoke switch: `reproduce --smoke` shrinks the heavy
/// experiments to CI-sized runs (and skips rewriting committed JSON
/// baselines). Plain `cargo test` never sets it, so the release-only
/// experiment tests always exercise the full configuration.
pub mod smoke {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SMOKE: AtomicBool = AtomicBool::new(false);

    /// Turn smoke mode on or off (set once, before experiments run).
    pub fn set(on: bool) {
        SMOKE.store(on, Ordering::Relaxed);
    }

    /// Whether experiments should run their shrunken smoke configuration.
    pub fn on() -> bool {
        SMOKE.load(Ordering::Relaxed)
    }
}

/// Process-wide trace switch: `reproduce <exp> --trace out.json` makes the
/// experiments that support it (currently `merge_latency`) record telemetry
/// over the measured interval and export a Chrome Trace Event Format JSON
/// timeline (load it in `chrome://tracing` / Perfetto).
pub mod tracing {
    use std::sync::OnceLock;

    static PATH: OnceLock<String> = OnceLock::new();

    /// Set the trace output path (set once, before experiments run).
    pub fn set(path: &str) {
        let _ = PATH.set(path.to_string());
    }

    /// The trace output path, if `--trace` was given.
    pub fn path() -> Option<&'static str> {
        PATH.get().map(|s| s.as_str())
    }
}

/// Process-wide shard override: `reproduce <exp> --shards N` runs the
/// experiments that support it (currently `merge_latency`) with the
/// validity store split into N per-channel Gecko trees instead of one.
/// 0 (the default) means "use the experiment's own configuration".
pub mod shards {
    use std::sync::atomic::{AtomicU32, Ordering};

    static SHARDS: AtomicU32 = AtomicU32::new(0);

    /// Set the shard-count override (set once, before experiments run).
    pub fn set(n: u32) {
        SHARDS.store(n, Ordering::Relaxed);
    }

    /// The `--shards` override, if one was given.
    pub fn get() -> Option<u32> {
        match SHARDS.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }
}

pub use harness::{
    drive, fill_sequential, measure_uniform, replay_trace, sim_geometry, Driver, MeasuredInterval,
};
pub use report::{format_table, write_csv, Table};
