//! One module per table/figure of the paper's evaluation, plus ablations
//! and an empirical recovery experiment. Each experiment returns [`Table`]s
//! ready for printing or CSV export. No file records the paper-vs-measured
//! comparison yet: ROADMAP item 8's `reproduce report` is to generate
//! `docs/EXPERIMENTS.md` from these tables.

pub mod ablations;
pub mod endurance;
pub mod fig01_scaling;
pub mod fig09_pvb_vs_gecko;
pub mod fig10_partitioning;
pub mod fig11_capacity;
pub mod fig12_overprovisioning;
pub mod fig13_comparison;
pub mod fig14_ram_utilization;
pub mod gecko_query;
pub mod merge_latency;
pub mod mixed_workload;
pub mod multi_tenant;
pub mod recovery_exp;
pub mod table1_costs;

use crate::report::Table;

/// What the `reproduce` command line asks of the experiments it runs. The
/// default is the full configuration, which the release-only experiment
/// tests use.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// `--smoke`: shrink the heavy experiments (`merge_latency`,
    /// `multi_tenant`, `fuzz`) to CI-sized runs and skip rewriting the
    /// committed JSON baselines.
    pub smoke: bool,
    /// `--shards N`: split the validity store into N independent Gecko
    /// trees instead of one ([`HONOUR_SHARDS_AND_TRACE`]).
    pub shards: Option<u32>,
    /// `--trace FILE`: record telemetry over the measured interval and
    /// export a Chrome Trace Event Format JSON timeline
    /// ([`HONOUR_SHARDS_AND_TRACE`]; load it in `chrome://tracing` /
    /// Perfetto).
    pub trace: Option<String>,
}

/// The experiments that read [`RunOptions::shards`] and
/// [`RunOptions::trace`]; `reproduce` refuses either flag for any other.
pub const HONOUR_SHARDS_AND_TRACE: &[&str] = &["merge_latency"];

/// An experiment: a slug (CLI name / CSV prefix) and a runner.
pub struct Experiment {
    /// CLI name, e.g. `fig9`.
    pub slug: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// Runner producing the experiment's tables.
    pub run: fn(&RunOptions) -> Vec<Table>,
}

/// All experiments in paper order.
pub const ALL: &[Experiment] = &[
    Experiment {
        slug: "fig1",
        what: "RAM & recovery vs capacity (LazyFTL model)",
        run: fig01_scaling::run,
    },
    Experiment {
        slug: "table1",
        what: "per-op IO cost & RAM of validity stores",
        run: table1_costs::run,
    },
    Experiment {
        slug: "fig9",
        what: "Logarithmic Gecko (T sweep) vs flash PVB",
        run: fig09_pvb_vs_gecko::run,
    },
    Experiment {
        slug: "fig10",
        what: "entry-partitioning vs block size",
        run: fig10_partitioning::run,
    },
    Experiment {
        slug: "fig11",
        what: "write-amplification vs device capacity",
        run: fig11_capacity::run,
    },
    Experiment {
        slug: "fig12",
        what: "write-amplification vs over-provisioning",
        run: fig12_overprovisioning::run,
    },
    Experiment {
        slug: "fig13",
        what: "five-FTL comparison: RAM, recovery, WA",
        run: fig13_comparison::run,
    },
    Experiment {
        slug: "fig14",
        what: "RAM-plentiful scenario (70 MB budget)",
        run: fig14_ram_utilization::run,
    },
    Experiment {
        slug: "mixed",
        what: "mixed read/write generalization (§5 slowdown formula)",
        run: mixed_workload::run,
    },
    Experiment {
        slug: "gecko_query",
        what: "GC-query Bloom filters on vs off (bloom_bits_per_key 8 vs 0); emits BENCH_gecko_query.json",
        run: gecko_query::run,
    },
    Experiment {
        slug: "merge_latency",
        what: "write-latency tail: sync vs incremental merges; emits BENCH_merge_latency.json",
        run: merge_latency::run,
    },
    Experiment {
        slug: "multi_tenant",
        what: "per-tenant write latency under a noisy neighbour; emits BENCH_multi_tenant.json",
        run: multi_tenant::run,
    },
    Experiment {
        slug: "fuzz",
        what: "feedback-driven fault/crash fuzzing campaign; writes minimized failures to fuzz/corpus/",
        run: crate::fuzz::run,
    },
    Experiment {
        slug: "recovery",
        what: "empirical GeckoRec cost vs model",
        run: recovery_exp::run,
    },
    Experiment {
        slug: "ablations",
        what: "multi-way merge, GC policy, checkpoints",
        run: ablations::run,
    },
    Experiment {
        slug: "endurance",
        what: "erase pressure / device lifetime per FTL",
        run: endurance::run,
    },
];

/// Find an experiment by slug.
pub fn find(slug: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.slug == slug)
}
