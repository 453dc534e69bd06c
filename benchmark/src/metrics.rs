//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and (end to end) its bound. `BENCHMARK.json` is generated from
//! these tables (`run.sh manifest`) and a unit test keeps the two equal.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the simulator, or of the simulated
/// device, would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A bound is at least three times the widest spread the metric showed over
/// ten runs with ten seeds, on any workload, in any of three batches (README,
/// "Bounds and steadiness"), and at most 0.25. Host-clock metrics are noisy
/// on the sandbox even after calibration; simulated-clock metrics repeat
/// bit-for-bit for a seed, so their bounds only cover the seed-to-seed
/// spread — `compare` prints the exact change beside the verdict.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_ops_per_s", "ops/s", Higher, 0.25),
    e2e("host_peak_rss_mb", "MB", Lower, 0.15),
    e2e("sim_iops", "ops/s", Higher, 0.10),
    e2e("sim_max_rate_ops_s", "ops/s", Higher, 0.25),
    e2e("sim_write_mean_us", "us", Lower, 0.10),
    e2e("sim_write_slowest_1pct_us", "us", Lower, 0.25),
    e2e("sim_write_slowest_0.1pct_us", "us", Lower, 0.25),
    e2e("sim_read_mean_us", "us", Lower, 0.10),
    e2e("sim_read_slowest_1pct_us", "us", Lower, 0.25),
    e2e("write_amp", "ratio", Lower, 0.10),
    e2e("ram_bytes", "B", Lower, 0.15),
    e2e("recovery_sim_ms", "ms", Lower, 0.25),
];

/// A metric of one layer (one repo module), from the traced run and the
/// layer drives. No bound: it explains an end-to-end change, it does not
/// gate one.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 99] = [
    // workloads (crates/workloads)
    pl("workloads.gen_ns_per_op", "ns", Lower),
    pl("workloads.writes", "count", Higher),
    pl("workloads.reads", "count", Higher),
    pl("workloads.trims", "count", Higher),
    pl("workloads.idle_ticks", "count", Higher),
    // ftl (core ftl/mod.rs, the host-op path)
    pl("ftl.host_write_p50_ns", "ns", Lower),
    pl("ftl.host_write_p99_ns", "ns", Lower),
    pl("ftl.host_write_max_ns", "ns", Lower),
    pl("ftl.host_read_p50_ns", "ns", Lower),
    pl("ftl.host_read_p99_ns", "ns", Lower),
    pl("ftl.host_trim_p50_ns", "ns", Lower),
    pl("ftl.host_idle_tick_mean_ns", "ns", Lower),
    pl("ftl.host_share_plain_pct", "%", Higher),
    pl("ftl.sim_write_p50_us", "us", Lower),
    pl("ftl.sim_write_p99_us", "us", Lower),
    pl("ftl.sim_write_p99.9_us", "us", Lower),
    pl("ftl.sim_write_max_us", "us", Lower),
    pl("ftl.sim_read_p50_us", "us", Lower),
    pl("ftl.sim_read_p99_us", "us", Lower),
    pl("ftl.sim_trim_p99_us", "us", Lower),
    pl("ftl.user_sim_share_pct", "%", Higher),
    pl("ftl.checkpoints_per_kop", "1/kop", Lower),
    // cache (core cache/)
    pl("cache.hit_rate", "ratio", Higher),
    pl("cache.dirty_fraction_mean", "ratio", Lower),
    pl("cache.ram_bytes", "B", Lower),
    pl("cache.drive_access_ns", "ns", Lower),
    pl("cache.drive_evictions_per_kop", "1/kop", Lower),
    // translation (core translation.rs)
    pl("translation.syncs_per_kop", "1/kop", Lower),
    pl("translation.sync_writes_per_op", "1/op", Lower),
    pl("translation.syncs_aborted", "count", Lower),
    pl("translation.fetch_reads_per_read", "1/op", Lower),
    pl("translation.wa", "ratio", Lower),
    pl("translation.sim_share_pct", "%", Lower),
    pl("translation.host_ns_per_sync_op", "ns", Lower),
    pl("translation.gmd_ram_bytes", "B", Lower),
    pl("translation.drive_lookup_ns", "ns", Lower),
    pl("translation.drive_sync_ns", "ns", Lower),
    // gecko (core gecko/, through validity::ValidityStore)
    pl("gecko.wa", "ratio", Lower),
    pl("gecko.sim_share_pct", "%", Lower),
    pl("gecko.flushes_per_kop", "1/kop", Lower),
    pl("gecko.merges_per_kop", "1/kop", Lower),
    pl("gecko.merge_pages_per_op", "1/op", Lower),
    pl("gecko.merge_stall_drains", "count", Lower),
    pl("gecko.backlog_pages_max", "count", Lower),
    pl("gecko.queries_per_kop", "1/kop", Lower),
    pl("gecko.reads_per_query", "1/op", Lower),
    pl("gecko.bloom_skip_rate", "ratio", Higher),
    pl("gecko.update_reads_per_op", "1/op", Lower),
    pl("gecko.update_writes_per_op", "1/op", Lower),
    pl("gecko.model_wa_ratio", "ratio", Lower),
    pl("gecko.stall_p99_us", "us", Lower),
    pl("gecko.stall_max_us", "us", Lower),
    pl("gecko.ram_bytes", "B", Lower),
    pl("gecko.drive_mark_invalid_mean_ns", "ns", Lower),
    pl("gecko.drive_mark_invalid_max_ns", "ns", Lower),
    pl("gecko.drive_pump_merges_ns", "ns", Lower),
    pl("gecko.drive_gc_query_ns", "ns", Lower),
    pl("gecko.drive_gc_query_batch8_ns", "ns", Lower),
    pl("gecko.drive_note_erase_ns", "ns", Lower),
    pl("gecko.drive_reads_per_query", "1/op", Lower),
    // gc (core ftl/block_manager.rs + ftl/engine_gc.rs)
    pl("gc.collects_per_kop", "1/kop", Lower),
    pl("gc.migrations_per_collect", "1/op", Lower),
    pl("gc.uip_skips_per_kop", "1/kop", Lower),
    pl("gc.user_wa", "ratio", Lower),
    pl("gc.sim_share_pct", "%", Lower),
    pl("gc.sim_us_per_collect", "us", Lower),
    pl("gc.host_ns_per_collect", "ns", Lower),
    pl("gc.host_share_pct", "%", Lower),
    pl("gc.free_blocks_min", "count", Higher),
    pl("gc.bvc_ram_bytes", "B", Lower),
    pl("gc.pick_victims_ns", "ns", Lower),
    // flash_sim (crates/flash-sim)
    pl("flash_sim.page_reads_per_op", "1/op", Lower),
    pl("flash_sim.page_writes_per_op", "1/op", Lower),
    pl("flash_sim.spare_reads_per_op", "1/op", Lower),
    pl("flash_sim.erases_per_kop", "1/kop", Lower),
    pl("flash_sim.host_ns_per_io", "ns", Lower),
    pl("flash_sim.overlap_credit_pct", "%", Higher),
    pl("flash_sim.drive_write_page_ns", "ns", Lower),
    pl("flash_sim.drive_read_page_ns", "ns", Lower),
    pl("flash_sim.drive_erase_block_ns", "ns", Lower),
    // recovery (core recovery/)
    pl("recovery.host_ms", "ms", Lower),
    pl("recovery.sim_ms_bid", "ms", Lower),
    pl("recovery.sim_ms_gmd", "ms", Lower),
    pl("recovery.sim_ms_run_directories", "ms", Lower),
    pl("recovery.sim_ms_buffer", "ms", Lower),
    pl("recovery.sim_ms_bvc", "ms", Lower),
    pl("recovery.sim_ms_dirty_entries", "ms", Lower),
    pl("recovery.spare_reads", "count", Lower),
    pl("recovery.page_reads", "count", Lower),
    pl("recovery.recovered_entries", "count", Lower),
    // telemetry (crates/telemetry)
    pl("telemetry.overhead_pct", "%", Lower),
    pl("telemetry.dropped_events", "count", Lower),
    // bench (the instrument itself)
    pl("bench.trace_overhead_pct", "%", Lower),
    pl("bench.host_section_spread_pct", "%", Lower),
    pl("bench.crash_points", "count", Higher),
    pl("bench.untraced_ops_per_s", "ops/s", Higher),
    pl("bench.traced_ops_per_s", "ops/s", Higher),
    pl("bench.spans_recorded", "count", Higher),
    pl("bench.sim_identity_checks", "count", Higher),
];

/// A measured value with its unit, ready to print.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects measured values against one of the tables above and refuses
/// names the table does not hold, so a printed metric is always a declared
/// one.
pub struct Report {
    table: Vec<(&'static str, &'static str)>,
    pub values: Vec<Value>,
}

impl Report {
    pub fn end_to_end() -> Self {
        Report {
            table: END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            values: Vec::new(),
        }
    }

    pub fn per_layer() -> Self {
        Report {
            table: PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        assert!(value.is_finite(), "metric {name} is not a finite number");
        assert!(
            !self.values.iter().any(|v| v.name == name),
            "metric {name} set twice"
        );
        self.values.push(Value { name, value, unit });
    }

    /// Declared metrics that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.iter().any(|v| v.name == *n))
            .collect()
    }
}
