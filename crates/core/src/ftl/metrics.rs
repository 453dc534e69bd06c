//! Metrics registry integration: one [`MetricsSnapshot`] covering every
//! counter the engine and its substrate maintain — per-purpose IO counts
//! and busy time ([`flash_sim::IoStats`]), engine op counters
//! ([`super::EngineCounters`]), Gecko structure counters
//! ([`crate::gecko::GeckoStats`]), fault-injection counters
//! ([`flash_sim::FaultStats`]), block-retirement state, and per-lane span
//! summaries from the telemetry sink.
//!
//! Snapshots carry *cumulative* values; interval metrics come from
//! [`MetricsSnapshot::since`], mirroring the `IoStats::snapshot`/`since`
//! pattern. Names are dotted paths (`io.user_write.page_writes`,
//! `gecko.flushes`, `span.gc_collect.max_us`); see `docs/OBSERVABILITY.md`
//! for the full naming scheme.

use flash_sim::{IoPurpose, MetricsSnapshot, SpanKind, WaCategory};

use super::FtlEngine;
use crate::wear::WearStats;

impl FtlEngine {
    /// Snapshot every counter and gauge the engine exposes into a named
    /// metrics registry. Pure read: no IO, no clock movement.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        let stats = self.dev.stats();
        for p in IoPurpose::ALL {
            let c = stats.counts(p);
            let l = p.label();
            m.set_counter(&format!("io.{l}.page_reads"), c.page_reads);
            m.set_counter(&format!("io.{l}.page_writes"), c.page_writes);
            m.set_counter(&format!("io.{l}.spare_reads"), c.spare_reads);
            m.set_counter(&format!("io.{l}.erases"), c.erases);
            m.set_gauge(&format!("io.{l}.busy_us"), stats.busy_us(p));
        }
        m.set_counter("io.logical_writes", stats.logical_writes);
        m.set_counter("io.logical_reads", stats.logical_reads);

        let c = self.counters;
        m.set_counter("engine.writes", c.writes);
        m.set_counter("engine.reads", c.reads);
        m.set_counter("engine.syncs", c.syncs);
        m.set_counter("engine.syncs_aborted", c.syncs_aborted);
        m.set_counter("engine.checkpoints", c.checkpoints);
        m.set_counter("engine.gc_operations", c.gc_operations);
        m.set_counter("engine.gc_migrations", c.gc_migrations);
        m.set_counter("engine.gc_uip_skips", c.gc_uip_skips);
        m.set_counter("engine.trims", c.trims);

        // Per-tenant series (only tenants named by a submitted op appear;
        // single-tenant runs emit nothing extra).
        for (id, s) in self.tenant_stats() {
            let p = format!("tenant.{id}");
            m.set_counter(&format!("{p}.writes"), s.writes);
            m.set_counter(&format!("{p}.reads"), s.reads);
            m.set_counter(&format!("{p}.trims"), s.trims);
            m.set_counter(&format!("{p}.bytes_written"), s.bytes_written);
            m.set_counter(&format!("{p}.gc_operations"), s.gc_operations);
            m.set_counter(&format!("{p}.gc_migrations"), s.gc_migrations);
            m.set_gauge(&format!("{p}.gc_debt_us"), s.gc_debt_us);
            if s.writes > 0 {
                m.set_gauge(&format!("{p}.write_p99_us"), s.write_lat.quantile(0.99));
                m.set_gauge(&format!("{p}.write_max_us"), s.write_lat.max());
            }
            if s.reads > 0 {
                m.set_gauge(&format!("{p}.read_p99_us"), s.read_lat.quantile(0.99));
                m.set_gauge(&format!("{p}.read_max_us"), s.read_lat.max());
            }
        }

        // The aggregate is the primary series; each shard tree additionally
        // reports under `gecko.shard<N>.*` (see docs/OBSERVABILITY.md).
        if let Some(gecko) = self.backend.gecko() {
            gecko_stats_into(&mut m, "gecko", &gecko.stats());
            for (i, tree) in gecko.shard_trees().iter().enumerate() {
                gecko_stats_into(&mut m, &format!("gecko.shard{i}"), &tree.stats);
                m.set_gauge(
                    &format!("gecko.shard{i}.merge_backlog_pages"),
                    tree.merge_backlog_pages() as f64,
                );
            }
        }

        let f = self.dev.fault_stats();
        m.set_counter("fault.program_failures", f.program_failures);
        m.set_counter("fault.erase_failures", f.erase_failures);
        m.set_counter("fault.torn_writes", f.torn_writes);
        m.set_counter("fault.erase_crashes", f.erase_crashes);

        m.set_counter("bm.retired_blocks", self.bm.retired_blocks() as u64);

        let t = self.dev.telemetry();
        for kind in SpanKind::ALL {
            if let Some(h) = t.span_hist(kind) {
                let l = kind.label();
                m.set_counter(&format!("span.{l}.count"), h.count());
                m.set_gauge(&format!("span.{l}.max_us"), h.max());
                m.set_gauge(&format!("span.{l}.mean_us"), h.mean());
            }
        }
        m.set_gauge("recovery.last_us", (t.recovery_raw_us() / 1e6) * 1e6);
        m
    }
}

/// Register one [`crate::gecko::GeckoStats`] under a name prefix (`gecko`
/// for the aggregate, `gecko.shard<N>` per shard).
fn gecko_stats_into(m: &mut MetricsSnapshot, prefix: &str, s: &crate::gecko::GeckoStats) {
    m.set_counter(&format!("{prefix}.buffer_inserts"), s.buffer_inserts);
    m.set_counter(&format!("{prefix}.flushes"), s.flushes);
    m.set_counter(&format!("{prefix}.merges"), s.merges);
    m.set_counter(&format!("{prefix}.queries"), s.queries);
    m.set_counter(&format!("{prefix}.batch_queries"), s.batch_queries);
    m.set_counter(&format!("{prefix}.entries_dropped"), s.entries_dropped);
    m.set_counter(&format!("{prefix}.bloom_skips"), s.bloom_skips);
    m.set_counter(&format!("{prefix}.fence_probes"), s.fence_probes);
    m.set_counter(
        &format!("{prefix}.merge_pages_stepped"),
        s.merge_pages_stepped,
    );
    m.set_counter(
        &format!("{prefix}.merge_stall_drains"),
        s.merge_stall_drains,
    );
}

/// Fold wear-leveling statistics into a snapshot. The [`WearStats`] live in
/// the experiment harness (the leveler is driven externally), not in the
/// engine, hence the separate entry point.
pub fn wear_metrics_into(m: &mut MetricsSnapshot, w: &WearStats) {
    m.set_counter("wear.min_erases", w.min_erases as u64);
    m.set_counter("wear.max_erases", w.max_erases as u64);
    m.set_gauge("wear.avg_erases", w.avg_erases);
    m.set_counter("wear.scans_completed", w.scans_completed);
    m.set_counter("wear.spread", w.spread() as u64);
}

/// Total write-amplification computed from registry counter deltas,
/// bit-identical to `StatsSnapshot::wa_breakdown(delta).total()`: the same
/// purposes are summed per Figure-13 category in the same order with exact
/// `u64` adds, and the identical float expression is evaluated per category
/// before the three results are added left-to-right.
pub fn wa_total(d: &MetricsSnapshot, delta: f64) -> f64 {
    let denom = d.counter("io.logical_writes").max(1) as f64;
    let per_cat = |cat: WaCategory| {
        let mut pw = 0u64;
        let mut pr = 0u64;
        for p in [
            IoPurpose::UserWrite,
            IoPurpose::GcMigrateUser,
            IoPurpose::TranslationSync,
            IoPurpose::TranslationGc,
            IoPurpose::ValidityUpdate,
            IoPurpose::ValidityQuery,
            IoPurpose::ValidityMerge,
            IoPurpose::ValidityGc,
            IoPurpose::WearLevel,
        ] {
            if p.wa_category() == Some(cat) {
                let l = p.label();
                pw += d.counter(&format!("io.{l}.page_writes"));
                pr += d.counter(&format!("io.{l}.page_reads"));
            }
        }
        (pw as f64 + pr as f64 / delta) / denom
    };
    per_cat(WaCategory::User) + per_cat(WaCategory::Translation) + per_cat(WaCategory::Validity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::{Geometry, Lpn};

    fn exercised_engine() -> FtlEngine {
        let geo = Geometry::tiny();
        let mut ftl = FtlEngine::geckoftl(geo);
        let logical = geo.logical_pages();
        for i in 0..logical * 3 {
            ftl.write(Lpn((i % logical) as u32), i + 1);
        }
        ftl
    }

    #[test]
    fn registry_mirrors_native_counters() {
        let ftl = exercised_engine();
        let m = ftl.metrics();
        let stats = ftl.device().stats();
        assert_eq!(
            m.counter("io.user_write.page_writes"),
            stats.counts(IoPurpose::UserWrite).page_writes
        );
        assert_eq!(m.counter("io.logical_writes"), stats.logical_writes);
        assert_eq!(m.counter("engine.writes"), ftl.counters.writes);
        assert_eq!(
            m.counter("gecko.flushes"),
            ftl.backend.gecko().unwrap().stats().flushes
        );
        assert_eq!(
            m.gauge("io.user_write.busy_us"),
            stats.busy_us(IoPurpose::UserWrite)
        );
        assert_eq!(m.counter("bm.retired_blocks"), 0);
    }

    #[test]
    fn wa_total_is_bit_identical_to_native_breakdown() {
        let mut ftl = exercised_engine();
        let before_native = ftl.device().stats().snapshot();
        let before = ftl.metrics();
        let logical = ftl.geometry().logical_pages();
        for i in 0..logical * 2 {
            ftl.write(Lpn((i % logical) as u32), 1_000_000 + i);
        }
        let native = ftl
            .device()
            .stats()
            .since(&before_native)
            .wa_breakdown(10.0)
            .total();
        let from_registry = wa_total(&ftl.metrics().since(&before), 10.0);
        assert!(native > 1.0, "workload must amplify");
        assert_eq!(
            native.to_bits(),
            from_registry.to_bits(),
            "registry WA must replicate the native computation bit-for-bit"
        );
    }

    #[test]
    fn span_metrics_appear_once_telemetry_is_enabled() {
        let geo = Geometry::tiny();
        let mut ftl = FtlEngine::geckoftl(geo);
        let m = ftl.metrics();
        assert!(!m.contains("span.host_write.count"), "disabled: no lanes");
        ftl.telemetry_mut().enable(1024);
        let logical = geo.logical_pages();
        for i in 0..logical * 2 {
            ftl.write(Lpn((i % logical) as u32), i + 1);
        }
        let m = ftl.metrics();
        assert_eq!(m.counter("span.host_write.count"), logical * 2);
        assert!(m.gauge("span.host_write.max_us") > 0.0);
    }

    #[test]
    fn wear_stats_fold_in() {
        let w = WearStats {
            min_erases: 1,
            max_erases: 9,
            avg_erases: 4.5,
            scans_completed: 3,
        };
        let mut m = MetricsSnapshot::new();
        wear_metrics_into(&mut m, &w);
        assert_eq!(m.counter("wear.spread"), 8);
        assert_eq!(m.gauge("wear.avg_erases"), 4.5);
    }
}
