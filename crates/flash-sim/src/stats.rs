//! Purpose-tagged IO accounting.
//!
//! Every device operation carries an [`IoPurpose`] so that experiments can
//! decompose write-amplification exactly the way Figure 13 (bottom) of the
//! paper does: (1) application updates + garbage-collection of user data,
//! (2) synchronization operations + garbage-collection of translation
//! metadata, and (3) updates, GC queries and garbage-collection of page
//! validity metadata.
//!
//! Write-amplification follows the paper's §5 definition:
//! `WA = i_writes + i_reads / δ`, where `i_writes`/`i_reads` are internal
//! flash writes/reads per logical page update and `δ` is the write/read
//! latency ratio.

/// Why a flash IO happened. Used to attribute costs to FTL components.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoPurpose {
    /// Application write of a user page (the logical update itself).
    UserWrite,
    /// Application read of a user page.
    UserRead,
    /// Migration of a live user page during garbage-collection.
    GcMigrateUser,
    /// Reading/writing translation pages during synchronization operations.
    TranslationSync,
    /// Reading a translation page to serve an application *read* miss
    /// (read-amplification `RA` in the paper's slowdown formula; not part of
    /// write-amplification).
    TranslationFetch,
    /// Migration of live translation pages during garbage-collection.
    TranslationGc,
    /// Formatting: initial materialization of translation pages.
    TranslationInit,
    /// Updates to page-validity metadata (PVB page rewrites, Gecko buffer
    /// flushes, PVL appends).
    ValidityUpdate,
    /// GC queries against page-validity metadata.
    ValidityQuery,
    /// Merge operations inside Logarithmic Gecko (or PVL cleaning).
    ValidityMerge,
    /// Migration of live validity-metadata pages during garbage-collection.
    ValidityGc,
    /// Wear leveling (Appendix D). Not simulated, so no IO is charged to
    /// it; kept because `benchmark/`'s API contract names every purpose.
    WearLevel,
    /// IO performed by recovery algorithms after power failure.
    Recovery,
    /// Preconditioning writes that fill the device before measurement.
    Fill,
}

impl IoPurpose {
    /// All purposes, for iteration in reports.
    pub const ALL: [IoPurpose; 14] = [
        IoPurpose::UserWrite,
        IoPurpose::UserRead,
        IoPurpose::GcMigrateUser,
        IoPurpose::TranslationSync,
        IoPurpose::TranslationFetch,
        IoPurpose::TranslationGc,
        IoPurpose::TranslationInit,
        IoPurpose::ValidityUpdate,
        IoPurpose::ValidityQuery,
        IoPurpose::ValidityMerge,
        IoPurpose::ValidityGc,
        IoPurpose::WearLevel,
        IoPurpose::Recovery,
        IoPurpose::Fill,
    ];

    /// Stable dense index of this purpose (the order of the internal
    /// accounting arrays; also the purpose code telemetry IO events carry).
    pub fn index(self) -> usize {
        match self {
            IoPurpose::UserWrite => 0,
            IoPurpose::UserRead => 1,
            IoPurpose::GcMigrateUser => 2,
            IoPurpose::TranslationSync => 3,
            IoPurpose::TranslationGc => 4,
            IoPurpose::TranslationInit => 5,
            IoPurpose::ValidityUpdate => 6,
            IoPurpose::ValidityQuery => 7,
            IoPurpose::ValidityMerge => 8,
            IoPurpose::ValidityGc => 9,
            IoPurpose::WearLevel => 10,
            IoPurpose::Recovery => 11,
            IoPurpose::Fill => 12,
            IoPurpose::TranslationFetch => 13,
        }
    }

    const COUNT: usize = 14;

    /// Short stable label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            IoPurpose::UserWrite => "user_write",
            IoPurpose::UserRead => "user_read",
            IoPurpose::GcMigrateUser => "gc_migrate_user",
            IoPurpose::TranslationSync => "translation_sync",
            IoPurpose::TranslationFetch => "translation_fetch",
            IoPurpose::TranslationGc => "translation_gc",
            IoPurpose::TranslationInit => "translation_init",
            IoPurpose::ValidityUpdate => "validity_update",
            IoPurpose::ValidityQuery => "validity_query",
            IoPurpose::ValidityMerge => "validity_merge",
            IoPurpose::ValidityGc => "validity_gc",
            IoPurpose::WearLevel => "wear_level",
            IoPurpose::Recovery => "recovery",
            IoPurpose::Fill => "fill",
        }
    }

    /// The Figure-13 category this purpose belongs to, or `None` if it is
    /// excluded from write-amplification (fill, recovery, app reads).
    pub fn wa_category(self) -> Option<WaCategory> {
        match self {
            IoPurpose::UserWrite | IoPurpose::GcMigrateUser => Some(WaCategory::User),
            IoPurpose::TranslationSync | IoPurpose::TranslationGc => Some(WaCategory::Translation),
            IoPurpose::ValidityUpdate
            | IoPurpose::ValidityQuery
            | IoPurpose::ValidityMerge
            | IoPurpose::ValidityGc => Some(WaCategory::Validity),
            IoPurpose::WearLevel => Some(WaCategory::User),
            IoPurpose::UserRead
            | IoPurpose::TranslationFetch
            | IoPurpose::TranslationInit
            | IoPurpose::Recovery
            | IoPurpose::Fill => None,
        }
    }
}

/// The three write-amplification categories of Figure 13 (bottom).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WaCategory {
    /// Application updates and garbage-collection of user data.
    User,
    /// Synchronization operations and GC of translation metadata.
    Translation,
    /// Updates, GC queries and GC of page-validity metadata.
    Validity,
}

impl WaCategory {
    /// All categories in report order.
    pub const ALL: [WaCategory; 3] = [
        WaCategory::User,
        WaCategory::Translation,
        WaCategory::Validity,
    ];

    /// Short stable label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            WaCategory::User => "user",
            WaCategory::Translation => "translation",
            WaCategory::Validity => "validity",
        }
    }
}

/// Raw operation counts for one purpose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Full-page reads.
    pub page_reads: u64,
    /// Full-page writes.
    pub page_writes: u64,
    /// Spare-area reads.
    pub spare_reads: u64,
    /// Block erases.
    pub erases: u64,
}

impl IoCounts {
    fn sub(self, other: IoCounts) -> IoCounts {
        IoCounts {
            page_reads: self.page_reads - other.page_reads,
            page_writes: self.page_writes - other.page_writes,
            spare_reads: self.spare_reads - other.spare_reads,
            erases: self.erases - other.erases,
        }
    }

    fn add_assign(&mut self, other: IoCounts) {
        self.page_reads += other.page_reads;
        self.page_writes += other.page_writes;
        self.spare_reads += other.spare_reads;
        self.erases += other.erases;
    }
}

/// Accumulated device statistics: per-purpose IO counts, simulated time and
/// the number of logical updates (used as the WA denominator). Also the
/// type of a delta between two points in time ([`IoStats::since`]).
#[derive(Clone, Debug, Default)]
pub struct IoStats {
    per_purpose: [IoCounts; IoPurpose::COUNT],
    /// Device busy time accumulated per purpose, in microseconds. The
    /// simulated clock advances by exactly this much per IO (single-lane
    /// time), so the purposes' busy times sum to the clock.
    busy_us: [f64; IoPurpose::COUNT],
    /// Number of logical page updates issued by the application. The FTL is
    /// responsible for bumping this once per application write.
    pub logical_writes: u64,
    /// Number of logical page reads issued by the application.
    pub logical_reads: u64,
}

impl IoStats {
    /// Record a full-page read.
    pub fn record_page_read(&mut self, purpose: IoPurpose) {
        self.per_purpose[purpose.index()].page_reads += 1;
    }

    /// Record a full-page write.
    pub fn record_page_write(&mut self, purpose: IoPurpose) {
        self.per_purpose[purpose.index()].page_writes += 1;
    }

    /// Record a spare-area read.
    pub fn record_spare_read(&mut self, purpose: IoPurpose) {
        self.per_purpose[purpose.index()].spare_reads += 1;
    }

    /// Record a block erase.
    pub fn record_erase(&mut self, purpose: IoPurpose) {
        self.per_purpose[purpose.index()].erases += 1;
    }

    /// Record `us` microseconds of device busy time for one purpose.
    pub fn record_busy_us(&mut self, purpose: IoPurpose, us: f64) {
        self.busy_us[purpose.index()] += us;
    }

    /// Nominal (serial) busy time accumulated for one purpose.
    pub fn busy_us(&self, purpose: IoPurpose) -> f64 {
        self.busy_us[purpose.index()]
    }

    /// Total nominal busy time across all purposes.
    pub fn total_busy_us(&self) -> f64 {
        self.busy_us.iter().sum()
    }

    /// Counts accumulated for one purpose.
    pub fn counts(&self, purpose: IoPurpose) -> IoCounts {
        self.per_purpose[purpose.index()]
    }

    /// Sum of counts across a set of purposes.
    pub fn total(&self) -> IoCounts {
        let mut t = IoCounts::default();
        for c in &self.per_purpose {
            t.add_assign(*c);
        }
        t
    }

    /// Difference between the current state and an earlier copy of it (a
    /// snapshot is a `clone()`): the interval metrics behind Figure 9's
    /// per-10k-write series.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        let mut delta = self.clone();
        for (slot, then) in delta.per_purpose.iter_mut().zip(earlier.per_purpose) {
            *slot = slot.sub(then);
        }
        for (slot, then) in delta.busy_us.iter_mut().zip(earlier.busy_us) {
            *slot -= then;
        }
        delta.logical_writes -= earlier.logical_writes;
        delta.logical_reads -= earlier.logical_reads;
        delta
    }

    /// Aggregate counts for one Figure-13 category.
    pub fn category_counts(&self, cat: WaCategory) -> IoCounts {
        let mut t = IoCounts::default();
        for p in IoPurpose::ALL {
            if p.wa_category() == Some(cat) {
                t.add_assign(self.counts(p));
            }
        }
        t
    }

    /// Write-amplification decomposition per the paper's metric
    /// `WA = i_writes + i_reads/δ`, normalized by logical writes.
    pub fn wa_breakdown(&self, delta: f64) -> WaBreakdown {
        let denom = self.logical_writes.max(1) as f64;
        let per_cat = |cat: WaCategory| {
            let c = self.category_counts(cat);
            (c.page_writes as f64 + c.page_reads as f64 / delta) / denom
        };
        WaBreakdown {
            user: per_cat(WaCategory::User),
            translation: per_cat(WaCategory::Translation),
            validity: per_cat(WaCategory::Validity),
            logical_writes: self.logical_writes,
        }
    }
}

/// Per-category write-amplification, as plotted in Figures 9 and 13.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaBreakdown {
    /// Application updates + GC of user data (includes the 1.0 of the
    /// application write itself).
    pub user: f64,
    /// Synchronization ops + GC of translation metadata.
    pub translation: f64,
    /// Page-validity metadata updates, GC queries, merges and GC.
    pub validity: f64,
    /// Number of logical writes this breakdown is normalized over.
    pub logical_writes: u64,
}

impl WaBreakdown {
    /// Total write-amplification across all categories.
    pub fn total(&self) -> f64 {
        self.user + self.translation + self.validity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back() {
        let mut s = IoStats::default();
        s.record_page_read(IoPurpose::ValidityQuery);
        s.record_page_write(IoPurpose::ValidityUpdate);
        s.record_spare_read(IoPurpose::Recovery);
        s.record_erase(IoPurpose::GcMigrateUser);
        assert_eq!(s.counts(IoPurpose::ValidityQuery).page_reads, 1);
        assert_eq!(s.counts(IoPurpose::ValidityUpdate).page_writes, 1);
        assert_eq!(s.counts(IoPurpose::Recovery).spare_reads, 1);
        assert_eq!(s.counts(IoPurpose::GcMigrateUser).erases, 1);
        assert_eq!(s.total().page_reads, 1);
    }

    #[test]
    fn snapshot_differencing() {
        let mut s = IoStats::default();
        s.record_page_write(IoPurpose::UserWrite);
        s.logical_writes = 1;
        let snap = s.clone();
        s.record_page_write(IoPurpose::UserWrite);
        s.record_page_read(IoPurpose::ValidityQuery);
        s.logical_writes = 3;
        let d = s.since(&snap);
        assert_eq!(d.counts(IoPurpose::UserWrite).page_writes, 1);
        assert_eq!(d.counts(IoPurpose::ValidityQuery).page_reads, 1);
        assert_eq!(d.logical_writes, 2);
    }

    #[test]
    fn wa_matches_paper_formula() {
        // A flash-resident PVB costs one page read and one page write per
        // update, i.e. WA ≈ 1 + 1/δ = 1.1 at δ=10 (paper §5.1).
        let mut s = IoStats::default();
        for _ in 0..1000 {
            s.record_page_read(IoPurpose::ValidityUpdate);
            s.record_page_write(IoPurpose::ValidityUpdate);
        }
        s.logical_writes = 1000;
        let wa = s.wa_breakdown(10.0);
        assert!((wa.validity - 1.1).abs() < 1e-9);
        assert_eq!(wa.user, 0.0);
    }

    #[test]
    fn categories_cover_expected_purposes() {
        assert_eq!(IoPurpose::UserWrite.wa_category(), Some(WaCategory::User));
        assert_eq!(
            IoPurpose::TranslationSync.wa_category(),
            Some(WaCategory::Translation)
        );
        assert_eq!(
            IoPurpose::ValidityMerge.wa_category(),
            Some(WaCategory::Validity)
        );
        assert_eq!(IoPurpose::Fill.wa_category(), None);
        assert_eq!(IoPurpose::Recovery.wa_category(), None);
    }
}
