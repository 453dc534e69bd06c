//! Every baseline FTL must preserve data under garbage-collection pressure:
//! the paper's comparisons are only meaningful if all five are correct.

use flash_sim::{Geometry, Lpn};
use ftl_baselines::{build, BaselineKind};
use ftl_workloads::Oracle;
use std::collections::HashMap;

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn exercise(kind: BaselineKind) {
    let geo = Geometry::tiny();
    let mut engine = build(kind, geo);
    let mut oracle = Oracle::new(geo.logical_pages());
    let mut rng = Lcg(kind as u64 + 1);
    let logical = geo.logical_pages();
    for i in 0..6000u64 {
        let lpn = Lpn((rng.next() % logical) as u32);
        engine.write(lpn, i);
        oracle.ack_write(lpn, i);
        if rng.next().is_multiple_of(5) {
            let r = Lpn((rng.next() % logical) as u32);
            assert_eq!(
                engine.read(r),
                oracle.expected(r),
                "{}: read-your-writes for {r:?} at i={i}",
                kind.name()
            );
        }
    }
    assert!(
        engine.counters.gc_operations > 10,
        "{}: GC must run",
        kind.name()
    );
    let res = oracle.verify(|lpn| engine.read(lpn));
    assert_eq!(res, Ok(()), "{}: post-check", kind.name());
}

#[test]
fn dftl_preserves_data() {
    exercise(BaselineKind::Dftl);
}

#[test]
fn lazyftl_preserves_data() {
    exercise(BaselineKind::LazyFtl);
}

#[test]
fn mu_ftl_preserves_data() {
    exercise(BaselineKind::MuFtl);
}

#[test]
fn ib_ftl_preserves_data() {
    exercise(BaselineKind::IbFtl);
}

#[test]
fn geckoftl_preserves_data() {
    exercise(BaselineKind::GeckoFtl);
}

#[test]
fn validity_wa_ordering_matches_table_1() {
    // Steady-state validity-metadata WA: RAM PVB < Gecko < flash PVB.
    let geo = Geometry::tiny();
    let mut wa = HashMap::new();
    for kind in [
        BaselineKind::Dftl,
        BaselineKind::GeckoFtl,
        BaselineKind::MuFtl,
    ] {
        let mut engine = build(kind, geo);
        let mut rng = Lcg(99);
        let logical = geo.logical_pages() as u32;
        // Precondition.
        for i in 0..4000u64 {
            engine.write(Lpn((rng.next() % logical as u64) as u32), i);
        }
        let snap = engine.device().stats().clone();
        for i in 0..4000u64 {
            engine.write(Lpn((rng.next() % logical as u64) as u32), i);
        }
        let delta = engine.device().stats().since(&snap);
        wa.insert(kind, delta.wa_breakdown(10.0).validity);
    }
    let ram = wa[&BaselineKind::Dftl];
    let gecko = wa[&BaselineKind::GeckoFtl];
    let flash = wa[&BaselineKind::MuFtl];
    assert!(
        ram < gecko,
        "RAM PVB ({ram:.3}) must beat Gecko ({gecko:.3}) on IO"
    );
    assert!(
        gecko < flash,
        "Gecko ({gecko:.3}) must beat flash PVB ({flash:.3})"
    );
    assert!(flash > 0.9, "flash PVB WA ≈ 1 + 1/δ, got {flash:.3}");
}

#[test]
fn battery_ftls_have_unbounded_dirty_entries() {
    let geo = Geometry::tiny();
    let mut engine = build(BaselineKind::Dftl, geo);
    let logical = geo.logical_pages() as u32;
    let c = engine.config().cache_entries;
    let mut rng = Lcg(5);
    let mut max_dirty = 0;
    for i in 0..3000u64 {
        engine.write(Lpn((rng.next() % logical as u64) as u32), i);
        max_dirty = max_dirty.max(engine.cache().dirty_count());
    }
    assert!(
        max_dirty > c / 2,
        "battery FTL should let dirty entries accumulate (saw {max_dirty} of {c})"
    );
}

#[test]
fn restricted_ftls_bound_dirty_entries() {
    let geo = Geometry::tiny();
    for kind in [BaselineKind::LazyFtl, BaselineKind::IbFtl] {
        let mut engine = build(kind, geo);
        let c = engine.config().cache_entries;
        let logical = geo.logical_pages() as u32;
        let mut rng = Lcg(6);
        for i in 0..3000u64 {
            engine.write(Lpn((rng.next() % logical as u64) as u32), i);
            assert!(
                engine.cache().dirty_count() <= (c / 10).max(1),
                "{}: dirty {} exceeds 10% of {c}",
                kind.name(),
                engine.cache().dirty_count()
            );
        }
    }
}
