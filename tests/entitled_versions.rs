//! GeckoRec step 4b's read set stays on flash (ROADMAP item 10's check, the
//! gate for item 1).
//!
//! Step 4b reads translation pages in one pattern. For every page with a
//! version newer than the MIN flush watermark (`last_flush_seq`), it reads
//! the *base* — the newest version at or before the watermark — and every
//! later version, and diffs each against its predecessor. A version of that
//! set erased before the crash makes recovery diff against an older base, or
//! none, and silently miss the invalidations in between (DESIGN.md
//! invariants 2 and 6). App. C.2.2's no-erase list exists to keep them.
//!
//! The check drives uniform writes and, after every op, records every
//! translation-page version on flash (spare areas peeked without IO). It then
//! asks whether the base and every later version of each page, among the
//! versions ever seen, are still there.

use gecko_bench::harness::{small_gecko_engine, OpDriver};
use geckoftl::flash_sim::{Geometry, PageOffset, SpareInfo};
use geckoftl::ftl_workloads::Uniform;
use geckoftl::geckoftl_core::ftl::FtlEngine;
use std::collections::{BTreeSet, HashSet};

/// Translation-page versions ever seen on flash, as `(tpage, seq)`, newest
/// last per page.
type Seen = BTreeSet<(u32, u64)>;

/// Record the translation-page versions on flash now and return their
/// sequence numbers (unique device-wide).
fn versions_on_flash(engine: &FtlEngine, seen: &mut Seen) -> HashSet<u64> {
    let dev = engine.device();
    let geo = dev.geometry();
    let mut on_flash = HashSet::new();
    for b in geo.iter_blocks() {
        for off in 0..dev.written_pages(b) {
            let ppn = geo.ppn(b, PageOffset(off));
            if let Some(spare) = dev.peek_spare(ppn) {
                if let SpareInfo::Translation { tpage } = spare.info {
                    if dev.is_written(ppn) {
                        seen.insert((tpage, spare.seq));
                        on_flash.insert(spare.seq);
                    }
                }
            }
        }
    }
    on_flash
}

/// The first version of step 4b's read set that is gone from flash, as
/// `(tpage, seq, watermark)`.
fn missing_entitled_version(engine: &FtlEngine, seen: &mut Seen) -> Option<(u32, u64, u64)> {
    let on_flash = versions_on_flash(engine, seen);
    let watermark = engine.backend().gecko().expect("gecko").last_flush_seq();
    let tpages = engine.device().geometry().translation_pages();
    for tpage in 0..tpages {
        let mut versions = seen.range((tpage, 0)..=(tpage, u64::MAX)).map(|&(_, s)| s);
        let newer: Vec<u64> = versions.clone().filter(|&s| s > watermark).collect();
        if newer.is_empty() {
            continue;
        }
        let base = versions.rfind(|&s| s <= watermark);
        if let Some(&seq) = base.iter().chain(&newer).find(|s| !on_flash.contains(s)) {
            return Some((tpage, seq, watermark));
        }
    }
    None
}

/// Op boundaries (of `ops` uniform writes) at which step 4b's read set was
/// incomplete, and the first such miss.
fn misses(shards: u32, ops: usize) -> (usize, Option<(usize, u32, u64, u64)>) {
    let geo = Geometry::tiny();
    let mut engine = small_gecko_engine(geo, 32, shards);
    let mut driver = OpDriver::new(0);
    let mut seen = Seen::new();
    let mut count = 0;
    let mut first = None;
    for (i, op) in Uniform::new(7, geo.logical_pages()).take(ops).enumerate() {
        driver.apply(&mut engine, op, None).expect("in range");
        if let Some((tpage, seq, watermark)) = missing_entitled_version(&engine, &mut seen) {
            count += 1;
            first.get_or_insert((i, tpage, seq, watermark));
        }
    }
    (count, first)
}

#[test]
fn recovery_read_set_stays_on_flash_with_one_tree() {
    let (count, first) = misses(1, 4_000);
    assert_eq!(
        count, 0,
        "first miss (op, tpage, seq, watermark): {first:?}"
    );
}

/// ROADMAP item 1 flips this: `FtlEngine::after_validity_op` lifts every
/// translation-block protection whenever the MIN shard watermark advances,
/// including protections taken after the new MIN, so a base another shard's
/// buffered reports still need can be erased.
#[test]
fn recovery_read_set_leaves_flash_with_four_trees_until_item_1() {
    let (count, _) = misses(4, 4_000);
    assert!(
        count > 0,
        "step 4b's read set stayed on flash at shards = 4, so a MIN-watermark \
         advance no longer releases protections taken after the new MIN \
         (ROADMAP item 1): assert zero misses here, as with one tree"
    );
}
