//! A reference GeckoRec: Appendix C applied literally to a crash image, and
//! the differential check that holds the library's recovery to it.
//!
//! The reference charges the image no IO and takes no shortcut. It reads
//! every page and spare area through `peek_*`, with no checkpoint horizon,
//! no spare-area run liveness and no erase timestamps:
//!
//! 1. **BID.** A block's group is its newest readable spare area's.
//! 2. **GMD.** Every translation page whose spare area and data read back is
//!    a version of the page its spare area names.
//! 3. **Run directories.** Every page of a run group carries the same id,
//!    span, level and page count in its spare tag. Every page whose payload
//!    survives is read in full: its entries are sorted, their first and last
//!    key are the range its tag names, and ranges increase from page to
//!    page. A group is complete if a merge reclaimed it or it holds as many
//!    pages as its tags count. Every complete group whose payloads survive
//!    gets its directory from those payload-derived ranges, and each shard's
//!    runs are walked newest first by id: a run whose span lies strictly
//!    inside a kept run's span is a merged-away leftover. Each tree's flush
//!    watermark is the newest span end the spare tags of its complete run
//!    groups carry, merged-away leftovers included.
//! 4. **Buffer.** (a) A block gets an erase marker if it is free, erased
//!    after its owning tree's watermark, or whose first page was written
//!    after it: the paper's rule, first-page clause included. (b) Every
//!    surviving translation version is diffed against the version it names,
//!    and each target is checked with a spare read: it still holds the
//!    entry's LPN, written before the base's mappings were current.
//! 5. **BVC.** Each user block's written pages minus those the store built
//!    so far calls invalid.
//! 6. **Dirty entries.** Every user page's before-pointer is re-derived,
//!    with the same spare check against the page's own seq; every torn user
//!    page is reported invalid, and counted so in BVC. A page of a bad user
//!    block is stale if a newer copy of its LPN is on flash, or the newest
//!    translation version maps its LPN elsewhere with mappings current after
//!    it was written.
//! 8. **Resume.** The recreated entries that did not fit the cache are
//!    synced before the engine resumes (App. C.3's corrections, made
//!    eagerly): each version those syncs wrote is diffed like any other, and
//!    what it reports is counted in BVC once.
//!
//! Its answers go through the library's public surface only:
//! [`LogGecko::from_recovered`], `recover_*` and
//! [`LogGecko::gc_query_naive`]; its watermarks do not go through the
//! library at all.
//!
//! [`check_recovery`] recovers a clone of an image with [`gecko_recover`]
//! and asserts that its flush watermarks and every user block's GC answer
//! and BVC equal the reference's. Where the library skips work (run pages
//! left unread, the scan stopped at the checkpoint horizon, an erase
//! timestamp read instead of a spare area), the reference does it, so a
//! skip that loses a fact fails here.

use flash_sim::{BlockId, FlashDevice, Lpn, MetaKind, MetaTag, PageOffset, Ppn, Spare, SpareInfo};
use geckoftl_core::ftl::FtlConfig;
use geckoftl_core::gecko::{
    Bitmap, GeckoConfig, GeckoKey, GeckoPagePayload, LogGecko, Run, RunDirEntry, RunId, RunMeta,
};
use geckoftl_core::recovery::gecko_recover;
use geckoftl_core::translation::TranslationPagePayload;
use std::collections::{BTreeMap, HashMap, HashSet};

/// What the reference recovers for one user block: the GC answer and BVC.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockAnswer {
    pub invalid: Bitmap,
    pub valid_pages: u32,
}

/// Recover `image` with [`gecko_recover`] on a clone and assert that its
/// flush watermarks (`RecoveryReport::flush_watermarks`), and every user
/// block's GC answer (`debug_validity`) and BVC, equal the reference's. The
/// image itself is left as it is, so a caller's own recovery of it runs
/// unchanged.
pub fn check_recovery(image: &FlashDevice, cfg: FtlConfig, gecko_cfg: GeckoConfig) {
    let (mut engine, report) = gecko_recover(image.clone(), cfg, gecko_cfg);
    let (watermarks, expected) = reference_recover(image, engine.device(), gecko_cfg);
    assert_eq!(
        report.flush_watermarks, watermarks,
        "GeckoRec and the reference disagree on the flush watermarks"
    );
    for (&b, want) in &expected {
        let got = BlockAnswer {
            invalid: engine.debug_validity(b),
            valid_pages: engine.block_manager().valid_pages(b),
        };
        assert_eq!(got, *want, "B{}: GeckoRec and the reference disagree", b.0);
    }
}

/// A translation-page version found on flash.
struct Version {
    tpage: u32,
    seq: u64,
    ppn: Ppn,
    before: Option<Ppn>,
}

/// Every translation-page version on `dev` whose spare area and data read
/// back.
fn translation_versions(dev: &FlashDevice) -> impl Iterator<Item = Version> + '_ {
    let geo = dev.geometry();
    geo.iter_blocks()
        .flat_map(move |b| (0..dev.written_pages(b)).map(move |off| geo.ppn(b, PageOffset(off))))
        .filter(|&ppn| dev.is_written(ppn))
        .filter_map(|ppn| match dev.peek_spare(ppn)? {
            Spare {
                seq,
                info: SpareInfo::Translation { tpage, before },
            } => Some(Version {
                tpage,
                seq,
                ppn,
                before,
            }),
            _ => None,
        })
}

/// The user pages version `v` on `dev` reports invalid against the version
/// it names (App. C.2.2): each entry it changed, whose old target still
/// holds the entry's LPN as written before the named version's mappings
/// were current. Nothing if the named version is gone, or either payload was
/// reclaimed (no recovery may read it any more). A version written before
/// `image` was cut is read there: the engine that resumed on `dev` may have
/// reclaimed or erased it since.
fn superseded(dev: &FlashDevice, image: &FlashDevice, v: &Version) -> Vec<Ppn> {
    // The named version, on `dev` or, if GC has erased it since, on `image`.
    let spare = |b: Ppn| {
        dev.peek_spare(b)
            .filter(|s| s.seq < v.seq)
            .or(image.peek_spare(b))
    };
    let named = v.before.and_then(|b| match spare(b)? {
        Spare {
            seq,
            info: SpareInfo::Translation { tpage, .. },
        } if seq < v.seq && tpage == v.tpage => Some((b, seq)),
        _ => None,
    });
    let payload = |ppn: Ppn, seq: u64| {
        translation_payload(if seq < image.now_seq() { image } else { dev }, ppn)
    };
    let Some((Some(base), Some(new))) =
        named.map(|(b, seq)| (payload(b, seq), payload(v.ppn, v.seq)))
    else {
        return Vec::new();
    };
    let per = dev.geometry().entries_per_translation_page();
    let lpns = (v.tpage * per..).map(Lpn);
    base.entries
        .iter()
        .zip(&new.entries)
        .zip(lpns)
        .filter(|((old, now), _)| old != now && **old != u32::MAX)
        .map(|((&old, _), lpn)| (Ppn(old), lpn))
        .filter(|&(old, lpn)| holds(dev, old, lpn, base.mapped_at))
        .map(|(old, _)| old)
        .collect()
}

/// The reference recovery of `image`: each tree's flush watermark, and each
/// user block's GC answer and BVC, by block, as the engine recovered from it
/// resumes on `resumed`, its device (see [`check_recovery`]).
pub fn reference_recover(
    image: &FlashDevice,
    resumed: &FlashDevice,
    gecko_cfg: GeckoConfig,
) -> (Vec<u64>, BTreeMap<BlockId, BlockAnswer>) {
    let geo = image.geometry();
    let pages =
        |b: BlockId| (0..image.written_pages(b)).map(move |off| geo.ppn(b, PageOffset(off)));
    // A page's spare area, if it reads back.
    let spare = |ppn: Ppn| image.peek_spare(ppn);

    // Step 1: each block's group, by its newest readable spare area.
    let user_blocks: Vec<BlockId> = geo
        .iter_blocks()
        .filter(|&b| {
            let newest = pages(b).rev().find_map(spare);
            newest.is_some_and(|s| matches!(s.info, SpareInfo::User { .. }))
        })
        .collect();
    let free = |b: BlockId| pages(b).all(|p| spare(p).is_none());

    // Step 2: every translation version, per page, oldest first.
    let mut versions: Vec<Vec<Version>> =
        (0..geo.translation_pages()).map(|_| Vec::new()).collect();
    for v in translation_versions(image) {
        versions[v.tpage as usize].push(v);
    }
    for v in &mut versions {
        v.sort_by_key(|v| v.seq);
    }
    // The newest version's payload, per page: the translation table.
    let table: Vec<Option<TranslationPagePayload>> = versions
        .iter()
        .map(|v| v.last().and_then(|v| translation_payload(image, v.ppn)))
        .collect();

    // Step 3: the live runs, by full reads; one tree per shard.
    let n = gecko_cfg.shards.max(1) as usize;
    let shard = |b: BlockId| (b.0 % n as u32) as usize;
    let groups = run_groups(image);
    let mut trees: Vec<LogGecko> = live_runs(image, &groups, n)
        .into_iter()
        .map(|runs| LogGecko::from_recovered(geo, gecko_cfg, runs))
        .collect();
    // Each tree's watermark: the newest span end of its complete groups.
    let mut watermarks = vec![0; n];
    for group in groups.values().filter(|g| sealed(image, g)) {
        let w = &mut watermarks[shard(group.pages[0].first.block)];
        *w = (*w).max(group.span.1);
    }
    let invalidate = |trees: &mut Vec<LogGecko>, ppn: Ppn| {
        trees[shard(geo.block_of(ppn))].recover_invalidation(ppn);
    };

    // Step 4a: erase markers.
    for b in geo.iter_blocks() {
        let w = watermarks[shard(b)];
        let first_after = spare(geo.first_page(b)).is_some_and(|s| s.seq > w);
        if free(b) || image.erase_seq(b) > w || first_after {
            trees[shard(b)].recover_erase_marker(b);
        }
    }
    // Step 4b: every surviving version against the version it names.
    for v in versions.iter().flatten() {
        for t in superseded(image, image, v) {
            invalidate(&mut trees, t);
        }
    }

    // Step 5: BVC from the store built so far.
    let mut dev = image.clone();
    let mut answers: BTreeMap<BlockId, BlockAnswer> = BTreeMap::new();
    for &b in &user_blocks {
        let invalid = trees[shard(b)].gc_query_naive(&mut dev, b);
        let written = image.written_pages(b);
        let counted = (0..written).filter(|&i| invalid.get(i)).count() as u32;
        answers.insert(
            b,
            BlockAnswer {
                invalid,
                valid_pages: written - counted,
            },
        );
    }

    // BVC counts a page invalid once: the pages step 5 counted, and each
    // one counted since.
    let mut counted: HashSet<Ppn> = HashSet::new();
    let mut count = |answers: &mut BTreeMap<BlockId, BlockAnswer>, ppn: Ppn| {
        let answer = answers.get_mut(&geo.block_of(ppn)).expect("a user block");
        if !answer.invalid.get(geo.offset_of(ppn).0) && counted.insert(ppn) {
            answer.valid_pages -= 1;
        }
    };

    // Step 6: every before-pointer and every torn page.
    for &b in &user_blocks {
        for ppn in pages(b) {
            match spare(ppn).filter(|_| image.is_written(ppn)) {
                Some(Spare {
                    seq,
                    info: SpareInfo::User { lpn, before },
                }) => {
                    if let Some(t) = before.filter(|&t| holds(image, t, lpn, seq)) {
                        invalidate(&mut trees, t);
                    }
                }
                Some(s) => panic!("user block holds {:?}", s.info),
                None => {
                    invalidate(&mut trees, ppn);
                    count(&mut answers, ppn);
                }
            }
        }
    }
    // Bad user blocks: a page that is not its LPN's newest copy is stale.
    let per = geo.entries_per_translation_page();
    let mut newest: HashMap<Lpn, u64> = HashMap::new();
    for &b in &user_blocks {
        for ppn in pages(b).filter(|&p| image.is_written(p)) {
            if let Some(Spare {
                seq,
                info: SpareInfo::User { lpn, .. },
            }) = spare(ppn)
            {
                newest
                    .entry(lpn)
                    .and_modify(|s| *s = (*s).max(seq))
                    .or_insert(seq);
            }
        }
    }
    for &b in user_blocks.iter().filter(|&&b| image.is_bad(b)) {
        for ppn in pages(b).filter(|&p| image.is_written(p)) {
            let Some(Spare {
                seq,
                info: SpareInfo::User { lpn, .. },
            }) = spare(ppn)
            else {
                continue;
            };
            let mapped = table[(lpn.0 / per) as usize]
                .as_ref()
                .map(|t| (t.get(lpn.0 % per), t.mapped_at));
            let remapped = mapped.is_some_and(|(to, at)| to != Some(ppn) && at > seq);
            if newest[&lpn] > seq || remapped {
                invalidate(&mut trees, ppn);
            }
        }
    }

    // Step 8: the versions the resumed engine's overflow syncs wrote.
    let fresh = translation_versions(resumed).filter(|v| v.seq >= image.now_seq());
    for v in fresh.collect::<Vec<_>>() {
        for t in superseded(resumed, image, &v) {
            invalidate(&mut trees, t);
            count(&mut answers, t);
        }
    }

    for (&b, answer) in &mut answers {
        answer.invalid = trees[shard(b)].gc_query_naive(&mut dev, b);
    }
    (watermarks, answers)
}

/// Whether `target` still holds `lpn` as written before `before`: its spare
/// area names the LPN with an older seq.
fn holds(image: &FlashDevice, target: Ppn, lpn: Lpn, before: u64) -> bool {
    matches!(image.peek_spare(target), Some(Spare { seq, info: SpareInfo::User { lpn: l, .. } })
        if seq < before && l == lpn)
}

/// A translation version's payload, unless it was reclaimed.
fn translation_payload(image: &FlashDevice, ppn: Ppn) -> Option<TranslationPagePayload> {
    if image.is_reclaimed(ppn) {
        return None;
    }
    let page = image.peek_page(ppn).expect("translation page readable");
    Some(
        page.blob::<TranslationPagePayload>()
            .expect("translation payload")
            .clone(),
    )
}

/// A run's pages on the image: the span, level and page count every page's
/// spare tag carries, and its pages, oldest first, each with the key range
/// its own tag names.
struct RunGroup {
    span: (u64, u64),
    level: u32,
    count: u32,
    pages: Vec<TaggedPage>,
}

/// A run page: its seq and address, and the key range its spare tag names.
struct TaggedPage {
    seq: u64,
    ppn: Ppn,
    first: GeckoKey,
    last: GeckoKey,
}

/// Every run group on `image` whose pages' spare area and data read back,
/// by run id. Panics if two pages of a run disagree on its span, level or
/// page count.
fn run_groups(image: &FlashDevice) -> BTreeMap<u64, RunGroup> {
    let geo = image.geometry();
    let mut groups: BTreeMap<u64, RunGroup> = BTreeMap::new();
    for b in geo.iter_blocks() {
        for off in 0..image.written_pages(b) {
            let ppn = geo.ppn(b, PageOffset(off));
            let Some(Spare {
                seq,
                info:
                    SpareInfo::Meta {
                        kind: MetaKind::GeckoRun,
                        tag:
                            MetaTag::Run {
                                id,
                                span,
                                level,
                                pages,
                                first,
                                last,
                            },
                    },
            }) = image.peek_spare(ppn)
            else {
                continue;
            };
            if image.is_written(ppn) {
                let group = groups.entry(id).or_insert_with(|| RunGroup {
                    span,
                    level,
                    count: pages,
                    pages: Vec::new(),
                });
                assert_eq!(
                    (group.span, group.level, group.count),
                    (span, level, pages),
                    "run {id}: {ppn:?}'s tag disagrees with the run's other pages"
                );
                group.pages.push(TaggedPage {
                    seq,
                    ppn,
                    first: first.into(),
                    last: last.into(),
                });
            }
        }
    }
    for group in groups.values_mut() {
        group.pages.sort_unstable_by_key(|p| p.seq);
    }
    groups
}

/// Whether `group` was a complete run once: a merge retired it (only a
/// sealed run is installed and later reclaimed), or it holds as many pages
/// as its tags count.
fn sealed(image: &FlashDevice, group: &RunGroup) -> bool {
    let reclaimed = group.pages.iter().any(|p| image.is_reclaimed(p.ppn));
    reclaimed || group.pages.len() == group.count as usize
}

/// The directory of a group whose payloads survive, its key ranges taken
/// from the entries each page holds. Panics unless every page's entries are
/// sorted, its range is the one its tag names, and ranges increase from
/// page to page.
fn payload_directory(image: &FlashDevice, id: u64, group: &RunGroup) -> Option<Vec<RunDirEntry>> {
    if group.pages.iter().any(|p| image.is_reclaimed(p.ppn)) {
        return None;
    }
    let dir: Vec<RunDirEntry> = group
        .pages
        .iter()
        .map(|page| {
            let data = image.peek_page(page.ppn).expect("gecko page readable");
            let entries = &data
                .blob::<GeckoPagePayload>()
                .expect("gecko payload")
                .entries;
            let at = format!("run {id}, {:?}", page.ppn);
            assert!(
                entries.windows(2).all(|w| w[0].key < w[1].key),
                "{at}: entries out of order"
            );
            let (first, last) = (entries[0].key, entries[entries.len() - 1].key);
            assert_eq!(
                (page.first, page.last),
                (first, last),
                "{at}: tag's key range"
            );
            RunDirEntry {
                ppn: page.ppn,
                first,
                last,
            }
        })
        .collect();
    for w in dir.windows(2) {
        assert!(w[0].last < w[1].first, "run {id}: {w:?} overlap");
    }
    Some(dir)
}

/// The full-read liveness rule (Appendix C.1): every complete run group
/// whose payloads survive is read in full, and each shard's runs are walked
/// newest first by id; a run is dead if its span lies strictly inside a
/// live run's span. A group whose payloads were reclaimed was retired by a
/// merge (docs/DESIGN.md invariant 17). Each run's metadata is its spare
/// tags' id, span and level, its directory the payloads' key ranges.
/// Returns each shard's live runs.
fn live_runs(
    image: &FlashDevice,
    groups: &BTreeMap<u64, RunGroup>,
    shards: usize,
) -> Vec<Vec<Run>> {
    let mut candidates: Vec<Vec<Run>> = (0..shards).map(|_| Vec::new()).collect();
    for (&id, group) in groups {
        let Some(pages) = payload_directory(image, id, group) else {
            continue;
        };
        if pages.len() != group.count as usize {
            continue;
        }
        let (supersedes_since, supersedes_upto) = group.span;
        let meta = RunMeta {
            id: RunId(id),
            level: group.level,
            supersedes_since,
            supersedes_upto,
        };
        let shard = (pages[0].first.block.0 % shards as u32) as usize;
        candidates[shard].push(Run {
            meta,
            pages,
            entry_count: 0,
            filter: None,
        });
    }
    candidates
        .into_iter()
        .map(|mut runs| {
            runs.sort_by_key(|r| std::cmp::Reverse(r.meta.id));
            let mut live: Vec<Run> = Vec::new();
            for run in runs {
                let (since, upto) = run.meta.span();
                let inside = live.iter().any(|l| {
                    let (lo, hi) = l.meta.span();
                    lo <= since && upto <= hi && (lo, hi) != (since, upto)
                });
                if !inside {
                    live.push(run);
                }
            }
            live
        })
        .collect()
}
