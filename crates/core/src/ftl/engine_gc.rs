//! Garbage collection (paper §4, §4.2): victim selection, live-page
//! migration with UIP identification (§4.1), and the metadata-aware policy.

use super::block_manager::BlockGroup;
use super::{FtlEngine, GcPolicy, GC_FREE_THRESHOLD};
use crate::cache::CacheEntry;
use flash_sim::{BlockId, IoPurpose, PageData, PageOffset, Ppn, SpanKind, SpareInfo};

/// How many extra valid pages a planned (prefetched) burst victim may carry
/// over the current greedy-best block before the plan is declared stale and
/// dropped. See the re-validation in [`FtlEngine::collect_once`].
const GC_PLAN_VALID_MARGIN: u32 = 4;

fn paranoid() -> bool {
    // Read the environment once: this guard sits inside per-page GC loops.
    static PARANOID: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PARANOID.get_or_init(|| std::env::var("GECKO_PARANOID").is_ok())
}

impl FtlEngine {
    /// Ground truth for diagnostics: the newest physical copy of `lpn`.
    fn true_newest(&self, lpn: flash_sim::Lpn) -> Option<(flash_sim::Ppn, u64)> {
        let geo = self.geometry();
        let mut best: Option<(flash_sim::Ppn, u64)> = None;
        for b in geo.iter_blocks() {
            for (ppn, data) in self.dev.peek_block_pages(b) {
                // A page with a torn spare has no identity: never newest.
                let (Some((l, _)), Some(spare)) = (data.as_user(), self.dev.peek_spare(ppn)) else {
                    continue;
                };
                if l == lpn && best.is_none_or(|(_, s)| spare.seq > s) {
                    best = Some((ppn, spare.seq));
                }
            }
        }
        best
    }

    /// Paranoid diagnostic: a page the validity store reports invalid must
    /// never be the newest physical copy of its logical page. (This is the
    /// check that caught the recovered-flush-watermark bug: deferring merge
    /// output past new erases inflated recovery's step-4a window and lost
    /// buffered erase markers.)
    fn paranoid_check_invalid(&self, ppn: flash_sim::Ppn) {
        let Some(data) = self.dev.peek_page(ppn).cloned() else {
            return;
        };
        if let Some((l, _)) = data.as_user() {
            if self.true_newest(l).map(|(best, _)| best) == Some(ppn) {
                eprintln!(
                    "[PARANOID] GC treats NEWEST copy {ppn:?} of {l:?} as invalid; cache={:?}",
                    self.cache.lookup(l)
                );
            }
        }
    }

    /// Paranoid diagnostic: a block about to be erased as fully invalid
    /// must hold no newest copy of any logical page.
    fn paranoid_check_erasable(&self, victim: BlockId) {
        let pages: Vec<_> = self
            .dev
            .peek_block_pages(victim)
            .map(|(p, d)| (p, d.clone()))
            .collect();
        for (ppn, data) in pages {
            if let Some((l, _)) = data.as_user() {
                if self.true_newest(l).map(|(best, _)| best) == Some(ppn) {
                    eprintln!(
                        "[PARANOID] erasing 0-valid {victim:?} but {ppn:?} is the NEWEST \
                         copy of {l:?}; cache={:?}",
                        self.cache.lookup(l)
                    );
                }
            }
        }
    }
}

impl FtlEngine {
    /// Run garbage collection until the free pool is back above the
    /// threshold. Called at the top of every application write.
    ///
    /// When the burst will collect several victims, their validity bitmaps
    /// are prefetched up front through one batched query
    /// ([`crate::validity::ValidityStore::gc_query_batch`]) that sorts the
    /// victims' keys and coalesces probes landing on the same flash page —
    /// one pass over the store instead of a per-victim round trip.
    pub(crate) fn maybe_gc(&mut self) {
        if self.bm.free_blocks() >= GC_FREE_THRESHOLD {
            return;
        }
        let t0 = self.dev.clock().now_us();
        while self.bm.free_blocks() < GC_FREE_THRESHOLD {
            self.plan_gc_burst();
            if self.collect_once() {
                // Long GC bursts tick the checkpoint clock (migrations are
                // user-page writes); honor the period between victims so
                // the recovery-scan bound stays ≈2·C + O(B) pages.
                self.maybe_checkpoint();
                // A burst's erase markers flood the Gecko buffer and can
                // trip several flushes within one application write; pump a
                // merge slice between victims so that work drains
                // incrementally instead of piling into forced stalls.
                self.pump_merge_slice();
                continue;
            }
            // No victim found: all invalid pages may be unidentified (UIP).
            // Force identification by syncing everything, then retry once.
            // Prefetched bitmaps stay sound (syncs land in gc_invalidated),
            // but the victim ranking has shifted wholesale: drop them.
            self.gc_prefetch.clear();
            self.gc_plan.clear();
            self.sync_all_dirty();
            assert!(
                self.collect_once(),
                "device full: no reclaimable block even after full synchronization"
            );
        }
        self.gc_prefetch.clear();
        self.gc_plan.clear();
        // Charge the whole burst to the op that triggered it, for the
        // per-tenant GC-debt accounting (observation only).
        let spent = self.dev.clock().now_us() - t0;
        self.note_gc_time(spent);
    }

    /// Rank this burst's likely victims into `gc_plan` and batch-query
    /// their validity bitmaps into `gc_prefetch`.
    ///
    /// Only the Gecko backend plans: for every other store `gc_query_batch`
    /// degrades to a per-victim loop, so prefetching could only *add*
    /// wasted reads for victims that are never collected, and they keep
    /// plain greedy order.
    ///
    /// Soundness of the prefetch: a prefetched bitmap is a snapshot at
    /// batch-query time. Pages it reports invalid can never become valid
    /// again before the victim is erased (victims are full, non-active
    /// blocks), and pages invalidated *after* the snapshot — by syncs that
    /// collections of earlier victims trigger — are tracked in
    /// `gc_invalidated`, which [`FtlEngine::collect_user_block`] consults
    /// per page. Both the prefetched bitmap and the block's
    /// `gc_invalidated` entries are dropped the moment the block is
    /// erased, so a block that is later reallocated and refilled can never
    /// be judged by stale state.
    fn plan_gc_burst(&mut self) {
        if !self.gc_plan.is_empty() || !self.gc_prefetch.is_empty() {
            return;
        }
        if self.backend.gecko().is_none() {
            return; // non-Gecko stores keep plain greedy order
        }
        let deficit = GC_FREE_THRESHOLD.saturating_sub(self.bm.free_blocks());
        if deficit < 2 {
            return; // a single collection gains nothing from planning
        }
        let victims = self
            .bm
            .pick_victims(&self.dev, deficit.min(8), |g| g == BlockGroup::User);
        if victims.len() < 2 {
            return;
        }
        self.gc_plan = victims.iter().copied().collect();
        self.gc_invalidated.clear();
        let bitmaps = self
            .backend
            .store()
            .gc_query_batch(&mut self.dev, &mut self.bm, &victims);
        self.gc_prefetch = victims.into_iter().zip(bitmaps).collect();
    }

    /// Pick and collect one victim block. Returns false if no block has any
    /// reclaimable (known-invalid) page.
    pub(crate) fn collect_once(&mut self) -> bool {
        let policy = self.cfg.gc_policy;
        let collectable_meta = self.backend.store_ref().collectable_meta();
        // A fully-invalid block needs no migration, so it is a legal victim
        // for every policy and every group (greedy picks it first anyway —
        // its valid count is 0).
        if let Some(victim) = self.bm.pick_victim(&self.dev, |_| true) {
            if self.bm.valid_pages(victim) == 0 {
                let t0 = self.dev.clock().now_us();
                if paranoid() {
                    self.paranoid_check_erasable(victim);
                }
                self.counters.gc_operations += 1;
                // A planned victim may drain to 0-valid before its turn:
                // it is consumed here, so drop it from the plan too (not
                // just the prefetch map), or the burst's remaining plan
                // order silently skips one slot.
                self.gc_prefetch.remove(&victim);
                self.gc_plan.retain(|b| *b != victim);
                let is_user = self.bm.group_of(victim) == Some(BlockGroup::User);
                if is_user {
                    // Erase markers still need to supersede older validity
                    // info about the block.
                    self.backend
                        .store()
                        .note_erase(&mut self.dev, &mut self.bm, victim);
                }
                if !self
                    .bm
                    .erase_and_free(&mut self.dev, victim, IoPurpose::GcMigrateUser)
                    && is_user
                {
                    self.report_retired_block_stale(victim);
                }
                self.forget_invalidated_in(victim);
                let now = self.dev.clock().now_us();
                self.dev
                    .telemetry_mut()
                    .record_span(SpanKind::GcCollect, victim.0, t0, now);
                return true;
            }
        }
        // Prefer the prefetched burst's planned order: within the plan the
        // victims' valid counts were tied or near-tied when ranked, so
        // collecting in clustered-id order guarantees every prefetched
        // bitmap is consumed rather than re-queried cold, at worst a
        // bounded migration-cost deviation from strict greedy (the plan
        // holds ≤ 8 near-tied entries, and a sealed block's valid count
        // only ever decreases, so a planned victim never gets *worse* —
        // only a non-planned block can become cheaper mid-burst). Entries are re-validated — state may have
        // shifted since the batch snapshot — and skipped if stale. Only the
        // metadata-aware policy follows the plan: its victims are User
        // blocks by definition, whereas GreedyAll must stay free to pick a
        // cheaper translation/metadata block (the plan is User-only, so
        // honoring it there would bias the greedy ablation).
        if policy == GcPolicy::MetadataAware {
            while let Some(planned) = self.gc_plan.pop_front() {
                if self
                    .bm
                    .is_victim_eligible(&self.dev, planned, |g| g == BlockGroup::User)
                {
                    // Margin guard: the plan was ranked from a snapshot, and
                    // invalidations since then can make a non-planned block
                    // strictly cheaper. A bounded deviation is the price of
                    // consuming the prefetched bitmaps, but if the planned
                    // victim now costs more than the current greedy choice
                    // by more than the margin, the snapshot is stale enough
                    // that following it would do real extra migration work:
                    // drop the whole plan and re-rank.
                    let best_valid = self
                        .bm
                        .pick_victim(&self.dev, |g| g == BlockGroup::User)
                        .map_or(u32::MAX, |b| self.bm.valid_pages(b));
                    if self.bm.valid_pages(planned)
                        > best_valid.saturating_add(GC_PLAN_VALID_MARGIN)
                    {
                        self.gc_plan.clear();
                        self.gc_prefetch.clear();
                        break;
                    }
                    self.counters.gc_operations += 1;
                    self.collect_user_block(planned);
                    return true;
                }
                // Ineligible (e.g. erased as 0-valid earlier in the burst):
                // drop its bitmap so plan and prefetch stay in lockstep.
                self.gc_prefetch.remove(&planned);
            }
        }
        let victim = self.bm.pick_victim(&self.dev, |group| match policy {
            GcPolicy::MetadataAware => group == BlockGroup::User,
            GcPolicy::GreedyAll => match group {
                BlockGroup::User | BlockGroup::Translation => true,
                BlockGroup::Meta(kind) => Some(kind) == collectable_meta,
            },
        });
        let Some(victim) = victim else { return false };
        self.counters.gc_operations += 1;
        match self.bm.group_of(victim).expect("victim is allocated") {
            BlockGroup::User => self.collect_user_block(victim),
            BlockGroup::Translation => self.collect_translation_block(victim),
            BlockGroup::Meta(_) => self.collect_meta_block(victim),
        }
        true
    }

    /// Collect a user-block victim: query the validity store, migrate live
    /// pages (skipping unidentified invalid pages via the §4.1 spare-check),
    /// report the erase, erase the block.
    pub(crate) fn collect_user_block(&mut self, victim: BlockId) {
        let t0 = self.dev.clock().now_us();
        self.collect_user_block_inner(victim);
        let now = self.dev.clock().now_us();
        self.dev
            .telemetry_mut()
            .record_span(SpanKind::GcCollect, victim.0, t0, now);
    }

    fn collect_user_block_inner(&mut self, victim: BlockId) {
        // Prefetched bitmap: snapshot taken at batch-query time, so
        // `gc_invalidated` (accumulating since then) must be kept. A cold
        // query re-snapshots here and may reset the set — but only when no
        // prefetched bitmap is still outstanding: those carry the *older*
        // batch snapshot and rely on every invalidation recorded since it.
        // (Keeping extra entries is always safe — a listed page is genuinely
        // invalid — so the cold victim is unaffected either way.)
        let invalid = match self.gc_prefetch.remove(&victim) {
            Some(bitmap) => bitmap,
            None => {
                if self.gc_prefetch.is_empty() {
                    self.gc_invalidated.clear();
                }
                self.backend
                    .store()
                    .gc_query(&mut self.dev, &mut self.bm, victim)
            }
        };
        let written = self.dev.written_pages(victim);
        let geo = self.geometry();
        for off in 0..written {
            if invalid.get(off) {
                if paranoid() {
                    self.paranoid_check_invalid(geo.ppn(victim, flash_sim::PageOffset(off)));
                }
                continue;
            }
            let ppn = geo.ppn(victim, flash_sim::PageOffset(off));
            // A synchronization performed *during this collection* may have
            // invalidated pages after the query snapshot was taken.
            if self.gc_invalidated.contains(&ppn) {
                continue;
            }
            let spare = self
                .dev
                .read_spare(ppn, IoPurpose::GcMigrateUser)
                .expect("written page has a spare area");
            let SpareInfo::User { lpn, .. } = spare.info else {
                panic!(
                    "user block page {ppn:?} carries non-user spare {:?}",
                    spare.info
                )
            };
            // §4.1: "for every physical page Y in a victim block that
            // Logarithmic Gecko reports as valid, we read the spare area
            // ... if there is a cached mapping entry ... with the UIP flag
            // set to true and with a different physical address than Y,
            // then Y is a UIP and we do not migrate it."
            if let Some(e) = self.cache.lookup(lpn) {
                if e.ppn != ppn {
                    if paranoid() {
                        if let Some((best, _)) = self.true_newest(lpn) {
                            if best == ppn {
                                eprintln!("[PARANOID] GC SKIPPING the NEWEST copy {ppn:?} of {lpn:?} (cache says {:?} d={} u={} unc={})", e.ppn, e.dirty, e.uip, e.uncertain);
                            }
                        }
                    }
                    self.counters.gc_uip_skips += 1;
                    // The erase marker below supersedes this page, so its
                    // before-image is now identified: clear the UIP flag to
                    // prevent a later sync from re-reporting a page on the
                    // (about to be erased and possibly reused) block.
                    self.cache.update_entry(lpn, |e| e.uip = false);
                    continue;
                }
            }
            // Live page: migrate it. "Garbage-collection migrations are
            // treated like application writes; a dirty cached mapping entry
            // is created for every page that is migrated."
            if paranoid() {
                if let Some((best, bseq)) = self.true_newest(lpn) {
                    if best != ppn {
                        let sseq = self.dev.peek_spare(ppn).expect("w").seq;
                        eprintln!("[PARANOID] GC MIGRATING STALE copy {ppn:?} (seq {sseq}) of {lpn:?}; newest is {best:?} (seq {bseq}); cache={:?}", self.cache.lookup(lpn));
                    }
                }
            }
            let data = self
                .dev
                .read_page(ppn, IoPurpose::GcMigrateUser)
                .expect("live page readable");
            debug_assert!(matches!(data, PageData::User { .. }));
            let new_ppn = self.bm.append(
                &mut self.dev,
                BlockGroup::User,
                data,
                // The old copy is superseded by the victim's erase marker
                // — but only once that marker exists. A power cut before
                // the erase leaves the old copy on flash with no report
                // anywhere (the entry's UIP flag is off, so a sync in
                // between reports nothing, and a Gecko flush in between
                // moves recovery's diff horizon past that sync). The
                // before-pointer lets GeckoRec step 6 re-derive it.
                SpareInfo::User {
                    lpn,
                    before: Some(ppn),
                },
                IoPurpose::GcMigrateUser,
            );
            self.counters.gc_migrations += 1;
            self.tick_checkpoint_clock();
            let epoch = self.current_epoch();
            if self.cache.lookup(lpn).is_some() {
                // Cached address necessarily equals the victim page here;
                // repoint it. The before-image (this page) is covered by the
                // erase marker, so no mark-invalid call is needed.
                self.cache.update_entry(lpn, |e| {
                    e.ppn = new_ppn;
                    e.dirty = true;
                    e.written_epoch = epoch;
                });
            } else {
                self.make_room();
                self.cache.insert(CacheEntry {
                    lpn,
                    ppn: new_ppn,
                    dirty: true,
                    uip: false, // before-image handled by the erase marker
                    uncertain: false,
                    written_epoch: epoch,
                });
            }
        }
        // Algorithm 2: one erase marker supersedes all older validity
        // information about this block.
        self.backend
            .store()
            .note_erase(&mut self.dev, &mut self.bm, victim);
        if !self
            .bm
            .erase_and_free(&mut self.dev, victim, IoPurpose::GcMigrateUser)
        {
            self.report_retired_block_stale(victim);
        }
        // `gc_invalidated` is NOT wholesale-cleared here: when the burst
        // runs on prefetched bitmaps, invalidations since the batch
        // snapshot must stay visible to the remaining victims. The set is
        // reset at the next snapshot point (cold query or batch prefetch);
        // only the erased block's own entries are dropped, below.
        self.forget_invalidated_in(victim);
    }

    /// A user block's erase failed and it was retired with its stale
    /// contents intact — but the erase marker just issued for it claims a
    /// clean block. Override the marker: report every written page invalid
    /// (the reports are newer than the marker, so they supersede it). The
    /// block never re-enters the free pool, so this is the final word on
    /// its validity.
    fn report_retired_block_stale(&mut self, block: BlockId) {
        let geo = self.dev.geometry();
        let written = self.dev.written_pages(block);
        let ppns: Vec<Ppn> = (0..written)
            .map(|off| geo.ppn(block, PageOffset(off)))
            .collect();
        self.backend
            .store()
            .mark_invalid_batch(&mut self.dev, &mut self.bm, &ppns);
    }

    /// Drop `gc_invalidated` entries pointing into a just-erased block.
    /// Mandatory whenever a user block is erased while the set may outlive
    /// the erase (prefetched-burst mode): if the block is reallocated and
    /// refilled within the same burst, a stale entry at a reused physical
    /// address would make a later collection skip a *live* page.
    fn forget_invalidated_in(&mut self, block: BlockId) {
        if self.gc_invalidated.is_empty() {
            return;
        }
        let geo = self.geometry();
        self.gc_invalidated.retain(|p| geo.block_of(*p) != block);
    }

    /// Collect a translation-block victim (baseline FTLs' greedy policy):
    /// migrate the translation pages that the GMD still points into this
    /// block, then erase it.
    fn collect_translation_block(&mut self, victim: BlockId) {
        let t0 = self.dev.clock().now_us();
        let written = self.dev.written_pages(victim);
        let geo = self.geometry();
        for off in 0..written {
            let ppn = geo.ppn(victim, flash_sim::PageOffset(off));
            let spare = self
                .dev
                .read_spare(ppn, IoPurpose::TranslationGc)
                .expect("written page has a spare area");
            let SpareInfo::Translation { tpage } = spare.info else {
                panic!("translation block page {ppn:?} carries {:?}", spare.info)
            };
            if self.tt.tpage_location(tpage) == Some(ppn) {
                self.counters.gc_migrations += 1;
                self.tt.migrate_tpage(&mut self.dev, &mut self.bm, tpage);
            }
        }
        self.bm
            .erase_and_free(&mut self.dev, victim, IoPurpose::TranslationGc);
        let now = self.dev.clock().now_us();
        self.dev
            .telemetry_mut()
            .record_span(SpanKind::GcCollect, victim.0, t0, now);
    }

    /// Collect a metadata-block victim by delegating to the validity store
    /// (flash-resident PVB under the greedy policy), then erase it.
    fn collect_meta_block(&mut self, victim: BlockId) {
        let t0 = self.dev.clock().now_us();
        self.backend
            .store()
            .collect_meta_block(&mut self.dev, &mut self.bm, victim);
        self.bm
            .erase_and_free(&mut self.dev, victim, IoPurpose::ValidityGc);
        let now = self.dev.clock().now_us();
        self.dev
            .telemetry_mut()
            .record_span(SpanKind::GcCollect, victim.0, t0, now);
    }

    pub(crate) fn current_epoch(&self) -> u64 {
        self.epoch
    }
}
