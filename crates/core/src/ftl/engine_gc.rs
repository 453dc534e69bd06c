//! Garbage collection (paper §4, §4.2): victim selection, live-page
//! migration with UIP identification (§4.1), and the metadata-aware policy.
//!
//! A user-block collection is paced over host writes, the way merges are
//! (`gecko/merge_job.rs`): the write that finds the free user pages within
//! one block of the floor ([`GC_FREE_THRESHOLD`]) picks a victim and asks the
//! validity store its one query, and each write from then on migrates a
//! slice of the victim sized so that the rest fits into the slack above the
//! floor. The write whose slice reaches the victim's last page issues its
//! erase marker and erases it. The work per victim is a whole collection's;
//! only when it is paid is spread out. Translation and metadata victims,
//! and fully invalid ones, are collected in one go, and a write that finds
//! the free pages below the floor collects synchronously until they are
//! back above it.

use super::audit::debug_check;
use super::block_manager::BlockGroup;
use super::{FtlEngine, GcPolicy, GcVictim, GC_FREE_THRESHOLD};
use crate::cache::CacheEntry;
use flash_sim::{BlockId, IoPurpose, PageData, PageOffset, Ppn, SpanKind, SpareInfo};

impl FtlEngine {
    /// Garbage collection's share of a host write or trim, called at its
    /// top (§3–§4.2: one validity query, one migration pass and one erase
    /// marker per victim).
    ///
    /// With the free user pages within one block of the floor, or a victim
    /// in flight, the op pays a paced slice ([`FtlEngine::paced_pages`]),
    /// picking a victim first if none is in flight. Below the floor it
    /// finishes the victim in flight and then collects whole victims until
    /// the free pages are back above it (the floor fallback, counted in
    /// `EngineCounters::gc_floor_fallbacks`).
    pub(crate) fn maybe_gc(&mut self) {
        if self.gc_victim.is_none() && !self.below_free_threshold(1) {
            return;
        }
        let t0 = self.dev.clock().now_us();
        if self.below_free_threshold(0) {
            self.counters.gc_floor_fallbacks += 1;
            while self.below_free_threshold(0) {
                if self.collect_once() {
                    // Long GC bursts tick the checkpoint clock (migrations
                    // are user-page writes); honor the period between
                    // victims so an epoch stays ≈C + O(B) pages and the
                    // recovery scan, which stops at the start of the
                    // previous epoch, within 2·C + O(B) once the engine has
                    // checkpointed since it last resumed (before that, it
                    // walks back over the recovered entries, docs/DESIGN.md
                    // invariant 15).
                    self.maybe_checkpoint();
                    // A burst's erase markers flood the Gecko buffer and can
                    // trip several flushes within one application write;
                    // pump a merge slice between victims so that work
                    // drains incrementally instead of piling into forced
                    // stalls.
                    self.pump_merge_slice();
                    continue;
                }
                // No victim found: all invalid pages may be unidentified
                // (UIP). Force identification by syncing everything, then
                // retry once.
                self.sync_all_dirty();
                assert!(
                    self.collect_once(),
                    "device full: no reclaimable block even after full synchronization"
                );
            }
        } else if self.gc_victim.is_some() || self.start_collection() {
            self.advance_collection(self.paced_pages());
        }
        // Charge the GC work to the op that paid it, for the per-tenant
        // GC-debt accounting (observation only).
        self.gc_attrib_us += self.dev.clock().now_us() - t0;
    }

    /// Whether the free user pages ([`BlockManager::free_user_pages`]) are
    /// fewer than [`GC_FREE_THRESHOLD`]` + headroom` blocks' worth. With one
    /// frontier that is the free pool holding fewer blocks; with two, a
    /// collection that opens a relocation block still moves it, so
    /// collections do not pair up inside one write.
    ///
    /// [`BlockManager::free_user_pages`]: super::BlockManager::free_user_pages
    pub(crate) fn below_free_threshold(&self, headroom: usize) -> bool {
        let pages = self.geometry().pages_per_block as u64;
        self.bm.free_user_pages(&self.dev) < (GC_FREE_THRESHOLD + headroom) as u64 * pages
    }

    /// How many of the victim's remaining pages this op migrates:
    /// `⌈V_left / max(1, slack − V_left)⌉`, where `V_left` counts the
    /// victim's pages at or past the cursor not known invalid and `slack`
    /// the free user pages above the floor. A write takes one free page and
    /// each migration another, so at that rate the victim is erased before
    /// the free pages reach the floor, with no knob of its own: with the
    /// slack used up, the op migrates the whole rest. 0 with no victim in
    /// flight.
    fn paced_pages(&self) -> u32 {
        let Some(v) = &self.gc_victim else { return 0 };
        let written = self.dev.written_pages(v.block);
        let known = v.invalid.count_ones_from(v.cursor);
        let left = written - v.cursor - known;
        let floor = GC_FREE_THRESHOLD as u64 * self.geometry().pages_per_block as u64;
        let slack = self.bm.free_user_pages(&self.dev).saturating_sub(floor);
        let rate = slack.saturating_sub(left as u64).max(1);
        (left as u64).div_ceil(rate) as u32
    }

    /// Finish the collection in flight, or else pick a victim and collect it
    /// whole. Returns false if there is no victim in flight and no block has
    /// any reclaimable (known-invalid) page.
    pub(crate) fn collect_once(&mut self) -> bool {
        if self.gc_victim.is_none() && !self.start_collection() {
            return false;
        }
        self.advance_collection(u32::MAX);
        true
    }

    /// Pick a victim. A user block with valid pages gets its validity query
    /// and becomes the collection in flight; any other victim is collected
    /// in one go. Returns false if no block has any reclaimable
    /// (known-invalid) page.
    fn start_collection(&mut self) -> bool {
        debug_assert!(self.gc_victim.is_none(), "collections do not nest");
        let policy = self.cfg.gc_policy;
        let collectable_meta = self.backend.store_ref().collectable_meta();
        // A fully-invalid block needs no migration, so it is a legal victim
        // for every policy and every group (greedy picks it first anyway —
        // its valid count is 0).
        let victim = self
            .bm
            .pick_victim(&self.dev, |_| true)
            .filter(|&block| self.bm.valid_pages(block) == 0)
            .or_else(|| {
                self.bm.pick_victim(&self.dev, |group| match policy {
                    GcPolicy::MetadataAware => group == BlockGroup::User,
                    GcPolicy::GreedyAll => match group {
                        BlockGroup::User | BlockGroup::Translation => true,
                        BlockGroup::Meta(kind) => Some(kind) == collectable_meta,
                    },
                })
            });
        let Some(victim) = victim else { return false };
        debug_check(|| self.check_payloads());
        let t0 = self.dev.clock().now_us();
        let group = self.bm.group_of(victim).expect("victim is allocated");
        if group == BlockGroup::User && self.bm.valid_pages(victim) > 0 {
            let invalid = self
                .backend
                .store()
                .gc_query(&mut self.dev, &mut self.bm, victim);
            self.gc_victim = Some(GcVictim {
                block: victim,
                invalid,
                cursor: 0,
                uip_skipped: Vec::new(),
                started_us: t0,
            });
            return true;
        }
        if self.bm.valid_pages(victim) == 0 {
            // Fully invalid: nothing to query, read or migrate.
            debug_check(|| {
                self.dev
                    .peek_block_pages(victim)
                    .try_for_each(|(ppn, _)| self.check_kept(ppn, false))
            });
            if group == BlockGroup::User {
                self.erase_user_block(victim);
            } else {
                // Charged to `GcMigrateUser` whatever the group: the purpose
                // this shortcut has always used, and the goldens pin.
                self.bm
                    .erase_and_free(&mut self.dev, victim, IoPurpose::GcMigrateUser);
            }
        } else if group == BlockGroup::Translation {
            self.collect_translation_block(victim);
        } else {
            self.collect_meta_block(victim);
        }
        self.finish_span(victim, t0);
        true
    }

    /// Count a collected victim and close its `GcCollect` span.
    fn finish_span(&mut self, victim: BlockId, t0: f64) {
        self.counters.gc_operations += 1;
        let now = self.dev.clock().now_us();
        self.dev
            .telemetry_mut()
            .record_span(SpanKind::GcCollect, victim.0, t0, now);
    }

    /// Advance the collection in flight over up to `pages` pages not known
    /// invalid — each migrated, or skipped as a UIP by the §4.1
    /// spare-check — stepping over known-invalid pages for free. Once the
    /// cursor passes the last page, report the erase and erase the block.
    /// Nothing to do with no collection in flight.
    fn advance_collection(&mut self, mut pages: u32) {
        let Some(victim) = self.gc_victim.as_ref().map(|v| v.block) else {
            return;
        };
        let written = self.dev.written_pages(victim);
        let geo = self.geometry();
        loop {
            let v = self.gc_victim.as_mut().expect("collection in flight");
            let off = v.cursor;
            if off == written {
                break;
            }
            // Read per page, not once per slice: a migration below can evict
            // a cache entry, and the synchronization that eviction triggers
            // may invalidate further pages of this block after the query was
            // answered (`note_gc_invalidation`); so may a host op between
            // two slices.
            if v.invalid.get(off) {
                v.cursor += 1;
                debug_check(|| self.check_kept(geo.ppn(victim, PageOffset(off)), false));
                continue;
            }
            if pages == 0 {
                return;
            }
            pages -= 1;
            v.cursor += 1;
            self.migrate_page(victim, off);
        }
        let v = self.gc_victim.take().expect("collection in flight");
        self.erase_user_block(victim);
        self.clear_skipped_uip(&v);
        self.finish_span(victim, v.started_us);
    }

    /// Migrate the victim's page at `off`, which the validity store does not
    /// know invalid, unless the §4.1 spare-check identifies it as a UIP.
    fn migrate_page(&mut self, victim: BlockId, off: u32) {
        let ppn = self.geometry().ppn(victim, PageOffset(off));
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
                debug_check(|| self.check_not_newer(ppn));
                self.counters.gc_uip_skips += 1;
                // The erase marker will supersede this page, and then the
                // UIP flag goes (`clear_skipped_uip`). Until the marker
                // exists the flag is the page's only record: a sync of the
                // entry before the erase reports the page, and a flush that
                // follows makes the report durable.
                let v = self.gc_victim.as_mut().expect("collection in flight");
                v.uip_skipped.push((lpn, off));
                return;
            }
        }
        // Live page: migrate it. "Garbage-collection migrations are
        // treated like application writes; a dirty cached mapping entry
        // is created for every page that is migrated."
        debug_check(|| self.check_kept(ppn, true));
        let data = self
            .dev
            .read_page(ppn, IoPurpose::GcMigrateUser)
            .expect("live page readable");
        debug_assert!(matches!(data, PageData::User { .. }));
        // At the relocation frontier: a copy never shares a block with
        // host writes.
        let new_ppn = self.bm.relocate(
            &mut self.dev,
            data,
            // The old copy is superseded by the victim's erase marker
            // — but only once that marker exists. A power cut before
            // the erase leaves the old copy on flash with no report
            // anywhere (the entry's UIP flag is off, so a sync in
            // between reports nothing, and a Gecko flush in between
            // moves recovery's diff horizon past that sync). The
            // before-pointer lets GeckoRec step 6 re-derive it: no
            // checkpoint falls inside the collection, so the copy lies
            // above the persisted horizon (DESIGN.md invariant 18). The
            // victim's BVC keeps counting the old copy until the erase,
            // the safe direction.
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
            // erase marker, so no mark-invalid call is needed. Promoted,
            // as a host write's entry is: left at the LRU end, the entry
            // now dirty would make the next miss pay its sync.
            self.cache.update_entry(lpn, |e| {
                e.ppn = new_ppn;
                e.dirty = true;
                e.written_epoch = epoch;
            });
            self.cache.promote(lpn);
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

    /// The victim's erase marker supersedes the pages the collection skipped
    /// as UIPs, so their before-images are identified: clear the UIP flags,
    /// or a later sync would report a page of the erased (and possibly
    /// reused) block. Not where the page was reported since the skip: the
    /// sync that reported it cleared the flag, and a flag set again after
    /// that covers a newer before-image (a host write of the LPN once its
    /// entry was evicted), which the marker does not.
    fn clear_skipped_uip(&mut self, victim: &GcVictim) {
        for &(lpn, off) in &victim.uip_skipped {
            if !victim.invalid.get(off) {
                // An eviction may have dropped the entry: then there is
                // nothing to do.
                self.cache.update_entry(lpn, |e| e.uip = false);
            }
        }
    }

    /// Erase a user block whose live pages are gone. Algorithm 2: one erase
    /// marker supersedes all older validity information about the block.
    ///
    /// A page newer than the Gecko store's durable watermark may carry the
    /// before-pointer of a report that still lies only in the buffer: the
    /// one trail GeckoRec step 6 would re-derive it from. So if the block's
    /// newest page is newer, the store flushes first, and the report is on
    /// flash before its trail is erased (DESIGN.md invariant 9). That costs
    /// one spare read, and only while a buffer holds reports.
    fn erase_user_block(&mut self, block: BlockId) {
        // A block a program failure left empty holds no trail.
        let last = self.dev.written_pages(block).checked_sub(1);
        if let (Some(gecko), Some(last)) = (self.backend.gecko(), last) {
            let durable = gecko.durable_watermark(self.dev.now_seq().saturating_sub(1));
            if durable + 1 < self.dev.now_seq() {
                let last = self.geometry().ppn(block, PageOffset(last));
                // A torn spare is the newest write there is.
                let newest = self
                    .dev
                    .read_spare(last, IoPurpose::GcMigrateUser)
                    .map_or(u64::MAX, |s| s.seq);
                if newest > durable {
                    self.flush_validity();
                }
            }
        }
        self.backend
            .store()
            .note_erase(&mut self.dev, &mut self.bm, block);
        if !self
            .bm
            .erase_and_free(&mut self.dev, block, IoPurpose::GcMigrateUser)
        {
            self.report_retired_block_stale(block);
        }
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

    /// Collect a translation-block victim (baseline FTLs' greedy policy):
    /// migrate the translation pages that the GMD still points into this
    /// block, then erase it.
    fn collect_translation_block(&mut self, victim: BlockId) {
        let written = self.dev.written_pages(victim);
        let geo = self.geometry();
        for off in 0..written {
            let ppn = geo.ppn(victim, flash_sim::PageOffset(off));
            let spare = self
                .dev
                .read_spare(ppn, IoPurpose::TranslationGc)
                .expect("written page has a spare area");
            let SpareInfo::Translation { tpage, before, .. } = spare.info else {
                panic!("translation block page {ppn:?} carries {:?}", spare.info)
            };
            if self.tt.tpage_location(tpage) == Some(ppn) {
                self.counters.gc_migrations += 1;
                // The copy names the copied version's base while that base
                // is still on flash (invariant 12: its block is unerased
                // since the copied version was written) and the copied
                // version is newer than the MIN (the block manager's
                // floor, raised after every validity op), so step 4b still
                // re-derives the copied version's reports from it; the
                // copied version itself is erased with this block. The base
                // is then the version before the copy, and keeps its payload
                // as the copy's base (invariant 17).
                let floor = self.bm.floor();
                let base = before.filter(|&b| {
                    self.dev.erase_seq(geo.block_of(b)) < spare.seq && spare.seq > floor
                });
                self.tt
                    .migrate_tpage(&mut self.dev, &mut self.bm, tpage, base);
            }
        }
        self.bm
            .erase_and_free(&mut self.dev, victim, IoPurpose::TranslationGc);
    }

    /// Collect a metadata-block victim by delegating to the validity store
    /// (flash-resident PVB under the greedy policy), then erase it.
    fn collect_meta_block(&mut self, victim: BlockId) {
        self.backend
            .store()
            .collect_meta_block(&mut self.dev, &mut self.bm, victim);
        self.bm
            .erase_and_free(&mut self.dev, victim, IoPurpose::ValidityGc);
    }

    pub(crate) fn current_epoch(&self) -> u64 {
        self.epoch
    }
}
