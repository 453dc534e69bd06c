//! Garbage collection (paper §4, §4.2): victim selection, live-page
//! migration with UIP identification (§4.1), and the metadata-aware policy.

use super::audit::debug_check;
use super::block_manager::BlockGroup;
use super::{FtlEngine, GcPolicy, GcVictim, GC_FREE_THRESHOLD};
use crate::cache::CacheEntry;
use flash_sim::{BlockId, IoPurpose, PageData, PageOffset, Ppn, SpanKind, SpareInfo};

impl FtlEngine {
    /// Run garbage collection until the free user pages are back above the
    /// threshold, one victim at a time (§3–§4.2: one validity query, one
    /// migration pass and one erase marker per victim). Called at the top
    /// of every application write.
    pub(crate) fn maybe_gc(&mut self) {
        if !self.below_free_threshold(0) {
            return;
        }
        let t0 = self.dev.clock().now_us();
        while self.below_free_threshold(0) {
            if self.collect_once() {
                // Long GC bursts tick the checkpoint clock (migrations are
                // user-page writes); honor the period between victims so
                // an epoch stays ≈C + O(B) pages and the recovery scan,
                // which stops at the start of the previous epoch, within
                // 2·C + O(B) once the engine has checkpointed since it last
                // resumed (before that, it walks back over the recovered
                // entries, docs/DESIGN.md invariant 15).
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
            self.sync_all_dirty();
            assert!(
                self.collect_once(),
                "device full: no reclaimable block even after full synchronization"
            );
        }
        // Charge the whole burst to the op that triggered it, for the
        // per-tenant GC-debt accounting (observation only).
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

    /// Pick and collect one victim block. Returns false if no block has any
    /// reclaimable (known-invalid) page.
    pub(crate) fn collect_once(&mut self) -> bool {
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
        self.counters.gc_operations += 1;
        self.collect(victim);
        true
    }

    /// Collect one victim of any group — migrate what is live, erase the
    /// block — inside the collection's one `GcCollect` span.
    fn collect(&mut self, victim: BlockId) {
        debug_check(|| self.check_payloads());
        let t0 = self.dev.clock().now_us();
        let group = self.bm.group_of(victim).expect("victim is allocated");
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
        } else {
            match group {
                BlockGroup::User => self.collect_user_block(victim),
                BlockGroup::Translation => self.collect_translation_block(victim),
                BlockGroup::Meta(_) => self.collect_meta_block(victim),
            }
        }
        let now = self.dev.clock().now_us();
        self.dev
            .telemetry_mut()
            .record_span(SpanKind::GcCollect, victim.0, t0, now);
    }

    /// Collect a user-block victim: query the validity store, migrate live
    /// pages (skipping unidentified invalid pages via the §4.1 spare-check),
    /// report the erase, erase the block.
    fn collect_user_block(&mut self, victim: BlockId) {
        let invalid = self
            .backend
            .store()
            .gc_query(&mut self.dev, &mut self.bm, victim);
        debug_assert!(self.gc_victim.is_none(), "collections do not nest");
        self.gc_victim = Some(GcVictim {
            block: victim,
            invalid,
        });
        let written = self.dev.written_pages(victim);
        let geo = self.geometry();
        for off in 0..written {
            let ppn = geo.ppn(victim, PageOffset(off));
            // Looked up per page, not once before the loop: a migration
            // below can evict a cache entry, and the synchronization that
            // eviction triggers may invalidate further pages of this block
            // after the query was answered (`note_gc_invalidation`).
            if self.gc_victim.as_ref().is_some_and(|v| v.invalid.get(off)) {
                debug_check(|| self.check_kept(ppn, false));
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
                    debug_check(|| self.check_not_newer(ppn));
                    self.counters.gc_uip_skips += 1;
                    // The erase marker below will supersede this page, and
                    // then the UIP flag goes (`clear_skipped_uip`). Until
                    // the marker exists the flag is the page's only record:
                    // a sync of the entry before the erase reports the page,
                    // and a flush that follows makes the report durable.
                    self.uip_skipped.push(lpn);
                    continue;
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
        self.gc_victim = None;
        self.erase_user_block(victim);
        self.clear_skipped_uip();
    }

    /// The victim's erase marker supersedes the pages the collection skipped
    /// as UIPs, so their before-images are identified: clear the UIP flags,
    /// or a later sync would report a page of the erased (and possibly
    /// reused) block.
    fn clear_skipped_uip(&mut self) {
        let mut skipped = std::mem::take(&mut self.uip_skipped);
        for lpn in skipped.drain(..) {
            // A sync since the skip may have cleared the flag already, or an
            // eviction dropped the entry: then there is nothing to do.
            self.cache.update_entry(lpn, |e| e.uip = false);
        }
        self.uip_skipped = skipped;
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
                    self.backend.store().flush(&mut self.dev, &mut self.bm);
                    self.after_validity_op();
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
