//! The flash-resident page-associative translation table, its RAM-resident
//! Global Mapping Directory (GMD), and synchronization operations (paper §2,
//! §4 — the DFTL-style scheme GeckoFTL adopts).
//!
//! The translation table is an array of 4-byte physical addresses indexed by
//! LPN, stored across *translation pages* of `P/4` entries each. Translation
//! pages are updated out-of-place; the GMD maps each translation-page index
//! to its current flash location.
//!
//! A *synchronization operation* batches all dirty cached mapping entries
//! that belong to one translation page: it reads the page, applies the
//! updates, writes the new version, repoints the GMD and reports the old
//! version obsolete. It returns the *before-images* (the physical addresses
//! the table held before the update) so the caller can report invalidated
//! user pages to the validity store (§4.1's UIP protocol).

use crate::ftl::block_manager::{BlockGroup, BlockManager, Version};
use flash_sim::{FlashDevice, Geometry, IoPurpose, Lpn, PageData, Ppn, SpareInfo};

/// Sentinel for "logical page never written".
const UNMAPPED: u32 = u32::MAX;

/// Payload of one translation page in flash. Which slice of the table it
/// holds is in its spare area ([`SpareInfo::Translation`]).
#[derive(Clone, Debug)]
pub struct TranslationPagePayload {
    /// `entries[i]` is the physical address of LPN `tpage·per + i`, or
    /// `UNMAPPED`, where `tpage` is the index the spare area names.
    pub entries: Vec<u32>,
    /// The checkpoint horizon in force when this version was written: no
    /// dirty cached entry then pointed at a user page with a lower seq, and
    /// none does at any later time (DESIGN.md invariant 15). 0 when the
    /// engine takes no checkpoints.
    pub horizon: u64,
    /// The seq at which these mappings were current: the version's own, or,
    /// for a GC copy, the copied version's `mapped_at`. Every page they name
    /// was written before it, and a block unerased since still holds that
    /// page (DESIGN.md invariant 12).
    pub mapped_at: u64,
}

impl TranslationPagePayload {
    /// Look up the mapping for an in-range LPN offset.
    pub fn get(&self, offset: u32) -> Option<Ppn> {
        match self.entries[offset as usize] {
            UNMAPPED => None,
            p => Some(Ppn(p)),
        }
    }
}

/// Outcome of a synchronization operation. Reusable: every
/// [`TranslationTable::synchronize_into`] overwrites all three fields and
/// keeps the vectors' storage.
#[derive(Clone, Debug, Default)]
pub struct SyncOutcome {
    /// `(lpn, before-image)` for every entry whose mapping actually changed;
    /// `None` before-image means the LPN was previously unmapped.
    pub before_images: Vec<(Lpn, Option<Ppn>)>,
    /// LPNs whose cached value already matched the flash-resident entry
    /// (recovery false-alarms, Appendix C.3.1).
    pub already_synced: Vec<Lpn>,
    /// Whether the write was skipped because every update was a false alarm
    /// ("GeckoFTL aborts the synchronization operation thereby saving one
    /// flash write").
    pub aborted: bool,
}

/// The translation table: GMD in RAM, translation pages in flash.
#[derive(Clone, Debug)]
pub struct TranslationTable {
    geo: Geometry,
    /// GMD: current flash location of every translation page.
    gmd: Vec<Option<Ppn>>,
    /// The checkpoint horizon every version written from now on carries.
    horizon: u64,
}

impl TranslationTable {
    /// An unformatted table (all GMD slots empty).
    pub fn new(geo: Geometry) -> Self {
        TranslationTable {
            geo,
            gmd: vec![None; geo.translation_pages() as usize],
            horizon: 0,
        }
    }

    /// Rebuild from a recovered GMD (Appendix C step 2) and the horizon the
    /// recovered cache's dirty entries respect (step 6).
    pub fn from_recovered(geo: Geometry, gmd: Vec<Option<Ppn>>, horizon: u64) -> Self {
        assert_eq!(gmd.len(), geo.translation_pages() as usize);
        TranslationTable { geo, gmd, horizon }
    }

    /// The checkpoint horizon the next version written will carry.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Raise the checkpoint horizon: the engine has just synchronized every
    /// dirty entry whose user page is older than `seq`.
    pub(crate) fn set_horizon(&mut self, seq: u64) {
        debug_assert!(seq >= self.horizon, "the horizon never falls");
        self.horizon = seq;
    }

    /// Materialize every translation page with all-unmapped entries.
    /// Performed once at device format time; charged to `TranslationInit`.
    pub fn format(&mut self, dev: &mut FlashDevice, bm: &mut BlockManager) {
        let per = self.geo.entries_per_translation_page();
        for tpage in 0..self.gmd.len() as u32 {
            let entries = vec![UNMAPPED; per as usize];
            self.write_version(
                dev,
                bm,
                tpage,
                entries,
                None,
                None,
                IoPurpose::TranslationInit,
            );
        }
    }

    /// Append a new version of translation page `tpage` holding `entries`
    /// to the translation group, its spare area naming `before`, and
    /// repoint the GMD at it, and hand it to the block manager, which keeps
    /// the payloads recovery may read. `mapped_at` is when `entries` were
    /// current, if before this write (a GC copy's). Reporting the version it
    /// replaces obsolete is the caller's business.
    #[allow(clippy::too_many_arguments)]
    fn write_version(
        &mut self,
        dev: &mut FlashDevice,
        bm: &mut BlockManager,
        tpage: u32,
        entries: Vec<u32>,
        before: Option<Ppn>,
        mapped_at: Option<u64>,
        purpose: IoPurpose,
    ) {
        // A failed program takes no sequence number.
        let seq = dev.now_seq();
        let ppn = bm.append(
            dev,
            BlockGroup::Translation,
            PageData::blob_of(TranslationPagePayload {
                entries,
                horizon: self.horizon,
                mapped_at: mapped_at.unwrap_or(seq),
            }),
            SpareInfo::Translation { tpage, before },
            purpose,
        );
        self.gmd[tpage as usize] = Some(ppn);
        bm.note_version(dev, tpage, Version { seq, ppn, before });
    }

    /// Number of translation pages.
    pub fn num_tpages(&self) -> u32 {
        self.gmd.len() as u32
    }

    /// Translation page covering an LPN.
    pub fn tpage_of(&self, lpn: Lpn) -> u32 {
        lpn.0 / self.geo.entries_per_translation_page()
    }

    /// The LPN range `[lo, hi)` a translation page covers.
    pub fn lpn_range(&self, tpage: u32) -> (Lpn, Lpn) {
        let per = self.geo.entries_per_translation_page();
        (Lpn(tpage * per), Lpn((tpage + 1) * per))
    }

    /// Current flash location of a translation page.
    pub fn tpage_location(&self, tpage: u32) -> Option<Ppn> {
        self.gmd[tpage as usize]
    }

    /// GMD RAM footprint: 4 bytes per translation page (`4·TT/P`, §2).
    pub fn gmd_ram_bytes(&self) -> u64 {
        4 * self.gmd.len() as u64
    }

    /// Read the mapping for `lpn` from flash (one translation-page read,
    /// charged to `purpose`).
    pub fn lookup(&self, dev: &mut FlashDevice, lpn: Lpn, purpose: IoPurpose) -> Option<Ppn> {
        self.lookup_ahead(dev, lpn, purpose, 0, &mut Vec::new())
    }

    /// [`TranslationTable::lookup`] that also takes, from the page it has
    /// read, the mapped entries among the `ahead` LPNs following `lpn` —
    /// fewer where the page ends first, none when `lpn` itself is unmapped.
    /// They replace the contents of `successors`, in LPN order.
    pub fn lookup_ahead(
        &self,
        dev: &mut FlashDevice,
        lpn: Lpn,
        purpose: IoPurpose,
        ahead: u32,
        successors: &mut Vec<(Lpn, Ppn)>,
    ) -> Option<Ppn> {
        successors.clear();
        let tpage = self.tpage_of(lpn);
        let loc = self.gmd[tpage as usize]?;
        let data = dev
            .read_page(loc, purpose)
            .expect("GMD points at a written page");
        let payload = data
            .blob::<TranslationPagePayload>()
            .expect("translation block page holds a translation payload");
        let per = self.geo.entries_per_translation_page();
        let off = lpn.0 % per;
        let ppn = payload.get(off)?;
        let last = off.saturating_add(ahead).min(per - 1);
        for next in off + 1..=last {
            if let Some(p) = payload.get(next) {
                successors.push((Lpn(lpn.0 - off + next), p));
            }
        }
        Some(ppn)
    }

    /// [`TranslationTable::lookup`] without IO, for
    /// [`FtlEngine::current_mapping`](crate::ftl::FtlEngine::current_mapping).
    pub(crate) fn peek(&self, dev: &FlashDevice, lpn: Lpn) -> Option<Ppn> {
        let data = dev.peek_page(self.gmd[self.tpage_of(lpn) as usize]?)?;
        let payload = data.blob::<TranslationPagePayload>()?;
        payload.get(lpn.0 % self.geo.entries_per_translation_page())
    }

    /// Synchronization operation: apply `updates` (cached dirty mappings) to
    /// the translation page `tpage`.
    ///
    /// An update equal to the flash-resident entry is reported in
    /// [`SyncOutcome::already_synced`] instead of being written — this
    /// covers both *uncertain* recovered entries whose assumed dirtiness
    /// was a false alarm (Appendix C.3) and live entries closing an ABA
    /// physical-address-reuse cycle. If **no** update changes anything the
    /// write is aborted.
    pub fn synchronize(
        &mut self,
        dev: &mut FlashDevice,
        bm: &mut BlockManager,
        tpage: u32,
        updates: &[(Lpn, Ppn)],
    ) -> SyncOutcome {
        let mut outcome = SyncOutcome::default();
        self.synchronize_into(dev, bm, tpage, updates, &mut outcome);
        outcome
    }

    /// [`TranslationTable::synchronize`] into caller-owned storage: the
    /// engine reuses one [`SyncOutcome`], which leaves the new page
    /// version's payload as the only allocation of a synchronization.
    pub fn synchronize_into(
        &mut self,
        dev: &mut FlashDevice,
        bm: &mut BlockManager,
        tpage: u32,
        updates: &[(Lpn, Ppn)],
        outcome: &mut SyncOutcome,
    ) {
        outcome.before_images.clear();
        outcome.already_synced.clear();
        outcome.aborted = false;
        let per = self.geo.entries_per_translation_page();
        let old_loc = self.gmd[tpage as usize].expect("synchronize against a formatted table");
        let data = dev
            .read_page(old_loc, IoPurpose::TranslationSync)
            .expect("GMD points at a written page");
        let payload = data
            .blob::<TranslationPagePayload>()
            .expect("translation page payload");
        // Decide from the page just read whether anything will be written:
        // a sync that turns out to be all false alarms copies nothing. The
        // scan stops at the first update that changes an entry — almost
        // always the first one.
        let changes =
            |&(lpn, new_ppn): &(Lpn, Ppn)| payload.entries[(lpn.0 % per) as usize] != new_ppn.0;
        if !updates.iter().any(changes) {
            outcome
                .already_synced
                .extend(updates.iter().map(|&(lpn, _)| lpn));
            outcome.aborted = true;
            return;
        }

        let mut entries = payload.entries.clone();
        for &(lpn, new_ppn) in updates {
            debug_assert_eq!(self.tpage_of(lpn), tpage, "update belongs to another tpage");
            let off = (lpn.0 % per) as usize;
            let old = entries[off];
            if old == new_ppn.0 {
                // Equal-to-flash dirty entries are not only recovery false
                // alarms (`verify`): physical-address reuse can produce them
                // legitimately. If flash maps L→P and L is then rewritten
                // P→Q→…, the block holding P can be erased, reallocated and
                // hit by a later rewrite of L at exactly offset P — an ABA
                // cycle leaving the dirty cache entry equal to the flash
                // entry. Nothing needs writing or reporting: every
                // intermediate copy was invalidated at write time, and the
                // caller clears the entry's flags via `already_synced`.
                outcome.already_synced.push(lpn);
                continue;
            }
            entries[off] = new_ppn.0;
            let before = (old != UNMAPPED).then_some(Ppn(old));
            outcome.before_images.push((lpn, before));
        }

        self.write_version(
            dev,
            bm,
            tpage,
            entries,
            Some(old_loc),
            None,
            IoPurpose::TranslationSync,
        );
        bm.page_obsolete(dev, old_loc);
    }

    /// Unmap `lpn` (host TRIM): write a new translation-page version with
    /// the entry reset to the unmapped sentinel and return the before-image,
    /// so the caller can report the discarded physical page invalid. Returns
    /// `None` without writing when the entry is already unmapped — trimming
    /// a never-written page only costs the verification read.
    pub fn unmap(&mut self, dev: &mut FlashDevice, bm: &mut BlockManager, lpn: Lpn) -> Option<Ppn> {
        let tpage = self.tpage_of(lpn);
        let per = self.geo.entries_per_translation_page();
        let old_loc = self.gmd[tpage as usize].expect("unmap against a formatted table");
        let data = dev
            .read_page(old_loc, IoPurpose::TranslationSync)
            .expect("GMD points at a written page");
        let payload = data
            .blob::<TranslationPagePayload>()
            .expect("translation page payload");

        let off = (lpn.0 % per) as usize;
        let old = payload.entries[off];
        if old == UNMAPPED {
            return None;
        }
        let mut entries = payload.entries.clone();
        entries[off] = UNMAPPED;

        self.write_version(
            dev,
            bm,
            tpage,
            entries,
            Some(old_loc),
            None,
            IoPurpose::TranslationSync,
        );
        bm.page_obsolete(dev, old_loc);
        Some(Ppn(old))
    }

    /// Migrate a live translation page during greedy garbage-collection
    /// (baseline FTLs): rewrite it verbatim at a new location, its spare
    /// area naming `before` — the version the copied one named, if the
    /// caller still wants it diffed against (see
    /// [`flash_sim::SpareInfo::Translation`]).
    pub fn migrate_tpage(
        &mut self,
        dev: &mut FlashDevice,
        bm: &mut BlockManager,
        tpage: u32,
        before: Option<Ppn>,
    ) {
        let old_loc = self.gmd[tpage as usize].expect("migrating an unmaterialized tpage");
        let data = dev
            .read_page(old_loc, IoPurpose::TranslationGc)
            .expect("live tpage readable");
        let payload = data
            .blob::<TranslationPagePayload>()
            .expect("translation page payload");
        let (entries, mapped_at) = (payload.entries.clone(), payload.mapped_at);
        // The copy's mappings are as old as the copied version's: a block
        // erased since then may hold a new life where they name a page.
        self.write_version(
            dev,
            bm,
            tpage,
            entries,
            before,
            Some(mapped_at),
            IoPurpose::TranslationGc,
        );
        // The caller is responsible for the victim block's bookkeeping; the
        // old page is inside a block about to be erased.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FlashDevice, BlockManager, TranslationTable) {
        let geo = Geometry::tiny();
        let mut dev = FlashDevice::new(geo);
        let mut bm = BlockManager::new(geo);
        let mut tt = TranslationTable::new(geo);
        tt.format(&mut dev, &mut bm);
        (dev, bm, tt)
    }

    #[test]
    fn format_materializes_every_tpage() {
        let (mut dev, _bm, tt) = setup();
        assert!(tt.num_tpages() >= 1);
        for t in 0..tt.num_tpages() {
            assert!(tt.tpage_location(t).is_some());
        }
        assert_eq!(
            tt.lookup(&mut dev, Lpn(0), IoPurpose::TranslationFetch),
            None
        );
    }

    #[test]
    fn synchronize_updates_mapping_and_returns_before_images() {
        let (mut dev, mut bm, mut tt) = setup();
        let out = tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(3), Ppn(77))]);
        assert_eq!(out.before_images, vec![(Lpn(3), None)]);
        assert!(!out.aborted);
        assert_eq!(
            tt.lookup(&mut dev, Lpn(3), IoPurpose::TranslationFetch),
            Some(Ppn(77))
        );

        let out2 = tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(3), Ppn(99))]);
        assert_eq!(out2.before_images, vec![(Lpn(3), Some(Ppn(77)))]);
        assert_eq!(
            tt.lookup(&mut dev, Lpn(3), IoPurpose::TranslationFetch),
            Some(Ppn(99))
        );
    }

    #[test]
    fn old_translation_page_reported_obsolete() {
        let (mut dev, mut bm, mut tt) = setup();
        let old_loc = tt.tpage_location(0).unwrap();
        let old_block = dev.geometry().block_of(old_loc);
        let bvc_before = bm.valid_pages(old_block);
        tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(0), Ppn(5))]);
        let new_loc = tt.tpage_location(0).unwrap();
        assert_ne!(new_loc, old_loc);
        // The new version lands in the same active translation block: one
        // page became obsolete (−1) and one new page was appended (+1).
        let appended_here = (dev.geometry().block_of(new_loc) == old_block) as u32;
        assert_eq!(bm.valid_pages(old_block), bvc_before - 1 + appended_here);
    }

    #[test]
    fn equal_to_flash_update_is_reported_already_synced_and_aborts() {
        let (mut dev, mut bm, mut tt) = setup();
        tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(1), Ppn(50))]);
        let stats_before = dev.stats().counts(IoPurpose::TranslationSync);
        // A recovered entry whose mapping is actually clean.
        let out = tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(1), Ppn(50))]);
        assert!(out.aborted);
        assert_eq!(out.already_synced, vec![Lpn(1)]);
        assert!(out.before_images.is_empty());
        let stats_after = dev.stats().counts(IoPurpose::TranslationSync);
        assert_eq!(
            stats_after.page_writes, stats_before.page_writes,
            "aborted sync must not write"
        );
        assert_eq!(
            stats_after.page_reads,
            stats_before.page_reads + 1,
            "aborted sync still pays the read"
        );
    }

    #[test]
    fn mixed_false_alarm_and_genuine_update() {
        let (mut dev, mut bm, mut tt) = setup();
        tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(1), Ppn(50))]);
        let out = tt.synchronize(
            &mut dev,
            &mut bm,
            0,
            &[(Lpn(1), Ppn(50)), (Lpn(2), Ppn(60))],
        );
        assert!(!out.aborted);
        assert_eq!(out.already_synced, vec![Lpn(1)]);
        assert_eq!(out.before_images, vec![(Lpn(2), None)]);
        assert_eq!(
            tt.lookup(&mut dev, Lpn(2), IoPurpose::TranslationFetch),
            Some(Ppn(60))
        );
    }

    #[test]
    fn unmap_clears_entry_and_returns_before_image() {
        let (mut dev, mut bm, mut tt) = setup();
        tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(2), Ppn(41))]);
        assert_eq!(tt.unmap(&mut dev, &mut bm, Lpn(2)), Some(Ppn(41)));
        assert_eq!(
            tt.lookup(&mut dev, Lpn(2), IoPurpose::TranslationFetch),
            None
        );
        // Unmapping an already-unmapped entry is read-only.
        let writes_before = dev.stats().counts(IoPurpose::TranslationSync).page_writes;
        assert_eq!(tt.unmap(&mut dev, &mut bm, Lpn(2)), None);
        assert_eq!(tt.unmap(&mut dev, &mut bm, Lpn(3)), None);
        assert_eq!(
            dev.stats().counts(IoPurpose::TranslationSync).page_writes,
            writes_before,
            "no-op unmaps must not write"
        );
    }

    #[test]
    fn migration_preserves_contents() {
        let (mut dev, mut bm, mut tt) = setup();
        tt.synchronize(&mut dev, &mut bm, 0, &[(Lpn(4), Ppn(123))]);
        let old = tt.tpage_location(0).unwrap();
        tt.migrate_tpage(&mut dev, &mut bm, 0, None);
        assert_ne!(tt.tpage_location(0), Some(old));
        assert_eq!(
            tt.lookup(&mut dev, Lpn(4), IoPurpose::TranslationFetch),
            Some(Ppn(123))
        );
    }

    #[test]
    fn tpage_math() {
        let (_dev, _bm, tt) = setup();
        let per = Geometry::tiny().entries_per_translation_page();
        assert_eq!(tt.tpage_of(Lpn(0)), 0);
        assert_eq!(tt.tpage_of(Lpn(per - 1)), 0);
        let (lo, hi) = tt.lpn_range(0);
        assert_eq!(lo, Lpn(0));
        assert_eq!(hi, Lpn(per));
    }
}
