//! The RAM-resident LRU mapping cache (paper §4, §4.3).
//!
//! Each cached mapping entry carries three flags:
//!
//! * **dirty** — the flash-resident translation table does not yet reflect
//!   this entry's physical address;
//! * **UIP** (*Unidentified Invalid Page*, §4.1) — some before-image of this
//!   logical page has not yet been reported to the page-validity store;
//! * **uncertain** — the entry was recreated by recovery and its dirty/UIP
//!   flags are assumed-true until a synchronization operation checks them
//!   (Appendix C.3).
//!
//! The paper's cache is "implemented as a tree to enable efficient range
//! queries for mapping entries on a particular translation page" (footnote
//! 6) — what firmware with 8 bytes of RAM per entry would use. The simulator
//! indexes its intrusive doubly-linked LRU list with a dense *slot table*
//! instead: one `u32` per logical page (LPN → node index), grown on demand,
//! so every access is an array read. Beside it sits one *dirty bit* per
//! logical page, set exactly while the LPN's cached entry is dirty: the
//! range query that collects a synchronization operation's batch reads the
//! 16 words covering a translation page and visits only the dirty entries —
//! in LPN order, the order the tree would give. Both are simulator host
//! state like the device's per-page arrays (4 B and 1 bit per logical page),
//! not modelled firmware RAM: [`MappingCache::ram_bytes`] charges the
//! paper's 8 B/entry and ignores them.
//!
//! **Checkpoints.** §4.3 bounds recovery's backwards scan by synchronizing,
//! every `C` cache operations, all dirty entries that have not been
//! *written* since the previous checkpoint: every dirty entry left is then
//! younger than the previous epoch's start, the horizon the engine persists
//! and the scan stops at (at most `2·C` pages back). We track a
//! `written_epoch` per entry and let the engine sweep entries with
//! `written_epoch < current_epoch` at each checkpoint — same O(C)-per-C-ops
//! cost as the paper's checkpoint-symbol walk of the LRU queue, but also
//! correct for dirty entries that were re-promoted by reads.

use flash_sim::{Lpn, Ppn};

const NIL: usize = usize::MAX;

/// Slot-table value for "LPN not cached".
const ABSENT: u32 = u32::MAX;

/// The slot table grows in steps of this many LPNs: the span of one 4 KB
/// translation page of 4-byte entries, and a whole number of dirty-bit words.
const SLOT_STEP: usize = 1024;

/// One cached logical→physical mapping entry with its flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Logical page.
    pub lpn: Lpn,
    /// Most recent physical location of the page.
    pub ppn: Ppn,
    /// Entry differs from the flash-resident translation table.
    pub dirty: bool,
    /// A before-image of this page is not yet reported invalid (§4.1).
    pub uip: bool,
    /// Flags are post-recovery assumptions pending verification (App. C.3).
    pub uncertain: bool,
    /// Checkpoint epoch of the last *write* access (not read promotions).
    pub written_epoch: u64,
}

impl CacheEntry {
    /// Entry created when an application read misses the cache: clean.
    pub fn clean(lpn: Lpn, ppn: Ppn) -> Self {
        CacheEntry {
            lpn,
            ppn,
            dirty: false,
            uip: false,
            uncertain: false,
            written_epoch: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct Node {
    entry: CacheEntry,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU cache of mapping entries.
#[derive(Clone, Debug)]
pub struct MappingCache {
    capacity: usize,
    /// `slots[lpn]` is the index into `nodes` of the entry cached for `lpn`,
    /// or `ABSENT`. LPNs at or beyond `slots.len()` are not cached.
    slots: Vec<u32>,
    /// Bit `lpn % 64` of `dirty_bits[lpn / 64]` is set iff `lpn` is cached
    /// and its entry is dirty. Covers exactly the LPNs `slots` covers.
    dirty_bits: Vec<u64>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    dirty_count: usize,
    uncertain_count: usize,
}

impl MappingCache {
    /// An empty cache holding up to `capacity` (`C`) entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache must hold at least one entry");
        assert!(
            capacity < ABSENT as usize,
            "node indices must fit the slot table's u32"
        );
        MappingCache {
            capacity,
            slots: Vec::new(),
            dirty_bits: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            dirty_count: 0,
            uncertain_count: 0,
        }
    }

    /// `C`: maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an insert would exceed capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of dirty entries currently cached.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Number of uncertain (recovery-recreated, not yet verified) entries
    /// currently cached.
    pub fn uncertain_count(&self) -> usize {
        self.uncertain_count
    }

    /// Integrated-RAM footprint (paper: 8 bytes per cached entry).
    pub fn ram_bytes(&self) -> u64 {
        self.capacity as u64 * 8
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Node index of the entry cached for `lpn`, if any.
    fn slot(&self, lpn: Lpn) -> Option<usize> {
        match self.slots.get(lpn.0 as usize) {
            None | Some(&ABSENT) => None,
            Some(&idx) => Some(idx as usize),
        }
    }

    /// Record that the cached entry of `lpn` became dirty or clean.
    fn note_dirty(&mut self, lpn: Lpn, dirty: bool) {
        let (word, bit) = (lpn.0 as usize / 64, 1u64 << (lpn.0 % 64));
        if dirty {
            self.dirty_bits[word] |= bit;
            self.dirty_count += 1;
        } else {
            self.dirty_bits[word] &= !bit;
            self.dirty_count -= 1;
        }
    }

    /// Look up an entry without touching LRU order.
    pub fn lookup(&self, lpn: Lpn) -> Option<&CacheEntry> {
        self.slot(lpn).map(|i| &self.nodes[i].entry)
    }

    /// Move an entry to the MRU position (an LRU "touch").
    pub fn promote(&mut self, lpn: Lpn) {
        if let Some(idx) = self.slot(lpn) {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Mutate an entry in place (no LRU movement), keeping the dirty and
    /// uncertain counts consistent. Returns `None` if the entry is not
    /// cached.
    pub fn update_entry<R>(&mut self, lpn: Lpn, f: impl FnOnce(&mut CacheEntry) -> R) -> Option<R> {
        let idx = self.slot(lpn)?;
        let was = self.nodes[idx].entry;
        let r = f(&mut self.nodes[idx].entry);
        let is = self.nodes[idx].entry;
        debug_assert_eq!(is.lpn, lpn, "entry lpn must not change");
        if is.dirty != was.dirty {
            self.note_dirty(lpn, is.dirty);
        }
        self.uncertain_count =
            self.uncertain_count + is.uncertain as usize - was.uncertain as usize;
        Some(r)
    }

    /// Insert a new entry at the MRU position. Panics if the LPN is already
    /// cached or the cache is full — callers evict first. The slot table and
    /// the dirty bits grow to cover the LPN: 4 bytes and 1 bit of host memory
    /// per logical page up to the largest ever inserted.
    pub fn insert(&mut self, entry: CacheEntry) {
        assert!(!self.is_full(), "insert into full cache — evict first");
        assert!(
            self.slot(entry.lpn).is_none(),
            "duplicate insert for {:?}",
            entry.lpn
        );
        let idx = if let Some(i) = self.free.pop() {
            self.nodes[i] = Node {
                entry,
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            self.nodes.push(Node {
                entry,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        let lpn = entry.lpn.0 as usize;
        if lpn >= self.slots.len() {
            let covered = (lpn + 1).next_multiple_of(SLOT_STEP);
            self.slots.resize(covered, ABSENT);
            self.dirty_bits.resize(covered / 64, 0);
        }
        self.slots[lpn] = idx as u32; // idx < capacity < ABSENT
        if entry.dirty {
            self.note_dirty(entry.lpn, true);
        }
        self.uncertain_count += entry.uncertain as usize;
        self.push_front(idx);
    }

    /// Read-ahead: install as clean MRU entries those of `successors` — the
    /// flash-resident mappings of the LPNs following `demand`, in LPN order —
    /// that are not cached yet. Costs no IO: a full cache gives up clean LRU
    /// entries only, and the first LRU entry that is dirty, or that is
    /// `demand` or one of the successors, ends the install.
    pub fn install_read_ahead(&mut self, demand: Lpn, successors: &[(Lpn, Ppn)]) {
        let Some(&(last, _)) = successors.last() else {
            return;
        };
        for &(lpn, ppn) in successors {
            if self.slot(lpn).is_some() {
                continue;
            }
            if self.is_full() {
                let lru = *self.peek_lru().expect("full cache has an LRU entry");
                if lru.dirty || (demand..=last).contains(&lru.lpn) {
                    return;
                }
                self.remove(lru.lpn);
            }
            self.insert(CacheEntry::clean(lpn, ppn));
        }
    }

    /// Remove and return a specific entry.
    pub fn remove(&mut self, lpn: Lpn) -> Option<CacheEntry> {
        let idx = self.slot(lpn)?;
        self.slots[lpn.0 as usize] = ABSENT;
        self.unlink(idx);
        self.free.push(idx);
        let entry = self.nodes[idx].entry;
        if entry.dirty {
            self.note_dirty(lpn, false);
        }
        self.uncertain_count -= entry.uncertain as usize;
        Some(entry)
    }

    /// The least-recently-used entry, if any.
    pub fn peek_lru(&self) -> Option<&CacheEntry> {
        (self.tail != NIL).then(|| &self.nodes[self.tail].entry)
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<CacheEntry> {
        let lpn = self.peek_lru()?.lpn;
        self.remove(lpn)
    }

    /// Replace the contents of `out` with the dirty cached entries whose
    /// LPN lies in `[lo, hi)`, as `(lpn, cached address)` pairs in LPN
    /// order: the batch a synchronization operation pushes to one
    /// translation page. Reads the dirty bits of the range, a word at a
    /// time, and visits only the entries they name.
    pub fn dirty_in_range(&self, lo: Lpn, hi: Lpn, out: &mut Vec<(Lpn, Ppn)>) {
        out.clear();
        let end = (hi.0 as usize).min(self.slots.len());
        let start = (lo.0 as usize).min(end);
        if start == end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        for word in first..=last {
            let mut bits = self.dirty_bits[word];
            if word == first {
                bits &= u64::MAX << (start % 64);
            }
            if word == last {
                bits &= u64::MAX >> (63 - (end - 1) % 64);
            }
            while bits != 0 {
                let lpn = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = &self.nodes[self.slots[lpn] as usize].entry;
                out.push((e.lpn, e.ppn));
            }
        }
    }

    /// Dirty entries whose last write predates `epoch` — the checkpoint
    /// sweep set (§4.3).
    pub fn dirty_written_before(&self, epoch: u64) -> Vec<Lpn> {
        self.iter_lru_order()
            .filter(|e| e.dirty && e.written_epoch < epoch)
            .map(|e| e.lpn)
            .collect()
    }

    /// The oldest (closest to LRU end) dirty entry, if any — used by the
    /// restricted-dirty policy of LazyFTL / IB-FTL.
    pub fn oldest_dirty(&self) -> Option<&CacheEntry> {
        self.iter_lru_order().find(|e| e.dirty)
    }

    /// Iterate entries from least- to most-recently used.
    pub fn iter_lru_order(&self) -> LruIter<'_> {
        LruIter {
            cache: self,
            cursor: self.tail,
        }
    }
}

/// Iterator over cache entries in LRU→MRU order.
pub struct LruIter<'a> {
    cache: &'a MappingCache,
    cursor: usize,
}

impl<'a> Iterator for LruIter<'a> {
    type Item = &'a CacheEntry;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.cache.nodes[self.cursor];
        self.cursor = node.prev;
        Some(&node.entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lpn: u32, ppn: u32, dirty: bool) -> CacheEntry {
        CacheEntry {
            lpn: Lpn(lpn),
            ppn: Ppn(ppn),
            dirty,
            uip: false,
            uncertain: false,
            written_epoch: 0,
        }
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = MappingCache::new(3);
        c.insert(entry(1, 10, false));
        c.insert(entry(2, 20, false));
        c.insert(entry(3, 30, false));
        assert!(c.is_full());
        c.promote(Lpn(1)); // order now (LRU→MRU): 2, 3, 1
        assert_eq!(c.pop_lru().unwrap().lpn, Lpn(2));
        assert_eq!(c.pop_lru().unwrap().lpn, Lpn(3));
        assert_eq!(c.pop_lru().unwrap().lpn, Lpn(1));
        assert!(c.pop_lru().is_none());
    }

    #[test]
    fn dirty_count_tracks_flag_changes() {
        let mut c = MappingCache::new(4);
        c.insert(entry(1, 10, true));
        c.insert(entry(2, 20, false));
        assert_eq!(c.dirty_count(), 1);
        c.update_entry(Lpn(2), |e| e.dirty = true);
        assert_eq!(c.dirty_count(), 2);
        c.update_entry(Lpn(1), |e| e.dirty = false);
        assert_eq!(c.dirty_count(), 1);
        c.remove(Lpn(2));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn uncertain_count_tracks_flag_changes() {
        let mut c = MappingCache::new(4);
        let recovered = |lpn| CacheEntry {
            uncertain: true,
            ..entry(lpn, lpn, true)
        };
        c.insert(recovered(1));
        c.insert(recovered(2));
        c.insert(entry(3, 30, true));
        assert_eq!(c.uncertain_count(), 2);
        c.update_entry(Lpn(1), |e| e.uncertain = false);
        c.update_entry(Lpn(3), |e| e.dirty = false);
        assert_eq!(c.uncertain_count(), 1);
        c.remove(Lpn(2));
        assert_eq!(c.uncertain_count(), 0);
    }

    #[test]
    fn range_query_finds_only_dirty_entries_in_tpage() {
        let mut c = MappingCache::new(8);
        c.insert(entry(5, 1, true));
        c.insert(entry(6, 2, false));
        c.insert(entry(7, 3, true));
        c.insert(entry(1029, 4, true)); // outside [0, 1024)
        let mut dirty = vec![(Lpn(9), Ppn(9))]; // stale contents are replaced
        c.dirty_in_range(Lpn(0), Lpn(1024), &mut dirty);
        assert_eq!(dirty, vec![(Lpn(5), Ppn(1)), (Lpn(7), Ppn(3))]);
        c.update_entry(Lpn(7), |e| e.dirty = false);
        c.remove(Lpn(5));
        c.dirty_in_range(Lpn(0), Lpn(2048), &mut dirty);
        assert_eq!(dirty, vec![(Lpn(1029), Ppn(4))]);
    }

    #[test]
    fn read_ahead_takes_clean_lru_entries_and_never_its_own_window() {
        let mut c = MappingCache::new(4);
        for (lpn, dirty) in [(50, true), (60, false), (12, false), (10, false)] {
            c.insert(entry(lpn, lpn, dirty));
        }
        let successors: Vec<(Lpn, Ppn)> = (11..16).map(|l| (Lpn(l), Ppn(l + 100))).collect();
        // A dirty LRU entry ends the install before it starts.
        c.install_read_ahead(Lpn(10), &successors);
        let order: Vec<u32> = c.iter_lru_order().map(|e| e.lpn.0).collect();
        assert_eq!(order, vec![50, 60, 12, 10]);

        // Clean, L50 gives its place to L11 and L60 to L13. L12 is cached
        // already and keeps its entry and its LRU position — which ends the
        // install before L14: it lies in the window.
        c.update_entry(Lpn(50), |e| e.dirty = false);
        c.install_read_ahead(Lpn(10), &successors);
        let order: Vec<u32> = c.iter_lru_order().map(|e| e.lpn.0).collect();
        assert_eq!(order, vec![12, 10, 11, 13]);
        assert_eq!(c.lookup(Lpn(12)), Some(&entry(12, 12, false)));
        let installed = CacheEntry::clean(Lpn(13), Ppn(113));
        assert_eq!(c.lookup(Lpn(13)), Some(&installed));

        // Nothing to install, nothing touched.
        c.install_read_ahead(Lpn(10), &[]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn checkpoint_sweep_selects_stale_dirty_entries() {
        let mut c = MappingCache::new(8);
        let mut e1 = entry(1, 1, true);
        e1.written_epoch = 0;
        let mut e2 = entry(2, 2, true);
        e2.written_epoch = 2;
        let mut e3 = entry(3, 3, false);
        e3.written_epoch = 0;
        c.insert(e1);
        c.insert(e2);
        c.insert(e3);
        assert_eq!(c.dirty_written_before(2), vec![Lpn(1)]);
    }

    #[test]
    fn reinsertion_after_removal_reuses_slots() {
        let mut c = MappingCache::new(2);
        c.insert(entry(1, 1, false));
        c.insert(entry(2, 2, false));
        c.remove(Lpn(1));
        c.insert(entry(3, 3, false));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(Lpn(3)).is_some());
        // Backing storage did not grow beyond capacity.
        assert!(c.nodes.len() <= 2);
    }

    #[test]
    fn oldest_dirty_walks_from_lru_end() {
        let mut c = MappingCache::new(4);
        c.insert(entry(1, 1, false));
        c.insert(entry(2, 2, true));
        c.insert(entry(3, 3, true));
        assert_eq!(c.oldest_dirty().unwrap().lpn, Lpn(2));
        c.promote(Lpn(2));
        assert_eq!(c.oldest_dirty().unwrap().lpn, Lpn(3));
    }

    #[test]
    #[should_panic(expected = "evict first")]
    fn insert_into_full_cache_panics() {
        let mut c = MappingCache::new(1);
        c.insert(entry(1, 1, false));
        c.insert(entry(2, 2, false));
    }

    #[test]
    fn lru_iteration_order_is_stable() {
        let mut c = MappingCache::new(4);
        for i in 0..4 {
            c.insert(entry(i, i, false));
        }
        let order: Vec<u32> = c.iter_lru_order().map(|e| e.lpn.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
