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
//! **Clean-first eviction.** A full cache gives up the least recently used
//! *clean* entry among its `W = C / 2` least recently used entries
//! ([`MappingCache::clean_victim`]); only when that window holds no clean
//! entry does the engine synchronize the LRU entry's translation page and
//! evict it. A clean entry costs nothing to drop, while a dirty one costs a
//! translation-page write; the bounded window keeps a dirty entry from
//! outliving all reuse (CFLRU, Park et al., CASES 2006; docs/DESIGN.md,
//! "Deviations"). Read-ahead gives up the same pick and nothing else. Each
//! node carries a stamp from a counter bumped on every move to the MRU end,
//! so list order is stamp order. A pointer to the window's newest node and a
//! second intrusive list of the window's clean entries, in the same order,
//! make the pick O(1): an entry joins that list at its newer end when the
//! window reaches it clean, and the entries a sync cleans inside the window
//! join it by stamp, sorted and merged in one walk at the next pick.
//! Nothing allocates, and a `debug_assertions` cross-check compares every
//! pick with a walk of the window (docs/DESIGN.md, invariant 10).
//!
//! **Checkpoints.** §4.3 bounds recovery's backwards scan by synchronizing,
//! every `C` cache operations, all dirty entries that have not been
//! *written* since the previous checkpoint: every dirty entry left is then
//! younger than the previous epoch's start, the horizon the engine persists
//! and the scan stops at (at most `2·C` pages back once the engine has
//! checkpointed since it last resumed; before that, the scan walks back over
//! the recovered entries however far that is, docs/DESIGN.md invariant 15).
//! We track a
//! `written_epoch` per entry and let the engine sweep entries with
//! `written_epoch < current_epoch` at each checkpoint — same O(C)-per-C-ops
//! cost as the paper's checkpoint-symbol walk of the LRU queue, but also
//! correct for dirty entries that were re-promoted by reads.

use flash_sim::{Lpn, Ppn};

/// "No node": a node index is below `capacity`, which is below this.
const NIL: u32 = u32::MAX;

/// The clean-first window is the `C / EVICTION_WINDOW_DIVISOR` least recently
/// used entries ([`MappingCache::clean_victim`]). `C / 2`, by measurement:
/// `C / 4` saves less translation IO, and a window of the whole cache cut the
/// deep-tree benchmark's peak simulated rate by a quarter (docs/DESIGN.md,
/// "Deviations").
pub const EVICTION_WINDOW_DIVISOR: usize = 2;

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

/// A cached entry with its links: 48 bytes.
#[derive(Clone, Debug)]
struct Node {
    entry: CacheEntry,
    /// Toward the MRU end.
    prev: u32,
    /// Toward the LRU end.
    next: u32,
    /// When the node was last moved to the MRU end, from a counter that
    /// only grows (renumbered before it would wrap), so list order is stamp
    /// order.
    stamp: u32,
    /// Links of the clean list, toward its newer and its older end.
    clean_newer: u32,
    clean_older: u32,
    /// Whether the node is on the clean list, waiting to join it, or
    /// neither.
    clean: Clean,
}

/// Where a node stands toward the clean list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Clean {
    /// Dirty, or free.
    No,
    /// Clean and newer than the window: listed when the window reaches it.
    Unlisted,
    /// Clean, in the window, on the clean list.
    Listed,
    /// Clean, in the window, cleaned by a sync since the last pick: in
    /// `pending`, not yet listed.
    Pending,
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
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    dirty_count: usize,
    uncertain_count: usize,
    /// `W`, the number of least recently used entries the clean-first pick
    /// looks at.
    window: usize,
    /// The most recent node of the window: the `W`-th from the tail, or the
    /// head while the cache holds at most `W` entries (`NIL` when empty).
    window_edge: u32,
    /// The window edge's stamp (0 when empty), kept here so that the window
    /// test reads no other node.
    edge_stamp: u32,
    /// The last stamp handed out.
    clock: u32,
    /// The clean list: the window's clean entries but the pending ones, in
    /// LRU order, newest at the head. An entry joins it at the head when the
    /// window reaches it clean; one a sync cleans inside the window joins
    /// `pending`.
    clean_head: u32,
    clean_tail: u32,
    /// The nodes cleaned in place since the last pick. The next pick sorts
    /// them by stamp and merges them into the clean list in one walk, so
    /// each takes its place by recency. Holds at most `C` (capacity
    /// reserved up front).
    pending: Vec<u32>,
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
            window: (capacity / EVICTION_WINDOW_DIVISOR).max(1),
            window_edge: NIL,
            edge_stamp: 0,
            clock: 0,
            clean_head: NIL,
            clean_tail: NIL,
            pending: Vec::with_capacity(capacity),
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

    fn node(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    fn node_mut(&mut self, idx: u32) -> &mut Node {
        &mut self.nodes[idx as usize]
    }

    /// Take a linked node out of the list; the window keeps `W` entries.
    fn unlink(&mut self, idx: u32) {
        let edge = self.window_edge;
        if self.in_window(idx) {
            // The window loses a member and takes in the next newer entry.
            self.window_edge = self.node(edge).prev;
        }
        let (prev, next) = (self.node(idx).prev, self.node(idx).next);
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
        let node = self.node_mut(idx);
        (node.prev, node.next) = (NIL, NIL);
        // `len` still counts the node.
        if self.len() - 1 <= self.window {
            self.window_edge = self.head;
        }
        // At most one entry enters the window, the newest in it.
        let entered = self.window_edge;
        if entered != edge {
            self.edge_stamp = match entered {
                NIL => 0,
                e => self.node(e).stamp,
            };
            if entered != NIL && self.node(entered).clean == Clean::Unlisted {
                self.link_clean(entered, NIL, self.clean_head);
            }
        }
    }

    /// Link a node at the MRU end with a fresh stamp.
    fn push_front(&mut self, idx: u32) {
        if self.clock == u32::MAX {
            self.renumber();
        }
        self.clock += 1;
        let (head, clock) = (self.head, self.clock);
        let node = self.node_mut(idx);
        (node.stamp, node.prev, node.next) = (clock, NIL, head);
        match head {
            NIL => self.tail = idx,
            h => self.node_mut(h).prev = idx,
        }
        self.head = idx;
        if self.len() <= self.window {
            (self.window_edge, self.edge_stamp) = (idx, clock);
        }
        // The newest entry: a clean one heads the clean list if the window
        // reaches it.
        self.leave_clean(idx);
        if !self.node(idx).entry.dirty {
            match self.window_edge == idx {
                true => self.link_clean(idx, NIL, self.clean_head),
                false => self.node_mut(idx).clean = Clean::Unlisted,
            }
        }
    }

    /// Restamp the listed nodes `1, 2, …` from the LRU end, once every
    /// `2³²` moves to the MRU end, so that the clock does not wrap.
    fn renumber(&mut self) {
        let (mut at, mut stamp) = (self.tail, 0);
        while at != NIL {
            stamp += 1;
            self.node_mut(at).stamp = stamp;
            at = self.node(at).prev;
        }
        self.clock = stamp;
        if self.window_edge != NIL {
            self.edge_stamp = self.node(self.window_edge).stamp;
        }
    }

    /// Whether `idx` lies in the window.
    fn in_window(&self, idx: u32) -> bool {
        self.node(idx).stamp <= self.edge_stamp
    }

    /// Take a node off the clean list and out of `pending` (its index there
    /// goes stale).
    fn leave_clean(&mut self, idx: u32) {
        if self.node(idx).clean == Clean::Listed {
            let (newer, older) = (self.node(idx).clean_newer, self.node(idx).clean_older);
            match newer {
                NIL => self.clean_head = older,
                n => self.node_mut(n).clean_older = older,
            }
            match older {
                NIL => self.clean_tail = newer,
                o => self.node_mut(o).clean_newer = newer,
            }
        }
        self.node_mut(idx).clean = Clean::No;
    }

    /// Put a node on the clean list between `newer` and `older`, adjacent
    /// list members or `NIL` past an end.
    fn link_clean(&mut self, idx: u32, newer: u32, older: u32) {
        let node = self.node_mut(idx);
        (node.clean_newer, node.clean_older, node.clean) = (newer, older, Clean::Listed);
        match newer {
            NIL => self.clean_head = idx,
            n => self.node_mut(n).clean_older = idx,
        }
        match older {
            NIL => self.clean_tail = idx,
            o => self.node_mut(o).clean_newer = idx,
        }
    }

    /// Merge the entries cleaned in place into the clean list by stamp: sort
    /// them, then walk the list once from its oldest end.
    fn merge_pending(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        // An entry dirtied, promoted or removed since has left `Pending`;
        // one cleaned again since is in twice.
        pending.retain(|&i| self.node(i).clean == Clean::Pending);
        pending.sort_unstable_by_key(|&i| self.node(i).stamp);
        pending.dedup();
        let mut at = self.clean_tail; // the oldest listed entry not older
        for &idx in &pending {
            let stamp = self.node(idx).stamp;
            while at != NIL && self.node(at).stamp < stamp {
                at = self.node(at).clean_newer;
            }
            // Just older than `at`; newest of all when `at` is NIL.
            let older = match at {
                NIL => self.clean_head,
                a => self.node(a).clean_older,
            };
            self.link_clean(idx, at, older);
        }
        pending.clear();
        self.pending = pending;
    }

    /// The clean-first pick (module doc): the least recently used clean entry
    /// among the `W` least recently used entries, if there is one: the clean
    /// list's tail, once the entries cleaned in place have joined it. A pick
    /// costs O(1) plus, the first time after a sync, one sort of the entries
    /// it cleaned in the window and one walk of the clean list; it allocates
    /// nothing.
    pub fn clean_victim(&mut self) -> Option<Lpn> {
        if !self.pending.is_empty() {
            self.merge_pending();
        }
        let oldest = self.clean_tail;
        let pick = (oldest != NIL).then(|| self.node(oldest).entry.lpn);
        debug_assert_eq!(
            pick,
            self.clean_victim_by_scan(),
            "the clean-first pick must equal the windowed scan"
        );
        pick
    }

    /// [`MappingCache::clean_victim`] by a walk of the window from the LRU
    /// end: the oracle the pick is checked against.
    pub fn clean_victim_by_scan(&self) -> Option<Lpn> {
        self.iter_lru_order()
            .take(self.window)
            .find(|e| !e.dirty)
            .map(|e| e.lpn)
    }

    /// Node index of the entry cached for `lpn`, if any.
    fn slot(&self, lpn: Lpn) -> Option<u32> {
        self.slots
            .get(lpn.0 as usize)
            .copied()
            .filter(|&idx| idx != ABSENT)
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
        self.slot(lpn).map(|i| &self.node(i).entry)
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
        let was = self.node(idx).entry;
        let r = f(&mut self.node_mut(idx).entry);
        let is = self.node(idx).entry;
        debug_assert_eq!(is.lpn, lpn, "entry lpn must not change");
        if is.dirty != was.dirty {
            self.note_dirty(lpn, is.dirty);
            self.leave_clean(idx);
            if !is.dirty && !self.in_window(idx) {
                self.node_mut(idx).clean = Clean::Unlisted;
            } else if !is.dirty {
                // It joins the clean list by recency, not at either end. A
                // full `pending` is merged first.
                if self.pending.len() == self.capacity {
                    self.merge_pending();
                }
                self.node_mut(idx).clean = Clean::Pending;
                self.pending.push(idx);
            }
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
        let node = Node {
            entry,
            prev: NIL,
            next: NIL,
            stamp: 0,
            clean_newer: NIL,
            clean_older: NIL,
            clean: Clean::No,
        };
        let idx = if let Some(i) = self.free.pop() {
            *self.node_mut(i) = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32 // < capacity < NIL
        };
        let lpn = entry.lpn.0 as usize;
        if lpn >= self.slots.len() {
            let covered = (lpn + 1).next_multiple_of(SLOT_STEP);
            self.slots.resize(covered, ABSENT);
            self.dirty_bits.resize(covered / 64, 0);
        }
        self.slots[lpn] = idx;
        if entry.dirty {
            self.note_dirty(entry.lpn, true);
        }
        self.uncertain_count += entry.uncertain as usize;
        self.push_front(idx);
    }

    /// Read-ahead: install as clean MRU entries those of `successors` — the
    /// flash-resident mappings of the LPNs following `demand`, in LPN order —
    /// that are not cached yet. Costs no IO: a full cache gives up the
    /// clean-first pick only ([`MappingCache::clean_victim`]), and a window
    /// without a clean entry, or a pick that is `demand` or one of the
    /// successors, ends the install.
    pub fn install_read_ahead(&mut self, demand: Lpn, successors: &[(Lpn, Ppn)]) {
        let Some(&(last, _)) = successors.last() else {
            return;
        };
        for &(lpn, ppn) in successors {
            if self.slot(lpn).is_some() {
                continue;
            }
            if self.is_full() {
                match self.clean_victim() {
                    Some(victim) if !(demand..=last).contains(&victim) => {
                        self.remove(victim);
                    }
                    _ => return,
                }
            }
            self.insert(CacheEntry::clean(lpn, ppn));
        }
    }

    /// Remove and return a specific entry.
    pub fn remove(&mut self, lpn: Lpn) -> Option<CacheEntry> {
        let idx = self.slot(lpn)?;
        self.slots[lpn.0 as usize] = ABSENT;
        self.unlink(idx);
        self.leave_clean(idx);
        self.free.push(idx);
        let entry = self.node(idx).entry;
        // A free node is never dirty: the sweep reads every node.
        self.node_mut(idx).entry.dirty = false;
        if entry.dirty {
            self.note_dirty(lpn, false);
        }
        self.uncertain_count -= entry.uncertain as usize;
        Some(entry)
    }

    /// The least-recently-used entry, if any.
    pub fn peek_lru(&self) -> Option<&CacheEntry> {
        (self.tail != NIL).then(|| &self.node(self.tail).entry)
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
                let e = &self.node(self.slots[lpn]).entry;
                out.push((e.lpn, e.ppn));
            }
        }
    }

    /// Dirty entries whose last write predates `epoch` — the checkpoint
    /// sweep set (§4.3) — in LRU order. Reads the node array in memory
    /// order, not the list, and sorts what it keeps by stamp.
    pub fn dirty_written_before(&self, epoch: u64) -> Vec<Lpn> {
        let mut stale: Vec<(u32, Lpn)> = self
            .nodes
            .iter()
            .filter(|n| n.entry.dirty && n.entry.written_epoch < epoch)
            .map(|n| (n.stamp, n.entry.lpn))
            .collect();
        stale.sort_unstable_by_key(|&(stamp, _)| stamp);
        stale.into_iter().map(|(_, lpn)| lpn).collect()
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
    cursor: u32,
}

impl<'a> Iterator for LruIter<'a> {
    type Item = &'a CacheEntry;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.cache.node(self.cursor);
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

    /// A cache of `C = 4` (window 2) holding `entries`, LRU first.
    fn filled(entries: &[(u32, bool)]) -> MappingCache {
        let mut c = MappingCache::new(4);
        for &(lpn, dirty) in entries {
            c.insert(entry(lpn, lpn, dirty));
        }
        assert_eq!(c.window, 2);
        c
    }

    fn lru_order(c: &MappingCache) -> Vec<u32> {
        c.iter_lru_order().map(|e| e.lpn.0).collect()
    }

    #[test]
    fn a_clean_entry_in_the_window_goes_before_an_older_dirty_one() {
        let mut c = filled(&[(1, true), (2, false), (3, false), (4, false)]);
        assert_eq!(c.clean_victim(), Some(Lpn(2)));
        // Promoted out of the window, L2 makes way for L3.
        c.promote(Lpn(2));
        assert_eq!(c.clean_victim(), Some(Lpn(3)));
        c.remove(Lpn(3));
        c.insert(entry(5, 5, true));
        // LRU → MRU: 1, 4, 2, 5; the window is L1 and L4.
        assert_eq!(c.clean_victim(), Some(Lpn(4)));
    }

    #[test]
    fn a_window_without_a_clean_entry_offers_no_victim() {
        let mut c = filled(&[(1, true), (2, true), (3, false), (4, false)]);
        // The engine then syncs the LRU entry's page and evicts it
        // (`read_ahead_drops_successors_its_own_eviction_superseded`, whose
        // window is its one dirty LRU entry).
        assert_eq!(c.clean_victim(), None);
        assert_eq!(c.peek_lru().map(|e| e.lpn), Some(Lpn(1)));
        // A sync cleans entries where they stand: L2 is older than L3 and L4.
        c.update_entry(Lpn(2), |e| e.dirty = false);
        assert_eq!(c.clean_victim(), Some(Lpn(2)));
        c.update_entry(Lpn(1), |e| e.dirty = false);
        assert_eq!(c.clean_victim(), Some(Lpn(1)));
        // Dirtied again, L1 and L2 leave the pick to nobody.
        c.update_entry(Lpn(1), |e| e.dirty = true);
        c.update_entry(Lpn(2), |e| e.dirty = true);
        assert_eq!(c.clean_victim(), None);
    }

    #[test]
    fn synced_entries_join_the_clean_list_by_recency_in_any_batch() {
        // Batches of 3 and of 10, cleaned out of LRU order, are sorted and
        // merged: picks go oldest first. L100, inserted clean after them,
        // stays the newest clean entry.
        for batch in [&[10, 4, 0][..], &[18, 2, 10, 4, 6, 8, 12, 14, 16, 0]] {
            let mut c = MappingCache::new(33);
            for lpn in 0..32 {
                c.insert(entry(lpn, lpn, true));
            }
            c.insert(entry(100, 100, false));
            for &lpn in batch {
                c.update_entry(Lpn(lpn), |e| e.dirty = false);
            }
            let mut want: Vec<u32> = batch.to_vec();
            want.sort_unstable();
            for lpn in want {
                assert_eq!(c.clean_victim(), Some(Lpn(lpn)));
                c.remove(Lpn(lpn));
            }
            assert_eq!(c.clean_victim(), None, "L100 is not in the window");
            let l100 = c.slot(Lpn(100)).unwrap();
            assert_eq!((c.clean_tail, c.node(l100).clean), (NIL, Clean::Unlisted));
            // Promote everything older: L100 enters the window, and the list.
            for lpn in 1..32 {
                c.promote(Lpn(lpn));
            }
            assert_eq!(c.clean_victim(), Some(Lpn(100)));
        }
    }

    #[test]
    fn a_full_pending_batch_is_merged_before_it_takes_more() {
        // C = 12: the thirteenth entry cleaned in place between two picks
        // finds `pending` full of entries dirtied again since and merges it
        // first: no entry may be listed twice.
        let mut c = MappingCache::new(12);
        for lpn in 1..=12 {
            c.insert(entry(lpn, lpn, true));
        }
        for round in 0..3 {
            for lpn in 1..=12 {
                c.update_entry(Lpn(lpn), |e| e.dirty = false);
                c.update_entry(Lpn(lpn), |e| e.dirty = true);
            }
            c.update_entry(Lpn(2), |e| e.dirty = false);
            // Walked from the oldest end: listed nodes only, each once.
            let (mut at, mut listed) = (c.clean_tail, Vec::new());
            while at != NIL && listed.len() <= c.nodes.len() {
                listed.push(at);
                at = c.node(at).clean_newer;
            }
            let on_list = |i: &u32| c.node(*i).clean == Clean::Listed;
            assert!(listed.iter().all(on_list), "round {round}: {listed:?}");
            assert_eq!(c.clean_victim(), Some(Lpn(2)), "round {round}");
            c.update_entry(Lpn(2), |e| e.dirty = true);
        }
        for lpn in [4, 1, 3, 2] {
            c.update_entry(Lpn(lpn), |e| e.dirty = false);
        }
        assert_eq!(c.clean_victim(), Some(Lpn(1)));
        c.promote(Lpn(1));
        c.promote(Lpn(2));
        assert_eq!(c.clean_victim(), Some(Lpn(3)));
        c.remove(Lpn(3));
        assert_eq!(c.clean_victim(), Some(Lpn(4)));
    }

    #[test]
    fn stamps_are_renumbered_before_the_clock_wraps() {
        let mut c = filled(&[(1, true), (2, false), (3, false), (4, true)]);
        c.clock = u32::MAX - 1;
        c.promote(Lpn(1)); // takes the last stamp
        c.promote(Lpn(2)); // renumbers the others first
        assert_eq!(lru_order(&c), vec![3, 4, 1, 2]);
        assert_eq!(c.clock, 4);
        assert_eq!(c.clean_victim(), Some(Lpn(3)));
        c.update_entry(Lpn(3), |e| e.dirty = true);
        assert_eq!(c.clean_victim(), None);
        // L1 and L3 leave, L2 enters the window: LRU → MRU 4, 2.
        c.remove(Lpn(3));
        c.remove(Lpn(1));
        assert_eq!(c.clean_victim(), Some(Lpn(2)));
    }

    #[test]
    fn read_ahead_skips_dirty_entries_and_never_evicts_its_own_range() {
        let successors: Vec<(Lpn, Ppn)> = (11..16).map(|l| (Lpn(l), Ppn(l + 100))).collect();
        // L50 is dirty; L60 is the clean pick and gives its place to L11.
        // Then the window is L50 and L12, which is cached already and in
        // the range: the install ends before L13.
        let mut c = filled(&[(50, true), (60, false), (12, false), (10, false)]);
        c.install_read_ahead(Lpn(10), &successors);
        assert_eq!(lru_order(&c), vec![50, 12, 10, 11]);
        assert_eq!(c.lookup(Lpn(12)), Some(&entry(12, 12, false)));
        let installed = CacheEntry::clean(Lpn(11), Ppn(111));
        assert_eq!(c.lookup(Lpn(11)), Some(&installed));

        // A window of dirty entries ends the install before it starts.
        let mut c = filled(&[(50, true), (60, true), (12, false), (10, false)]);
        c.install_read_ahead(Lpn(10), &successors);
        assert_eq!(lru_order(&c), vec![50, 60, 12, 10]);

        // The demand entry itself is never given up: C = 1, window 1.
        let mut c = MappingCache::new(1);
        c.insert(entry(10, 10, false));
        c.install_read_ahead(Lpn(10), &successors);
        assert_eq!(lru_order(&c), vec![10]);

        // Nothing to install, nothing touched.
        c.install_read_ahead(Lpn(10), &[]);
        assert_eq!(c.len(), 1);
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
        // In LRU order, not node order; a removed entry's node is not swept.
        c.insert(entry(4, 4, true));
        c.promote(Lpn(1));
        assert_eq!(c.dirty_written_before(2), vec![Lpn(4), Lpn(1)]);
        c.remove(Lpn(4));
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
