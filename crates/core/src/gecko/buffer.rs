//! Logarithmic Gecko's RAM buffer (§3): the entries awaiting the next flush.
//!
//! Entries sit in arrival order in one vector, found through a dense index
//! with a slot per `(block, part)` key this tree can own — so Algorithm 1's
//! "one buffer insertion", the erase-marker replace of Algorithm 2 and the
//! GC query's buffer probe are each two array reads. Key order, which only a
//! flush needs, is produced once per flush by sorting the vector.
//!
//! The index is simulator host state like the mapping cache's slot table:
//! 4 B per key, `4 · blocks · S` bytes over all shards, and not part of the
//! modelled one-page buffer that [`super::LogGecko::ram_bytes`] charges.

use super::{GeckoConfig, GeckoEntry, GeckoKey};
use flash_sim::Geometry;

/// Index value for "key not buffered".
const VACANT: u32 = u32::MAX;

/// The buffered entries of one tree, at most one per key.
#[derive(Debug)]
pub(super) struct Buffer {
    /// Arrival order.
    entries: Vec<GeckoEntry>,
    /// `index[(block / shards) · S + part]` is the key's position in
    /// `entries`, or `VACANT`. A tree of a `shards`-way store owns the
    /// blocks of one residue class, so `block / shards` is dense and unique.
    index: Vec<u32>,
    shards: u32,
    partitions: u32,
}

impl Buffer {
    pub(super) fn new(geo: &Geometry, cfg: &GeckoConfig) -> Self {
        let keys = geo.blocks.div_ceil(cfg.shards) as usize * cfg.partitions as usize;
        Buffer {
            entries: Vec::new(),
            index: vec![VACANT; keys],
            shards: cfg.shards,
            partitions: cfg.partitions,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn slot(&self, key: GeckoKey) -> usize {
        (key.block.0 / self.shards) as usize * self.partitions as usize + key.part as usize
    }

    /// Position of `key`'s entry in `entries`, if buffered.
    fn position(&self, key: GeckoKey) -> Option<usize> {
        let pos = self.index[self.slot(key)];
        (pos != VACANT).then(|| {
            assert_eq!(
                self.entries[pos as usize].key, key,
                "a tree buffers blocks of one shard only"
            );
            pos as usize
        })
    }

    /// The buffered entry for `key`, if any.
    pub(super) fn get(&self, key: GeckoKey) -> Option<&GeckoEntry> {
        self.position(key).map(|pos| &self.entries[pos])
    }

    /// The buffered entry for `key`, inserted blank (`bits` wide) if absent.
    pub(super) fn get_or_blank(&mut self, key: GeckoKey, bits: u32) -> &mut GeckoEntry {
        let pos = match self.position(key) {
            Some(pos) => pos,
            None => self.push(GeckoEntry::blank(key, bits)),
        };
        &mut self.entries[pos]
    }

    /// Buffer `entry`, replacing whatever was buffered for its key.
    pub(super) fn put(&mut self, entry: GeckoEntry) {
        match self.position(entry.key) {
            Some(pos) => self.entries[pos] = entry,
            None => {
                self.push(entry);
            }
        }
    }

    fn push(&mut self, entry: GeckoEntry) -> usize {
        let pos = self.entries.len();
        let slot = self.slot(entry.key);
        self.index[slot] = pos as u32; // ≤ one entry per index slot < VACANT
        self.entries.push(entry);
        pos
    }

    /// The buffered entries, in arrival order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &GeckoEntry> {
        self.entries.iter()
    }

    /// Empty the buffer for a flush: the entries sorted by key, in the
    /// buffer's own storage — hand it back through [`Buffer::recycle`].
    pub(super) fn take_sorted(&mut self) -> Vec<GeckoEntry> {
        for i in 0..self.entries.len() {
            let slot = self.slot(self.entries[i].key);
            self.index[slot] = VACANT;
        }
        let mut entries = std::mem::take(&mut self.entries);
        entries.sort_unstable_by_key(|e| e.key);
        entries
    }

    /// Take back the drained storage of [`Buffer::take_sorted`].
    pub(super) fn recycle(&mut self, storage: Vec<GeckoEntry>) {
        debug_assert!(storage.is_empty() && self.entries.is_empty());
        self.entries = storage;
    }
}
