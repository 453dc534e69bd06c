//! Gecko entries: the key-value pairs stored in Logarithmic Gecko's buffer
//! and runs (paper §3, Figure 3), including entry-partitioning (§3.3).
//!
//! A Gecko entry maps a *key* to a *page-validity bitmap*:
//!
//! * without partitioning (S=1) the key is a block ID and the bitmap has one
//!   bit per page in the block (B bits);
//! * with partitioning factor S, each block's bitmap is split into S
//!   sub-entries of B/S bits, keyed by `(block, part)` so that an update only
//!   buffers the sub-entry covering the invalidated page (Figure 6).
//!
//! Every entry additionally carries an *erase flag* (§3): an entry with the
//! flag set marks the point in time at which the block was erased, and all
//! entries for the same key in older runs are obsolete.

use flash_sim::BlockId;
use std::fmt;

/// Bitmaps of up to this many words (128 bits) store them inline. A Gecko
/// sub-entry is `B/S` bits wide — 32 under the paper's tuning — so buffering,
/// merging, cloning or querying an entry allocates nothing; wider bitmaps
/// (an unpartitioned 512-page block, the victim index's block sets) live on
/// the heap.
const INLINE_WORDS: usize = 2;

#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    /// Widths up to `64 · INLINE_WORDS`; words past the width stay zero.
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// A fixed-width bitmap: page-validity bits in Gecko entries and GC query
/// answers (bit set ⇒ page invalid), and the block sets of the block
/// manager's victim index.
///
/// The width decides the storage, and bits past the width are never set, so
/// the derived `Eq` and `Hash` compare exactly width and contents.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    words: Words,
    len: u32,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn new(len: u32) -> Self {
        let n = len.div_ceil(64) as usize;
        let words = if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0u64; n].into_boxed_slice())
        };
        Bitmap { words, len }
    }

    /// The `⌈len / 64⌉` words holding the bits, lowest first.
    fn as_slice(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &w[..self.len.div_ceil(64) as usize],
            Words::Heap(w) => w,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => &mut w[..self.len.div_ceil(64) as usize],
            Words::Heap(w) => w,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.as_slice().iter().all(|w| *w == 0)
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: u32) {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.as_mut_slice()[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    pub fn clear(&mut self, i: u32) {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.as_mut_slice()[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Read bit `i`.
    pub fn get(&self, i: u32) -> bool {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.as_slice()[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Bitwise-OR another bitmap of the same width into this one (the merge
    /// operator of Algorithm 3 and of GC queries).
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap width mismatch");
        for (w, o) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *w |= o;
        }
    }

    /// Number of set bits (hamming weight; used by BVC recovery, App. C
    /// step 5).
    pub fn count_ones(&self) -> u32 {
        self.as_slice().iter().map(|w| w.count_ones()).sum()
    }

    /// Iterate over the indices of set bits, ascending. Word-wise: zero
    /// words cost one compare, not 64 bit tests.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        let words = self.as_slice().iter().zip((0u32..).step_by(64));
        words.flat_map(|(&word, base)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    base + bit
                })
            })
        })
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap[")?;
        for i in 0..self.len {
            write!(f, "{}", self.get(i) as u8)?;
        }
        write!(f, "]")
    }
}

/// Key of a (possibly partitioned) Gecko entry: the block ID plus the
/// sub-entry index within the block's bitmap (0 when S=1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GeckoKey {
    /// The flash block this entry describes.
    pub block: BlockId,
    /// Which S-th slice of the block's bitmap this sub-entry covers.
    pub part: u16,
}

impl GeckoKey {
    /// Key of the first sub-entry of a block.
    pub fn first_of(block: BlockId) -> Self {
        GeckoKey { block, part: 0 }
    }
}

/// A Gecko entry (Figure 3): key, page-validity bitmap slice, erase flag.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GeckoEntry {
    /// Block ID + sub-entry index.
    pub key: GeckoKey,
    /// Validity bits for the B/S pages this sub-entry covers.
    pub bitmap: Bitmap,
    /// True if this entry records a block erase: all entries for the same
    /// key created earlier are obsolete.
    pub erase_flag: bool,
}

impl GeckoEntry {
    /// A blank entry for `key` with `bits`-wide bitmap.
    pub fn blank(key: GeckoKey, bits: u32) -> Self {
        GeckoEntry {
            key,
            bitmap: Bitmap::new(bits),
            erase_flag: false,
        }
    }

    /// An erase marker for `key` (Algorithm 2: blank bitmap, flag set).
    pub fn erase_marker(key: GeckoKey, bits: u32) -> Self {
        GeckoEntry {
            key,
            bitmap: Bitmap::new(bits),
            erase_flag: true,
        }
    }

    /// Resolve a collision with an entry of the same key during a merge
    /// (Algorithm 3), in place. `self` comes from the more recently created
    /// run, `older` from the older one.
    ///
    /// * If the newer entry has its erase flag set, the older entry was
    ///   created before the block's last erase and is discarded.
    /// * Otherwise the bitmaps are OR-merged, and the result inherits the
    ///   *older* entry's erase flag so that queries reaching it still stop
    ///   (everything in yet-older runs predates that erase).
    pub fn absorb_older(&mut self, older: &GeckoEntry) {
        debug_assert_eq!(self.key, older.key);
        if !self.erase_flag {
            self.bitmap.or_assign(&older.bitmap);
            self.erase_flag = older.erase_flag;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(b.is_empty());
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_bounds_checked() {
        let b = Bitmap::new(8);
        let _ = b.get(8);
    }

    #[test]
    fn bitmap_or() {
        let mut a = Bitmap::new(8);
        let mut b = Bitmap::new(8);
        a.set(1);
        b.set(2);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(2));
        assert_eq!(a.count_ones(), 2);
    }

    fn hash_of(b: &Bitmap) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// Every method at widths on both sides of the inline/heap boundary.
    #[test]
    fn bitmap_round_trips_at_inline_and_heap_widths() {
        for len in [1u32, 32, 64, 128, 129, 512] {
            // First and last bit, and the bits around each word boundary.
            let mut ones: Vec<u32> = [0, 31, 63, 64, 127, 128, 510, len - 1]
                .into_iter()
                .filter(|&i| i < len)
                .collect();
            ones.sort_unstable();
            ones.dedup();
            let mut a = Bitmap::new(len);
            assert!(a.is_empty() && a.len() == len && a.count_ones() == 0);
            for &i in &ones {
                a.set(i);
            }
            assert_eq!(a.iter_ones().collect::<Vec<_>>(), ones, "width {len}");
            assert_eq!(a.count_ones() as usize, ones.len());
            assert!((0..len).all(|i| a.get(i) == ones.contains(&i)));

            // The OR of two halves rebuilds the whole: equal, same hash.
            let (lo, hi) = ones.split_at(ones.len() / 2);
            let (mut b, mut c) = (Bitmap::new(len), Bitmap::new(len));
            lo.iter().for_each(|&i| b.set(i));
            hi.iter().for_each(|&i| c.set(i));
            b.or_assign(&c);
            assert_eq!(a, b, "width {len}");
            assert_eq!(hash_of(&a), hash_of(&b), "width {len}");
            assert_eq!(a.clone(), a);
            // One bit fewer: not equal.
            a.clear(len - 1);
            assert!(!a.get(len - 1) && a.count_ones() as usize == ones.len() - 1);
            assert_ne!(a, b, "width {len}");
        }
        // The same bits at widths either side of the boundary differ.
        let (mut inline, mut heap) = (Bitmap::new(128), Bitmap::new(129));
        inline.set(127);
        heap.set(127);
        assert_ne!(inline, heap);
        assert_ne!(hash_of(&inline), hash_of(&heap));
    }

    #[test]
    fn keys_order_by_block_then_part() {
        let a = GeckoKey {
            block: BlockId(1),
            part: 3,
        };
        let b = GeckoKey {
            block: BlockId(2),
            part: 0,
        };
        let c = GeckoKey {
            block: BlockId(2),
            part: 1,
        };
        assert!(a < b && b < c);
        assert_eq!(
            GeckoKey::first_of(BlockId(2)),
            GeckoKey {
                block: BlockId(2),
                part: 0
            }
        );
    }

    #[test]
    fn collision_erase_flag_discards_older() {
        let key = GeckoKey::first_of(BlockId(5));
        let mut merged = GeckoEntry::erase_marker(key, 8);
        let mut older = GeckoEntry::blank(key, 8);
        older.bitmap.set(3);
        merged.absorb_older(&older);
        assert!(merged.erase_flag);
        assert!(
            merged.bitmap.is_empty(),
            "older bits must be dropped after erase"
        );
    }

    #[test]
    fn collision_or_merges_and_keeps_older_erase_flag() {
        let key = GeckoKey::first_of(BlockId(5));
        let mut merged = GeckoEntry::blank(key, 8);
        merged.bitmap.set(1);
        let mut older = GeckoEntry::erase_marker(key, 8);
        older.bitmap.set(2);
        merged.absorb_older(&older);
        assert!(merged.bitmap.get(1) && merged.bitmap.get(2));
        assert!(merged.erase_flag, "older erase flag must survive the merge");
    }
}
