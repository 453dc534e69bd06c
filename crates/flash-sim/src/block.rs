//! A single flash block: an append-only array of pages.
//!
//! A block stores its programmed pages in one of two forms and holds no
//! memory for pages it has not programmed. A block that has received only
//! whole user pages keeps 24-byte `UserPage` records; the first page the
//! record cannot express (a translation / Gecko / PVB / PVL payload, a torn
//! page, a user page whose areas name different logical pages or whose
//! before-pointer is `u32::MAX`) rewrites the pages already there as general
//! `Page`s and the block stays in that form until its erase. The form is
//! decided by what was programmed, never by configuration, and reads cannot
//! tell the two apart (`packed_block_matches_page_vector_model`).

use crate::error::{FlashError, Result};
use crate::geometry::{BlockId, PageOffset};
use crate::page::{Page, PageData, Spare, UserPage};

/// The pages programmed since the last erase, in write order: the length is
/// the write pointer.
#[derive(Clone, Debug)]
enum Pages {
    User(Vec<UserPage>),
    Any(Vec<Page>),
}

/// One flash block. Enforces the two central NAND constraints: writes are
/// sequential within the block, and pages only become writable again after a
/// whole-block erase.
#[derive(Clone, Debug)]
pub struct Block {
    pages: Pages,
    pages_per_block: u32,
    erase_count: u32,
    /// Global sequence number of the last erase (0 if never erased).
    /// Persisted in a spare area in the real design (Appendix D), so it
    /// survives power failure.
    erase_seq: u64,
}

/// Push within a block's fixed size: storage is reserved whole, once, by the
/// first program that finds none (after construction, after an erase dropped
/// it, or on a clone, which copies only what was written).
fn push_page<T>(pages: &mut Vec<T>, pages_per_block: u32, page: T) {
    if pages.len() == pages.capacity() {
        pages.reserve_exact(pages_per_block as usize - pages.len());
    }
    pages.push(page);
}

impl Block {
    pub(crate) fn new(pages_per_block: u32) -> Self {
        Block {
            pages: Pages::User(Vec::new()),
            pages_per_block,
            erase_count: 0,
            erase_seq: 0,
        }
    }

    /// Number of pages programmed since the last erase.
    pub fn written_pages(&self) -> u32 {
        match &self.pages {
            Pages::User(v) => v.len() as u32,
            Pages::Any(v) => v.len() as u32,
        }
    }

    /// Whether the write pointer has reached the end of the block.
    pub fn is_full(&self) -> bool {
        self.written_pages() == self.pages_per_block
    }

    /// Whether no page has been programmed since the last erase.
    pub fn is_empty(&self) -> bool {
        self.written_pages() == 0
    }

    /// How many times this block has been erased.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Global sequence number at the time of the last erase.
    pub fn erase_seq(&self) -> u64 {
        self.erase_seq
    }

    pub(crate) fn append(
        &mut self,
        id: BlockId,
        data: PageData,
        spare: Spare,
    ) -> Result<PageOffset> {
        if self.is_full() {
            return Err(FlashError::BlockFull(id));
        }
        let off = self.written_pages();
        self.push(Page {
            data: Some(data),
            spare: Some(spare),
        });
        Ok(PageOffset(off))
    }

    /// Program a page torn by a mid-write power cut: the write pointer
    /// advances (the page is physically consumed and can never be
    /// programmed again), but one of the data and spare areas was lost.
    /// Only reachable through fault injection; the lost side reads back as
    /// unwritten.
    pub(crate) fn append_torn(&mut self, data: Option<PageData>, spare: Option<Spare>) {
        debug_assert!(!self.is_full(), "torn write needs a free page");
        self.push(Page { data, spare });
    }

    fn push(&mut self, page: Page) {
        let size = self.pages_per_block;
        match &mut self.pages {
            Pages::Any(pages) => push_page(pages, size, page),
            Pages::User(packed) => match UserPage::pack(&page) {
                Some(user) => push_page(packed, size, user),
                None => {
                    let mut pages = Vec::with_capacity(size as usize);
                    pages.extend(packed.iter().map(|p| p.unpack()));
                    pages.push(page);
                    self.pages = Pages::Any(pages);
                }
            },
        }
    }

    /// Erase: a block of user pages keeps its storage for its next life (a
    /// recycled user block allocates nothing); general-form storage is
    /// dropped, because every block serves as a metadata block sooner or
    /// later and would otherwise stay at twice the size for good.
    pub(crate) fn erase(&mut self, seq: u64) {
        match &mut self.pages {
            Pages::User(packed) => packed.clear(),
            Pages::Any(_) => self.pages = Pages::User(Vec::new()),
        }
        self.erase_count += 1;
        self.erase_seq = seq;
    }

    /// The data area at `off`; `None` if the page is free or its data area
    /// was torn.
    pub(crate) fn data(&self, off: PageOffset) -> Option<PageData> {
        match &self.pages {
            Pages::User(v) => v.get(off.0 as usize).map(|p| p.data()),
            Pages::Any(v) => v.get(off.0 as usize).and_then(|p| p.data.clone()),
        }
    }

    /// The spare area at `off`; `None` if the page is free or its spare
    /// area was torn.
    pub(crate) fn spare(&self, off: PageOffset) -> Option<Spare> {
        match &self.pages {
            Pages::User(v) => v.get(off.0 as usize).map(|p| p.spare()),
            Pages::Any(v) => v.get(off.0 as usize).and_then(|p| p.spare),
        }
    }

    /// Whether the page at `off` is programmed and its data area readable.
    pub(crate) fn is_written(&self, off: PageOffset) -> bool {
        match &self.pages {
            Pages::User(v) => (off.0 as usize) < v.len(),
            Pages::Any(v) => v.get(off.0 as usize).is_some_and(|p| p.data.is_some()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Lpn, Ppn};
    use crate::page::{MetaKind, MetaTag, SpareInfo};
    use std::sync::Arc;

    fn user(lpn: u32, seq: u64) -> (PageData, Spare) {
        (
            PageData::User {
                lpn: Lpn(lpn),
                version: seq,
            },
            Spare {
                seq,
                info: SpareInfo::User {
                    lpn: Lpn(lpn),
                    before: None,
                },
            },
        )
    }

    #[test]
    fn appends_sequentially_until_full() {
        let mut b = Block::new(4);
        for i in 0..4 {
            let (d, s) = user(i, i as u64);
            let off = b.append(BlockId(0), d, s).unwrap();
            assert_eq!(off, PageOffset(i));
        }
        assert!(b.is_full());
        let (d, s) = user(9, 9);
        assert_eq!(
            b.append(BlockId(0), d, s),
            Err(FlashError::BlockFull(BlockId(0)))
        );
    }

    #[test]
    fn erase_resets_and_counts() {
        let mut b = Block::new(2);
        let (d, s) = user(0, 1);
        b.append(BlockId(0), d, s).unwrap();
        assert_eq!(b.written_pages(), 1);
        b.erase(17);
        assert!(b.is_empty());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.erase_seq(), 17);
        assert!(!b.is_written(PageOffset(0)));
    }

    /// The layout this store replaced: every page of the block in the
    /// general form, free or not, and a write pointer beside them.
    struct PageVector {
        pages: Vec<Page>,
        write_ptr: usize,
    }

    impl PageVector {
        fn new(pages_per_block: u32) -> Self {
            PageVector {
                pages: vec![Page::default(); pages_per_block as usize],
                write_ptr: 0,
            }
        }

        fn append_torn(&mut self, data: Option<PageData>, spare: Option<Spare>) {
            self.pages[self.write_ptr] = Page { data, spare };
            self.write_ptr += 1;
        }

        fn erase(&mut self) {
            self.pages.fill(Page::default());
            self.write_ptr = 0;
        }
    }

    /// `PageData` has no `PartialEq` (a blob is opaque): two payloads are
    /// the same when they are the same user page or the same allocation.
    fn same_data(a: &Option<PageData>, b: &Option<PageData>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(PageData::Blob(x)), Some(PageData::Blob(y))) => Arc::ptr_eq(x, y),
            (Some(x @ PageData::User { .. }), Some(y @ PageData::User { .. })) => {
                x.as_user() == y.as_user()
            }
            _ => false,
        }
    }

    /// What one generated page is; `KINDS` lists them in this order.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        User,
        UserBefore,
        SentinelBefore,
        LpnMismatch,
        MaxLpn,
        Translation,
        Meta,
        TornData,
        TornSpare,
    }

    const KINDS: [Kind; 9] = [
        Kind::User,
        Kind::UserBefore,
        Kind::SentinelBefore,
        Kind::LpnMismatch,
        Kind::MaxLpn,
        Kind::Translation,
        Kind::Meta,
        Kind::TornData,
        Kind::TornSpare,
    ];

    fn generate(kind: Kind, r: u64, seq: u64) -> (Option<PageData>, Option<Spare>) {
        let lpn = Lpn(r as u32 % 1000);
        let user_data = |lpn| PageData::User { lpn, version: r };
        let user_spare = |lpn, before| Spare {
            seq,
            info: SpareInfo::User { lpn, before },
        };
        let some_ppn = Some(Ppn((r >> 10) as u32 % 4096));
        match kind {
            Kind::User => (Some(user_data(lpn)), Some(user_spare(lpn, None))),
            Kind::UserBefore => (Some(user_data(lpn)), Some(user_spare(lpn, some_ppn))),
            Kind::SentinelBefore => (
                Some(user_data(lpn)),
                Some(user_spare(lpn, Some(Ppn(u32::MAX)))),
            ),
            Kind::LpnMismatch => (
                Some(user_data(lpn)),
                Some(user_spare(Lpn(lpn.0 + 1), some_ppn)),
            ),
            Kind::MaxLpn => (
                Some(user_data(Lpn(u32::MAX))),
                Some(user_spare(Lpn(u32::MAX), some_ppn)),
            ),
            Kind::Translation => (
                Some(PageData::blob_of(vec![r])),
                Some(Spare {
                    seq,
                    info: SpareInfo::Translation { tpage: r as u32 },
                }),
            ),
            Kind::Meta => (
                Some(PageData::blob_of(r)),
                Some(Spare {
                    seq,
                    info: SpareInfo::Meta {
                        kind: MetaKind::GeckoRun,
                        tag: MetaTag::Id(r),
                    },
                }),
            ),
            Kind::TornData => (None, Some(user_spare(lpn, some_ppn))),
            Kind::TornSpare => (Some(user_data(lpn)), None),
        }
    }

    /// Invariant 10's idiom for the page store: through random programs,
    /// torn programs and erases, a `Block` reads at every offset like the
    /// vector of general pages it replaced. Each life of the block draws how
    /// often a page other than a plain user page arrives, so the pages the
    /// record cannot express land in empty blocks, in blocks of packed user
    /// pages (forcing the rewrite) and in blocks already in the general
    /// form; the counts at the end say each of them did.
    ///
    /// Mutations this fails on: dropping the sentinel check from
    /// `UserPage::pack` (a before-pointer of `Ppn(u32::MAX)` reads back as
    /// `None`), dropping its LPN comparison (the spare reads back with the
    /// data area's LPN), an erase that keeps the general form's pages, a
    /// rewrite that loses a page already packed, and an `is_written` that
    /// counts a torn data area as written.
    #[test]
    fn packed_block_matches_page_vector_model() {
        const B: u32 = 16;
        let mut block = Block::new(B);
        let mut model = PageVector::new(B);
        let mut x = 0x5EEDu64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        // How many pages of each kind arrived in a block of packed user
        // pages holding at least one page, and how many lives ended packed.
        let mut into_packed = [0u32; KINDS.len()];
        let mut packed_lives = 0;
        let mut odd_one_in = 2;
        for seq in 1..=20_000u64 {
            let r = next();
            if block.is_full() || r % 23 == 0 {
                if block.is_full() {
                    let (d, s) = user(1, seq);
                    assert_eq!(
                        block.append(BlockId(3), d, s),
                        Err(FlashError::BlockFull(BlockId(3)))
                    );
                }
                packed_lives +=
                    u32::from(matches!(&block.pages, Pages::User(v) if v.len() == B as usize));
                block.erase(seq);
                model.erase();
                odd_one_in = [2, 8, 64][next() as usize % 3];
            } else {
                let kind = if next() % odd_one_in == 0 {
                    KINDS[2 + next() as usize % (KINDS.len() - 2)]
                } else {
                    KINDS[next() as usize % 2]
                };
                if matches!(&block.pages, Pages::User(v) if !v.is_empty()) {
                    into_packed[kind as usize] += 1;
                }
                let (data, spare) = generate(kind, r, seq);
                model.append_torn(data.clone(), spare);
                match (data, spare) {
                    (Some(data), Some(spare)) => {
                        let off = block.append(BlockId(3), data, spare).unwrap();
                        assert_eq!(off.0 as usize, model.write_ptr - 1);
                    }
                    (data, spare) => block.append_torn(data, spare),
                }
            }
            assert_eq!(block.written_pages() as usize, model.write_ptr);
            assert_eq!(block.is_full(), model.write_ptr == B as usize);
            assert_eq!(block.is_empty(), model.write_ptr == 0);
            for off in 0..B {
                let page = &model.pages[off as usize];
                let off = PageOffset(off);
                assert!(
                    same_data(&block.data(off), &page.data),
                    "step {seq}: data at {off:?} is {:?}, the model holds {:?}",
                    block.data(off),
                    page.data
                );
                assert_eq!(block.spare(off), page.spare, "step {seq}: spare at {off:?}");
                assert_eq!(block.is_written(off), page.data.is_some());
            }
        }
        assert!(
            into_packed.iter().all(|&n| n >= 20),
            "every kind must land in a block of packed user pages: {into_packed:?}"
        );
        assert!(packed_lives >= 20, "{packed_lives} lives ended packed");
    }

    #[test]
    fn only_whole_user_pages_are_packed() {
        for kind in KINDS {
            let mut block = Block::new(4);
            let (d, s) = user(7, 1);
            block.append(BlockId(0), d, s).unwrap();
            let (data, spare) = generate(kind, 0x1234_5678_9abc, 2);
            block.append_torn(data, spare);
            let packs = matches!(kind, Kind::User | Kind::UserBefore | Kind::MaxLpn);
            assert_eq!(matches!(block.pages, Pages::User(_)), packs, "{kind:?}");
            // The general form does not outlive the erase.
            block.erase(3);
            assert!(matches!(&block.pages, Pages::User(v) if v.is_empty()));
        }
    }
}
