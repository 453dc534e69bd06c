//! Page contents and spare areas.
//!
//! Pages store *typed symbolic payloads* rather than raw bytes: the simulator
//! is an algorithm testbed, and what matters is that recovery code can read
//! exactly (and only) what was persisted. Byte sizes used in RAM/space models
//! come from the device [`crate::Geometry`] instead.
//!
//! Every flash page has an adjacent spare area (paper §2) storing metadata
//! relevant for one life-cycle of the page: the logical address last written
//! on it, a write timestamp, and a type tag. The spare area cannot be updated
//! without erasing the block, which the simulator enforces by writing it
//! exactly once together with the page.
//!
//! A programmed page is held in one of two forms, chosen per block by what
//! was programmed into it (see [`crate::block`]): a whole user page — data
//! and spare naming the same logical page — is a 24-byte `UserPage` record
//! without discriminants, and everything else (metadata payloads, torn
//! pages, the user pages the record cannot express) is the general `Page`,
//! 96 bytes, most of it the spare area a Gecko run page needs. User pages
//! are ≈ 99.9 % of a device (Figure 8), so the record is what a simulated
//! physical page costs the host.
//!
//! A metadata payload is host memory the page's 96 bytes only point at: a
//! Gecko run page's entries or a translation page's 1 024 addresses, several
//! kilobytes each. The engine drops one as soon as no recovery may read it
//! ([`crate::FlashDevice::reclaim_payload`]; docs/DESIGN.md invariant 17).
//! A reclaimed page keeps its spare area and stays programmed — the
//! simulated flash still holds the data, and nothing about IO, timing or
//! the spare scans changes — but its data area holds nothing, and a read of
//! it panics, naming the page.

use crate::geometry::{BlockId, Lpn, Ppn};
use std::any::Any;
use std::sync::Arc;

/// Kinds of metadata pages, used in spare-area type tags so that recovery's
/// initial device scan (BID construction, Appendix C step 1) can classify
/// blocks by reading the spare area of their first page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetaKind {
    /// A page belonging to a Logarithmic Gecko run.
    GeckoRun,
    /// A page of a flash-resident Page Validity Bitmap (µ-FTL baseline).
    Pvb,
    /// A page of the Page Validity Log (IB-FTL baseline, Appendix E).
    Pvl,
}

/// Spare-area contents, written atomically with the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpareInfo {
    /// A user-data page: records which logical page was last written here
    /// and, when the write superseded a known older copy, where that copy
    /// lives. The before-image pointer makes §4.1's *immediate* invalidation
    /// reports recoverable after a crash (the paper's App. C.2.2 only
    /// re-derives sync-time reports; see docs/DESIGN.md, "Deviations").
    User {
        /// The logical page stored on this physical page.
        lpn: Lpn,
        /// Physical address of the copy this write superseded, if the FTL
        /// knew it at write time (cache-hit writes and GC migrations).
        before: Option<Ppn>,
    },
    /// A translation page: records which translation-table slice it holds
    /// and, like a user page, which version of it this one superseded.
    /// GeckoRec step 4b diffs a version only against the version it names
    /// (docs/DESIGN.md, "Deviations"). The flush watermark step 4b diffs
    /// from is not here: every Gecko merge leaves a run, so the runs carry
    /// each tree's (docs/DESIGN.md invariant 17).
    Translation {
        /// Index of the translation page (covers a contiguous LPN range).
        tpage: u32,
        /// Physical address of the version this one superseded (`None` for
        /// a page's first version). A GC migration, which copies a version
        /// verbatim, names what the copied version named while that is
        /// still on flash and the copied version is newer than the validity
        /// store's MIN flush watermark.
        before: Option<Ppn>,
    },
    /// A metadata page (Gecko run / PVB / PVL), with a component-specific tag.
    Meta {
        /// Which metadata component owns the page.
        kind: MetaKind,
        /// Component-specific identity.
        tag: MetaTag,
    },
}

/// The component-specific part of a metadata page's spare area.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaTag {
    /// An identifier only (PVB segment index, log page sequence number...).
    Id(u64),
    /// A page of a Logarithmic Gecko run: besides the run id, everything
    /// recovery needs to judge the run's liveness and rebuild its directory
    /// without reading a page (29 bytes more than an id on flash).
    Run {
        /// The run id (equal to the run's creation sequence number).
        id: u64,
        /// The run's closed data-age span `[supersedes_since,
        /// supersedes_upto]`.
        span: (u64, u64),
        /// The level the run was placed at.
        level: u32,
        /// The run's page count: a run found with fewer pages was cut
        /// before it sealed.
        pages: u32,
        /// This page's first key, as `(block, partition)`. Its block names
        /// the shard that owns the run.
        first: (BlockId, u16),
        /// This page's last key, as `(block, partition)`.
        last: (BlockId, u16),
    },
}

/// A full spare area: the info plus the global write sequence number, which
/// serves as the timestamp recovery algorithms compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spare {
    /// Global monotonically-increasing write sequence number ("timestamp").
    pub seq: u64,
    /// Page-type-specific contents.
    pub info: SpareInfo,
}

/// Symbolic page payload: what `write_page` takes and `read_page` hands
/// back, by value.
///
/// This is the interchange form, not the stored one: a block of user pages
/// keeps `User` payloads packed with their spare areas (`UserPage`) and
/// rebuilds this enum on each read. Metadata payloads sit behind an `Arc`,
/// so reading or cloning one copies a pointer, never the 4 KB it stands for.
#[derive(Clone, Debug)]
pub enum PageData {
    /// User data: identified by logical page and a write version tag. The
    /// version stands in for the actual 4 KB payload and lets tests check
    /// read-your-writes against an oracle.
    User {
        /// Logical page this data belongs to.
        lpn: Lpn,
        /// Monotonic version tag assigned by the application/oracle.
        version: u64,
    },
    /// A metadata payload defined by an upper layer (translation page, Gecko
    /// run page, PVB segment, PVL log page). Downcast with [`PageData::blob`].
    Blob(Arc<dyn Any + Send + Sync>),
}

impl PageData {
    /// Construct a metadata payload.
    pub fn blob_of<T: Any + Send + Sync>(value: T) -> Self {
        PageData::Blob(Arc::new(value))
    }

    /// Downcast a metadata payload to its concrete type.
    pub fn blob<T: Any + Send + Sync>(&self) -> Option<&T> {
        match self {
            PageData::Blob(b) => b.downcast_ref::<T>(),
            PageData::User { .. } => None,
        }
    }

    /// The user payload, if this is a user page.
    pub fn as_user(&self) -> Option<(Lpn, u64)> {
        match self {
            PageData::User { lpn, version } => Some((*lpn, *version)),
            PageData::Blob(_) => None,
        }
    }
}

/// The data area of a page in the general form, as the host holds it.
#[derive(Clone, Debug, Default)]
pub(crate) enum DataArea {
    /// Nothing readable: the page is free, or a power cut tore its data area
    /// (fault injection only).
    #[default]
    Lost,
    /// The payload.
    Held(PageData),
    /// Programmed, but its payload was dropped from host memory
    /// ([`crate::FlashDevice::reclaim_payload`]): no read may reach it.
    Reclaimed,
}

impl From<Option<PageData>> for DataArea {
    fn from(data: Option<PageData>) -> Self {
        data.map_or(DataArea::Lost, DataArea::Held)
    }
}

/// The general form of one programmed page: either area may be missing,
/// because a power cut tore the write (fault injection only), and the data
/// area's payload may have been reclaimed.
#[derive(Clone, Debug, Default)]
pub(crate) struct Page {
    pub(crate) data: DataArea,
    pub(crate) spare: Option<Spare>,
}

const _: () = assert!(std::mem::size_of::<Page>() == 96);

/// The packed form of a whole user page: `PageData::User { lpn, version }`
/// with `Spare { seq, info: SpareInfo::User { lpn, before } }`, both areas
/// present and naming the same logical page.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UserPage {
    seq: u64,
    version: u64,
    lpn: u32,
    /// The before-image pointer, [`UserPage::NO_BEFORE`] for `None`.
    before: u32,
}

const _: () = assert!(std::mem::size_of::<UserPage>() == 24);

impl UserPage {
    const NO_BEFORE: u32 = u32::MAX;

    /// Pack `page` if the record can express it. It cannot when an area is
    /// missing or not a user one, when the two areas disagree on the logical
    /// page, or when the before-pointer is the sentinel's own value.
    pub(crate) fn pack(page: &Page) -> Option<UserPage> {
        let (DataArea::Held(PageData::User { lpn, version }), Some(spare)) =
            (&page.data, page.spare)
        else {
            return None;
        };
        let SpareInfo::User {
            lpn: spare_lpn,
            before,
        } = spare.info
        else {
            return None;
        };
        if spare_lpn != *lpn || before == Some(Ppn(Self::NO_BEFORE)) {
            return None;
        }
        Some(UserPage {
            seq: spare.seq,
            version: *version,
            lpn: lpn.0,
            before: before.map_or(Self::NO_BEFORE, |p| p.0),
        })
    }

    /// The same page in the general form.
    pub(crate) fn unpack(self) -> Page {
        Page {
            data: DataArea::Held(self.data()),
            spare: Some(self.spare()),
        }
    }

    pub(crate) fn data(self) -> PageData {
        PageData::User {
            lpn: Lpn(self.lpn),
            version: self.version,
        }
    }

    pub(crate) fn spare(self) -> Spare {
        Spare {
            seq: self.seq,
            info: SpareInfo::User {
                lpn: Lpn(self.lpn),
                before: (self.before != Self::NO_BEFORE).then_some(Ppn(self.before)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_downcasting() {
        #[derive(Debug, PartialEq)]
        struct TranslationPayload(Vec<u32>);
        let d = PageData::blob_of(TranslationPayload(vec![1, 2, 3]));
        assert_eq!(d.blob::<TranslationPayload>().unwrap().0, vec![1, 2, 3]);
        assert!(d.blob::<String>().is_none());
        assert!(d.as_user().is_none());
    }

    #[test]
    fn user_payload_accessors() {
        let d = PageData::User {
            lpn: Lpn(9),
            version: 42,
        };
        assert_eq!(d.as_user(), Some((Lpn(9), 42)));
        assert!(d.blob::<u32>().is_none());
    }
}
