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

use crate::geometry::{Lpn, Ppn};
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
    /// A translation page: records which translation-table slice it holds.
    Translation {
        /// Index of the translation page (covers a contiguous LPN range).
        tpage: u32,
    },
    /// A metadata page (Gecko run / PVB / PVL), with a component-specific tag
    /// (run id, PVB segment index, log page sequence number...).
    Meta {
        /// Which metadata component owns the page.
        kind: MetaKind,
        /// Component-specific identifier.
        tag: u64,
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

/// Symbolic page payload.
///
/// `User` is kept inline because user pages dominate (≈99.9 % of the device,
/// Figure 8); metadata payloads are boxed behind an `Arc` so the per-page
/// footprint stays small for multi-million-page simulations.
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

/// One physical flash page: programmed data + spare area, or free.
#[derive(Clone, Debug, Default)]
pub(crate) struct Page {
    pub(crate) data: Option<PageData>,
    pub(crate) spare: Option<Spare>,
}

impl Page {
    pub(crate) fn is_written(&self) -> bool {
        self.data.is_some()
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
