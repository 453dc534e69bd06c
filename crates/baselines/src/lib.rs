//! # ftl-baselines
//!
//! The four state-of-the-art FTLs GeckoFTL is evaluated against (paper §5.3),
//! assembled from the shared engine in `geckoftl-core` plus the
//! page-validity stores that differentiate them:
//!
//! | FTL      | Page validity metadata          | Dirty-entry recovery      |
//! |----------|---------------------------------|---------------------------|
//! | DFTL     | RAM-resident PVB ([`RamPvb`])   | battery                   |
//! | LazyFTL  | RAM-resident PVB                | restricted dirty fraction |
//! | µ-FTL    | flash-resident PVB ([`FlashPvb`]) | battery                 |
//! | IB-FTL   | page validity log ([`PvlStore`])  | restricted dirty fraction |
//! | GeckoFTL | Logarithmic Gecko               | checkpoints + deferral    |
//!
//! All five run the same translation scheme and (unless configured
//! otherwise) the same greedy garbage-collector, so measured differences are
//! attributable to the validity store and recovery policy — the paper's
//! comparison axes.

pub mod ftls;
pub mod pvb;
pub mod pvl;

pub use ftls::{build, build_with, BaselineKind};
pub use pvb::{FlashPvb, RamPvb};
pub use pvl::PvlStore;
