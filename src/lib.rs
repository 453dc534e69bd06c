//! # geckoftl — facade over the reproduction workspace
//!
//! One-stop re-export of every crate in the GeckoFTL reproduction
//! (Dayan, Bonnet, Idreos: *GeckoFTL: Scalable Flash Translation Techniques
//! For Very Large Flash Devices*, SIGMOD 2016):
//!
//! * [`flash_sim`] — the NAND flash device simulator substrate;
//! * [`geckoftl_core`] — Logarithmic Gecko, the FTL engine, GeckoRec
//!   recovery (Appendix D's wear leveling is not simulated);
//! * [`ftl_baselines`] — DFTL, LazyFTL, µ-FTL, IB-FTL and their validity
//!   stores;
//! * [`ftl_workloads`] — workload generators and trace record/replay;
//! * [`ftl_models`] — the analytical RAM / recovery-time models.
//!
//! ```
//! use geckoftl::flash_sim::{Geometry, Lpn};
//! use geckoftl::geckoftl_core::ftl::FtlEngine;
//! use geckoftl::geckoftl_core::recovery::gecko_recover;
//!
//! // A 32 MB simulated device at the paper's R = 0.7.
//! let geo = Geometry::new(128, 64, 4096, 0.7);
//! let mut ftl = FtlEngine::geckoftl(geo);
//! ftl.write(Lpn(7), 1234);
//! assert_eq!(ftl.read(Lpn(7)), Some(1234));
//!
//! // Power failure + GeckoRec: the write survives.
//! let (cfg, gcfg) = (ftl.config(), ftl.backend().gecko().unwrap().config());
//! let (mut recovered, report) = gecko_recover(ftl.crash(), cfg, gcfg);
//! assert_eq!(recovered.read(Lpn(7)), Some(1234));
//! assert!(report.total_secs() > 0.0);
//! ```

pub use flash_sim;
pub use ftl_baselines;
pub use ftl_models;
pub use ftl_workloads;
pub use geckoftl_core;
