//! # flash-sim
//!
//! An event-counting NAND flash device simulator, built as the substrate for
//! the GeckoFTL reproduction (Dayan, Bonnet, Idreos — SIGMOD 2016).
//!
//! The paper evaluates FTL designs inside the EagleTree simulation framework.
//! This crate plays the same role: it models a NAND flash device precisely
//! enough that flash-translation-layer algorithms running on top of it are
//! subject to the real constraints of flash memory, and it accounts every
//! internal IO by *purpose* so that write-amplification can be decomposed the
//! way the paper's evaluation does.
//!
//! ## Modelled flash idiosyncrasies (paper §2)
//!
//! 1. The minimum granularity of reads and writes is a flash page.
//! 2. A page cannot be rewritten until its containing block is erased.
//! 3. Blocks have limited lifetime (erase counts are tracked).
//! 4. Writes within a block must be sequential (append-only write pointer).
//! 5. Reads and writes have asymmetric latencies (defaults: 100 µs page read,
//!    1 ms page write, 3 µs spare-area read, matching the paper's §5 model).
//!
//! Page *contents* are stored symbolically (typed payloads instead of raw
//! bytes) so that recovery algorithms can genuinely read state back from
//! flash after a simulated power failure, while byte sizes are accounted
//! analytically from the device [`Geometry`].
//!
//! ## Quick example
//!
//! ```
//! use flash_sim::{FlashDevice, Geometry, PageData, SpareInfo, IoPurpose, BlockId, Lpn};
//!
//! let geo = Geometry::tiny();
//! let mut dev = FlashDevice::new(geo);
//! let blk = BlockId(0);
//! let ppn = dev
//!     .write_page(blk, PageData::User { lpn: Lpn(7), version: 1 }, SpareInfo::User { lpn: Lpn(7), before: None }, IoPurpose::UserWrite)
//!     .unwrap();
//! let spare = dev.read_spare(ppn, IoPurpose::Recovery).unwrap();
//! assert_eq!(spare.info, SpareInfo::User { lpn: Lpn(7), before: None });
//! ```

pub mod block;
pub mod device;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod latency;
pub mod page;
pub mod stats;

pub use block::Block;
pub use device::FlashDevice;
pub use error::{FlashError, Result};
pub use fault::{EraseFault, FaultPlan, FaultStats, WriteFault};
/// Re-export of the telemetry crate (spans, histograms, trace export) so
/// device users need only one dependency.
pub use ftl_telemetry as telemetry;
pub use ftl_telemetry::{Histogram, IoOp, SpanKind, Telemetry, TraceEvent};
pub use geometry::{BlockId, Geometry, Lpn, PageOffset, Ppn};
pub use latency::{LatencyModel, SimClock};
pub use page::{MetaKind, MetaTag, PageData, Spare, SpareInfo};
pub use stats::{IoCounts, IoPurpose, IoStats, WaBreakdown, WaCategory};
