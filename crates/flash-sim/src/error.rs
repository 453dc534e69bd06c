//! Error type for device operations.

use crate::geometry::{BlockId, Ppn};
use std::fmt;

/// Convenience alias for device results.
pub type Result<T> = std::result::Result<T, FlashError>;

/// Ways a device operation can fail.
///
/// Two families share this type. `BlockFull`, `PageNotWritten`,
/// `OutOfRange` and `BlockOutOfRange` model *firmware bugs*: a correct FTL
/// never triggers them, and the simulator surfaces them loudly instead of
/// silently corrupting state. `ProgramFailed` and `EraseFailed` model
/// *recoverable hardware faults* (injected via [`crate::FaultPlan`]): real
/// devices exhibit them at scale, and a robust FTL handles them — retry the write on a fresh block,
/// retire the bad block — instead of crashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlashError {
    /// Write issued to a block whose write pointer has reached the end.
    BlockFull(BlockId),
    /// Read of a page that has not been programmed since the last erase.
    PageNotWritten(Ppn),
    /// Address outside the device geometry.
    OutOfRange(Ppn),
    /// Block id outside the device geometry.
    BlockOutOfRange(BlockId),
    /// The program operation failed (hardware fault): nothing was persisted
    /// and the block is now marked bad. Recoverable — retry on another
    /// block.
    ProgramFailed(BlockId),
    /// The erase operation failed (hardware fault): block contents are
    /// unchanged and the block is now marked bad. Recoverable — retire the
    /// block.
    EraseFailed(BlockId),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::BlockFull(b) => write!(f, "write to full block {b:?}"),
            FlashError::PageNotWritten(p) => write!(f, "read of unwritten page {p:?}"),
            FlashError::OutOfRange(p) => write!(f, "page address {p:?} out of range"),
            FlashError::BlockOutOfRange(b) => write!(f, "block address {b:?} out of range"),
            FlashError::ProgramFailed(b) => write!(f, "program operation failed on bad {b:?}"),
            FlashError::EraseFailed(b) => write!(f, "erase operation failed on bad {b:?}"),
        }
    }
}

impl std::error::Error for FlashError {}
