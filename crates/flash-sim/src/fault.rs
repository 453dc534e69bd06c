//! Deterministic fault injection: program/erase failures, torn pages and
//! power cuts inside device operations.
//!
//! Real very-large flash devices exhibit *hardware* faults that a correct
//! FTL must survive: a program operation can fail (the page — and usually
//! the whole block — has gone bad), an erase can fail the same way, and a
//! power cut in the middle of a program can leave a *torn* page whose data
//! area never finished while its spare area did, or vice versa. These are
//! distinct from the *firmware bugs* the original [`crate::FlashError`]
//! variants model: the recoverable variants
//! ([`crate::FlashError::ProgramFailed`], [`crate::FlashError::EraseFailed`])
//! are returned to the FTL, which is expected to retry on a fresh block and
//! retire the bad one.
//!
//! A [`FaultPlan`] is a pure data object mapping *operation attempt
//! indices* (the device counts every program and erase attempt since
//! construction) to faults, so a plan replays bit-identically: the same
//! plan against the same workload produces the same device history. This is
//! what the fuzzing harness serializes into its corpus.
//!
//! ## The crash-image mechanism
//!
//! A torn write cannot be modelled by mutating the live device: the FTL is
//! oblivious to the power cut and would keep writing, producing a flash
//! state no real crash can produce (pages younger than the torn page). And
//! it cannot be modelled as an error either: the firmware is *dead* at that
//! point, there is nobody to observe an error. Instead the device snapshots
//! itself at the fault — with the in-flight page torn — and stashes the
//! snapshot as a **crash image** while live execution continues unharmed.
//! The harness polls [`crate::FlashDevice::take_crash_image`] after each
//! operation, abandons the live engine, and runs recovery against the
//! image: a physically faithful power-cut-mid-program, delivered at a
//! precise, replayable write index. [`EraseFault::Crash`] captures an image
//! the same way, with the erase just applied — a power cut inside an erase
//! operation, after the pulse completed but before firmware resumed.
//!
//! Crash images carry an empty fault plan (recovery and post-crash
//! execution run fault-free), so a plan's faults target the pre-crash
//! history only.

use std::collections::BTreeMap;

/// A fault injected into one `write_page` attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// The program operation fails: nothing is persisted, the write pointer
    /// does not advance, the block is marked bad, and the caller gets
    /// [`crate::FlashError::ProgramFailed`] — the recoverable fault an FTL
    /// handles by retrying on a fresh block.
    ProgramFail,
    /// Power cut mid-program, data area lost: the page is consumed (the
    /// write pointer advances in the crash image) and its spare area
    /// survives, but the data never finished. Live execution continues; the
    /// torn state is delivered via the crash image.
    TornData,
    /// Power cut mid-program, spare area lost: the data area survives but
    /// the spare — written last, carrying the page's identity — never made
    /// it. Delivered via the crash image, like [`WriteFault::TornData`].
    TornSpare,
}

/// A fault injected into one `erase_block` attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EraseFault {
    /// The erase fails: block contents stay intact, the block is marked bad,
    /// and the caller gets [`crate::FlashError::EraseFailed`] — the FTL
    /// retires the block instead of returning it to the free pool.
    Fail,
    /// Power cut inside the erase operation: a crash image is captured with
    /// the erase applied (the pulse completed; firmware never resumed), and
    /// live execution continues. The erase itself succeeds.
    Crash,
}

/// A deterministic, serializable schedule of device faults, keyed by
/// operation attempt index (0-based, counted separately for writes and
/// erases over the device's lifetime).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    write_faults: BTreeMap<u64, WriteFault>,
    erase_faults: BTreeMap<u64, EraseFault>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule a fault on the `nth` write attempt (builder style).
    pub fn on_write(mut self, nth: u64, fault: WriteFault) -> Self {
        self.write_faults.insert(nth, fault);
        self
    }

    /// Schedule a fault on the `nth` erase attempt (builder style).
    pub fn on_erase(mut self, nth: u64, fault: EraseFault) -> Self {
        self.erase_faults.insert(nth, fault);
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.write_faults.is_empty() && self.erase_faults.is_empty()
    }

    /// Iterate the scheduled write faults in attempt order.
    pub fn write_faults(&self) -> impl Iterator<Item = (u64, WriteFault)> + '_ {
        self.write_faults.iter().map(|(&n, &f)| (n, f))
    }

    /// Iterate the scheduled erase faults in attempt order.
    pub fn erase_faults(&self) -> impl Iterator<Item = (u64, EraseFault)> + '_ {
        self.erase_faults.iter().map(|(&n, &f)| (n, f))
    }

    pub(crate) fn write_fault(&self, nth: u64) -> Option<WriteFault> {
        self.write_faults.get(&nth).copied()
    }

    pub(crate) fn erase_fault(&self, nth: u64) -> Option<EraseFault> {
        self.erase_faults.get(&nth).copied()
    }
}

/// Counters of faults the device actually delivered (a scheduled fault is
/// only delivered if execution reaches its attempt index).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Program attempts failed ([`WriteFault::ProgramFail`] plus writes
    /// aimed at an already-bad block).
    pub program_failures: u64,
    /// Erase attempts failed ([`EraseFault::Fail`] plus erases of
    /// already-bad blocks).
    pub erase_failures: u64,
    /// Torn pages delivered into crash images.
    pub torn_writes: u64,
    /// Crash images captured inside erase operations.
    pub erase_crashes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_and_iteration() {
        let plan = FaultPlan::new()
            .on_write(3, WriteFault::TornData)
            .on_write(7, WriteFault::ProgramFail)
            .on_erase(1, EraseFault::Crash);
        assert!(!plan.is_empty());
        assert_eq!(plan.write_fault(3), Some(WriteFault::TornData));
        assert_eq!(plan.write_fault(4), None);
        assert_eq!(plan.erase_fault(1), Some(EraseFault::Crash));
        assert_eq!(
            plan.write_faults().collect::<Vec<_>>(),
            vec![(3, WriteFault::TornData), (7, WriteFault::ProgramFail)]
        );
        assert!(FaultPlan::new().is_empty());
    }
}
