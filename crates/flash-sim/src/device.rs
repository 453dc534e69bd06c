//! The flash device: geometry + blocks + clock + purpose-tagged statistics.

use crate::block::Block;
use crate::error::{FlashError, Result};
use crate::fault::{EraseFault, FaultPlan, FaultStats, WriteFault};
use crate::geometry::{BlockId, Geometry, PageOffset, Ppn};
use crate::latency::{LatencyModel, SimClock};
use crate::page::{PageData, Spare, SpareInfo};
use crate::stats::{IoPurpose, IoStats};
use ftl_telemetry::{IoOp, Telemetry};

/// The latencies every IO is charged at: the paper's model.
const LATENCY: LatencyModel = LatencyModel::paper();

/// A simulated NAND flash device.
///
/// The device is the only *persistent* component of the simulation: a power
/// failure is modelled by dropping all FTL RAM state while keeping the
/// [`FlashDevice`] intact, then running a recovery algorithm that may only
/// learn about the world through `read_page` / `read_spare` calls (which are
/// duly charged to [`IoPurpose::Recovery`]).
#[derive(Clone, Debug)]
pub struct FlashDevice {
    geo: Geometry,
    blocks: Vec<Block>,
    clock: SimClock,
    stats: IoStats,
    seq: u64,
    /// Scheduled hardware faults (see [`crate::fault`]).
    fault: FaultPlan,
    /// Faults actually delivered so far.
    fault_stats: FaultStats,
    /// Lifetime program attempts (the write-fault attempt index).
    writes_attempted: u64,
    /// Lifetime erase attempts (the erase-fault attempt index).
    erases_attempted: u64,
    /// Bad-block table. Persistent like the erase counters (real firmware
    /// keeps it in spare areas / a reserved block), so it survives a crash
    /// and recovery can consult it without IO.
    bad: Vec<bool>,
    /// Snapshot captured by a torn-write or mid-erase power-cut fault; see
    /// [`crate::fault`] for the mechanism.
    crash_image: Option<Box<FlashDevice>>,
    /// Observability sink: per-channel IO events and FTL spans. Disabled by
    /// default (no allocations, no recording); purely observational — it
    /// never advances the clock or touches stats, so enabling it cannot
    /// change simulation outcomes.
    telemetry: Telemetry,
}

impl FlashDevice {
    /// Create a freshly erased device.
    pub fn new(geo: Geometry) -> Self {
        FlashDevice {
            geo,
            blocks: (0..geo.blocks)
                .map(|_| Block::new(geo.pages_per_block))
                .collect(),
            clock: SimClock::default(),
            stats: IoStats::default(),
            seq: 1,
            fault: FaultPlan::default(),
            fault_stats: FaultStats::default(),
            writes_attempted: 0,
            erases_attempted: 0,
            bad: vec![false; geo.blocks as usize],
            crash_image: None,
            telemetry: Telemetry::default(),
        }
    }

    /// Charge one operation's latency: record it as busy time, record the
    /// telemetry IO event starting at the clock's current time, and advance
    /// the clock by it. Simulated time is therefore the serial sum of every
    /// IO's latency; the event's channel is a *label* of where the IO
    /// landed, not a separate time domain. One charge point for both is
    /// what makes a trace's per-purpose duration sums reconcile with
    /// [`IoStats::busy_us`] exactly.
    fn charge_us(&mut self, block: BlockId, purpose: IoPurpose, op: IoOp, us: f64) {
        self.stats.record_busy_us(purpose, us);
        if self.telemetry.is_enabled() {
            let ch = self.geo.channel_of(block) as u16;
            let start = self.clock.now_us();
            self.telemetry
                .record_io(purpose.index() as u8, op, ch, start, us);
        }
        self.clock.advance_us(us);
    }

    /// Device geometry.
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// Simulated clock (advanced by every IO).
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Mutable statistics (the FTL bumps `logical_writes` here).
    pub fn stats_mut(&mut self) -> &mut IoStats {
        &mut self.stats
    }

    /// Telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry sink: enable recording, record FTL spans.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Current global write sequence number ("device timestamp").
    pub fn now_seq(&self) -> u64 {
        self.seq
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Reserve and consume one sequence number without performing IO.
    ///
    /// Used to mint run identities at merge *plan* time, so several merge
    /// jobs can be in flight per validity tree without two write phases
    /// minting the same id from `now_seq`. The reservation advances the
    /// sequence, which is what keeps reserved ids unique against crashes:
    /// every page programmed after a reservation `R` carries a spare
    /// sequence `> R`, so no later-minted identity can collide with `R`.
    /// (The simulator's crash image clones the counter; real firmware
    /// re-deriving its sequence from the max spare seq after power loss
    /// regains the same guarantee by skipping ahead of it.)
    pub fn reserve_seq(&mut self) -> u64 {
        self.bump_seq()
    }

    fn check_block(&self, block: BlockId) -> Result<()> {
        if block.0 < self.geo.blocks {
            Ok(())
        } else {
            Err(FlashError::BlockOutOfRange(block))
        }
    }

    fn check_ppn(&self, ppn: Ppn) -> Result<()> {
        if self.geo.contains(ppn) {
            Ok(())
        } else {
            Err(FlashError::OutOfRange(ppn))
        }
    }

    /// Program the next free page of `block` (sequential-write constraint).
    /// Returns the physical page number that was written.
    ///
    /// Subject to fault injection: a scheduled [`WriteFault::ProgramFail`]
    /// (or a write aimed at a bad block) fails with
    /// [`FlashError::ProgramFailed`] after charging the program latency,
    /// and a scheduled torn-write fault captures a crash image with the
    /// in-flight page torn while this live write completes normally.
    pub fn write_page(
        &mut self,
        block: BlockId,
        data: PageData,
        info: SpareInfo,
        purpose: IoPurpose,
    ) -> Result<Ppn> {
        self.check_block(block)?;
        if self.blocks[block.0 as usize].is_full() {
            return Err(FlashError::BlockFull(block));
        }
        let attempt = self.writes_attempted;
        self.writes_attempted += 1;
        let fault = self.fault.write_fault(attempt);
        if self.bad[block.0 as usize] || fault == Some(WriteFault::ProgramFail) {
            // A failed program costs real time, persists nothing (the write
            // pointer does not advance) and takes the whole block out of
            // service; writes aimed at an already-bad block always fail.
            self.bad[block.0 as usize] = true;
            self.fault_stats.program_failures += 1;
            self.charge_us(block, purpose, IoOp::PageWrite, LATENCY.page_write_us);
            return Err(FlashError::ProgramFailed(block));
        }
        let seq = self.bump_seq();
        if let Some(f @ (WriteFault::TornData | WriteFault::TornSpare)) = fault {
            let mut image = self.snapshot();
            let (torn_data, torn_spare) = match f {
                WriteFault::TornData => (None, Some(Spare { seq, info })),
                _ => (Some(data.clone()), None),
            };
            image.blocks[block.0 as usize].append_torn(torn_data, torn_spare);
            self.crash_image = Some(image);
            self.fault_stats.torn_writes += 1;
        }
        let off = self.blocks[block.0 as usize].append(block, data, Spare { seq, info })?;
        self.stats.record_page_write(purpose);
        self.charge_us(block, purpose, IoOp::PageWrite, LATENCY.page_write_us);
        Ok(self.geo.ppn(block, off))
    }

    /// Read a programmed page. Returns a cheap clone of the payload.
    pub fn read_page(&mut self, ppn: Ppn, purpose: IoPurpose) -> Result<PageData> {
        self.check_ppn(ppn)?;
        let block = self.geo.block_of(ppn);
        let off = self.geo.offset_of(ppn);
        let data = self.blocks[block.0 as usize]
            .data(off)
            .ok_or(FlashError::PageNotWritten(ppn))?;
        self.stats.record_page_read(purpose);
        self.charge_us(block, purpose, IoOp::PageRead, LATENCY.page_read_us);
        Ok(data)
    }

    /// Read only the spare area of a programmed page (≈32× cheaper than a
    /// full page read; the workhorse of the paper's recovery algorithms).
    pub fn read_spare(&mut self, ppn: Ppn, purpose: IoPurpose) -> Result<Spare> {
        self.check_ppn(ppn)?;
        let block = self.geo.block_of(ppn);
        let off = self.geo.offset_of(ppn);
        let spare = self.blocks[block.0 as usize]
            .spare(off)
            .ok_or(FlashError::PageNotWritten(ppn))?;
        self.stats.record_spare_read(purpose);
        self.charge_us(block, purpose, IoOp::SpareRead, LATENCY.spare_read_us);
        Ok(spare)
    }

    /// Erase a whole block, freeing all of its pages.
    ///
    /// Subject to fault injection: a scheduled [`EraseFault::Fail`] (or an
    /// erase of a bad block) fails with [`FlashError::EraseFailed`] leaving
    /// the contents intact, and a scheduled [`EraseFault::Crash`] captures
    /// a crash image with the erase just applied while live execution
    /// continues.
    pub fn erase_block(&mut self, block: BlockId, purpose: IoPurpose) -> Result<()> {
        self.check_block(block)?;
        let attempt = self.erases_attempted;
        self.erases_attempted += 1;
        let fault = self.fault.erase_fault(attempt);
        if self.bad[block.0 as usize] || fault == Some(EraseFault::Fail) {
            self.bad[block.0 as usize] = true;
            self.fault_stats.erase_failures += 1;
            self.charge_us(block, purpose, IoOp::Erase, LATENCY.erase_us);
            return Err(FlashError::EraseFailed(block));
        }
        let seq = self.bump_seq();
        self.blocks[block.0 as usize].erase(seq);
        self.stats.record_erase(purpose);
        self.charge_us(block, purpose, IoOp::Erase, LATENCY.erase_us);
        if fault == Some(EraseFault::Crash) {
            self.crash_image = Some(self.snapshot());
            self.fault_stats.erase_crashes += 1;
        }
        Ok(())
    }

    /// Install a fault plan (replacing any previous one). Attempt indices
    /// keep counting from the device's construction, so installing a plan
    /// mid-run schedules faults relative to the *lifetime* attempt counts —
    /// see [`FlashDevice::write_attempts`] / [`FlashDevice::erase_attempts`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// The fault plan currently installed.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Counters of faults actually delivered.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Lifetime program attempts (including failed ones) — the index space
    /// of [`FaultPlan::on_write`].
    pub fn write_attempts(&self) -> u64 {
        self.writes_attempted
    }

    /// Lifetime erase attempts (including failed ones) — the index space of
    /// [`FaultPlan::on_erase`].
    pub fn erase_attempts(&self) -> u64 {
        self.erases_attempted
    }

    /// Whether a block is marked bad. Free to query (the bad-block table is
    /// firmware-resident, persisted like erase counters), so recovery can
    /// consult it without IO.
    pub fn is_bad(&self, block: BlockId) -> bool {
        self.bad[block.0 as usize]
    }

    /// Mark a block bad by hand (tests / harness setup).
    pub fn mark_bad(&mut self, block: BlockId) {
        self.bad[block.0 as usize] = true;
    }

    /// Whether a fault captured a crash image since the last
    /// [`FlashDevice::take_crash_image`].
    pub fn crash_image_ready(&self) -> bool {
        self.crash_image.is_some()
    }

    /// The device as a power cut at this instant would leave it: a deep copy
    /// with no fault plan (images replay fault-free) and no image of its
    /// own. An image still pending is dropped first, not copied into the
    /// new one: only the latest fault's image can be taken.
    fn snapshot(&mut self) -> Box<FlashDevice> {
        self.crash_image = None;
        let mut image = Box::new(self.clone());
        image.fault = FaultPlan::default();
        image
    }

    /// Take the pending crash image, if any: the device state as a power
    /// cut inside a faulted operation would have left it. Feed it to
    /// recovery in place of the live device (which is abandoned — its
    /// history past the fault never happened).
    pub fn take_crash_image(&mut self) -> Option<FlashDevice> {
        self.crash_image.take().map(|b| *b)
    }

    /// Block-level inspection: number of pages programmed since last erase.
    ///
    /// This is free (no IO charge): firmware can detect erased pages at
    /// negligible cost, and the recovery algorithms that need it have already
    /// paid for a spare-area scan of the block.
    pub fn written_pages(&self, block: BlockId) -> u32 {
        self.blocks[block.0 as usize].written_pages()
    }

    /// Whether the block's write pointer has reached the end.
    pub fn block_is_full(&self, block: BlockId) -> bool {
        self.blocks[block.0 as usize].is_full()
    }

    /// Erase count of a block (persisted across power failures in a spare
    /// area, per Appendix D).
    pub fn erase_count(&self, block: BlockId) -> u32 {
        self.blocks[block.0 as usize].erase_count()
    }

    /// Sequence number of the block's last erase.
    pub fn erase_seq(&self, block: BlockId) -> u64 {
        self.blocks[block.0 as usize].erase_seq()
    }

    /// Whether a page is currently programmed (readable).
    pub fn is_written(&self, ppn: Ppn) -> bool {
        let block = self.geo.block_of(ppn);
        let off = self.geo.offset_of(ppn);
        self.blocks[block.0 as usize].is_written(off)
    }

    /// Peek at a page without charging IO. **Test/debug only** — recovery
    /// algorithms must use [`FlashDevice::read_page`].
    pub fn peek_page(&self, ppn: Ppn) -> Option<PageData> {
        let block = self.geo.block_of(ppn);
        let off = self.geo.offset_of(ppn);
        self.blocks[block.0 as usize].data(off)
    }

    /// Peek at a spare area without charging IO. **Test/debug only.**
    pub fn peek_spare(&self, ppn: Ppn) -> Option<Spare> {
        let block = self.geo.block_of(ppn);
        let off = self.geo.offset_of(ppn);
        self.blocks[block.0 as usize].spare(off)
    }

    /// Iterate the programmed pages of one block in write order, without
    /// charging IO; pages whose data area a power cut tore are skipped.
    /// **Test/debug only.**
    pub fn peek_block_pages(&self, block: BlockId) -> impl Iterator<Item = (Ppn, PageData)> + '_ {
        let geo = self.geo;
        let b = &self.blocks[block.0 as usize];
        (0..b.written_pages()).filter_map(move |off| {
            let data = b.data(PageOffset(off))?;
            Some((geo.ppn(block, PageOffset(off)), data))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Lpn;

    fn dev() -> FlashDevice {
        FlashDevice::new(Geometry::tiny())
    }

    fn write_user(dev: &mut FlashDevice, block: u32, lpn: u32, version: u64) -> Ppn {
        dev.write_page(
            BlockId(block),
            PageData::User {
                lpn: Lpn(lpn),
                version,
            },
            SpareInfo::User {
                lpn: Lpn(lpn),
                before: None,
            },
            IoPurpose::UserWrite,
        )
        .unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = dev();
        let ppn = write_user(&mut d, 3, 42, 7);
        assert_eq!(d.geometry().block_of(ppn), BlockId(3));
        let data = d.read_page(ppn, IoPurpose::UserRead).unwrap();
        assert_eq!(data.as_user(), Some((Lpn(42), 7)));
        let spare = d.read_spare(ppn, IoPurpose::Recovery).unwrap();
        assert_eq!(
            spare.info,
            SpareInfo::User {
                lpn: Lpn(42),
                before: None
            }
        );
    }

    #[test]
    fn sequential_write_constraint() {
        let mut d = dev();
        let p0 = write_user(&mut d, 0, 1, 1);
        let p1 = write_user(&mut d, 0, 2, 1);
        assert_eq!(p1.0, p0.0 + 1);
    }

    #[test]
    fn read_of_unwritten_page_fails() {
        let mut d = dev();
        assert!(matches!(
            d.read_page(Ppn(5), IoPurpose::UserRead),
            Err(FlashError::PageNotWritten(Ppn(5)))
        ));
        assert!(d.read_spare(Ppn(5), IoPurpose::Recovery).is_err());
    }

    #[test]
    fn block_fills_and_erase_frees() {
        let mut d = dev();
        let b = d.geometry().pages_per_block;
        for i in 0..b {
            write_user(&mut d, 0, i, 1);
        }
        assert!(d.block_is_full(BlockId(0)));
        let err = d.write_page(
            BlockId(0),
            PageData::User {
                lpn: Lpn(0),
                version: 2,
            },
            SpareInfo::User {
                lpn: Lpn(0),
                before: None,
            },
            IoPurpose::UserWrite,
        );
        assert_eq!(err, Err(FlashError::BlockFull(BlockId(0))));
        d.erase_block(BlockId(0), IoPurpose::GcMigrateUser).unwrap();
        assert_eq!(d.written_pages(BlockId(0)), 0);
        assert_eq!(d.erase_count(BlockId(0)), 1);
        write_user(&mut d, 0, 9, 3);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let mut d = dev();
        let p0 = write_user(&mut d, 0, 1, 1);
        let p1 = write_user(&mut d, 1, 2, 1);
        let s0 = d.read_spare(p0, IoPurpose::Recovery).unwrap();
        let s1 = d.read_spare(p1, IoPurpose::Recovery).unwrap();
        assert!(s1.seq > s0.seq);
        d.erase_block(BlockId(2), IoPurpose::GcMigrateUser).unwrap();
        assert!(d.erase_seq(BlockId(2)) > s1.seq);
    }

    #[test]
    fn clock_and_stats_account_io() {
        let mut d = dev();
        let ppn = write_user(&mut d, 0, 1, 1);
        d.read_page(ppn, IoPurpose::UserRead).unwrap();
        d.read_spare(ppn, IoPurpose::Recovery).unwrap();
        d.erase_block(BlockId(5), IoPurpose::GcMigrateUser).unwrap();
        // 1000 + 100 + 3 + 2000 µs
        assert!((d.clock().now_us() - 3103.0).abs() < 1e-9);
        assert_eq!(d.stats().counts(IoPurpose::UserWrite).page_writes, 1);
        assert_eq!(d.stats().counts(IoPurpose::UserRead).page_reads, 1);
        assert_eq!(d.stats().counts(IoPurpose::Recovery).spare_reads, 1);
        assert_eq!(d.stats().counts(IoPurpose::GcMigrateUser).erases, 1);
    }

    #[test]
    fn busy_time_tracks_purposes() {
        let mut d = dev();
        let ppn = write_user(&mut d, 0, 1, 1);
        d.read_page(ppn, IoPurpose::UserRead).unwrap();
        let snap = d.stats().clone();
        d.read_spare(ppn, IoPurpose::Recovery).unwrap();
        let delta = d.stats().since(&snap);
        assert!((delta.busy_us(IoPurpose::Recovery) - 3.0).abs() < 1e-9);
        assert!((delta.busy_us(IoPurpose::UserRead)).abs() < 1e-9);
        assert!((d.stats().total_busy_us() - 1103.0).abs() < 1e-9);
    }

    #[test]
    fn program_fail_persists_nothing_and_marks_bad() {
        let mut d = dev();
        d.set_fault_plan(FaultPlan::new().on_write(1, WriteFault::ProgramFail));
        write_user(&mut d, 0, 1, 1);
        let before = d.clock().now_us();
        let err = d.write_page(
            BlockId(0),
            PageData::User {
                lpn: Lpn(2),
                version: 1,
            },
            SpareInfo::User {
                lpn: Lpn(2),
                before: None,
            },
            IoPurpose::UserWrite,
        );
        assert_eq!(err, Err(FlashError::ProgramFailed(BlockId(0))));
        // Nothing persisted, but the attempt cost real time.
        assert_eq!(d.written_pages(BlockId(0)), 1);
        assert!(d.clock().now_us() > before);
        assert!(d.is_bad(BlockId(0)));
        assert_eq!(d.fault_stats().program_failures, 1);
        // Once bad, every further write to the block fails too.
        let err = d.write_page(
            BlockId(0),
            PageData::User {
                lpn: Lpn(3),
                version: 1,
            },
            SpareInfo::User {
                lpn: Lpn(3),
                before: None,
            },
            IoPurpose::UserWrite,
        );
        assert_eq!(err, Err(FlashError::ProgramFailed(BlockId(0))));
        assert_eq!(d.fault_stats().program_failures, 2);
        // Other blocks are unaffected.
        write_user(&mut d, 1, 2, 1);
    }

    #[test]
    fn torn_data_write_captures_crash_image_and_live_continues() {
        let mut d = dev();
        d.set_fault_plan(FaultPlan::new().on_write(1, WriteFault::TornData));
        write_user(&mut d, 0, 1, 1);
        assert!(!d.crash_image_ready());
        let ppn = write_user(&mut d, 0, 2, 1);
        assert!(d.crash_image_ready());
        assert_eq!(d.fault_stats().torn_writes, 1);
        // Live device is oblivious: the write completed normally.
        assert!(d.is_written(ppn));
        assert_eq!(
            d.read_page(ppn, IoPurpose::UserRead).unwrap().as_user(),
            Some((Lpn(2), 1))
        );
        // The image holds the torn page: consumed, spare intact, data lost.
        let image = d.take_crash_image().unwrap();
        assert!(!d.crash_image_ready());
        assert_eq!(image.written_pages(BlockId(0)), 2);
        assert!(!image.is_written(ppn), "torn data area reads as unwritten");
        let spare = image.peek_spare(ppn).expect("spare survived");
        assert_eq!(
            spare.info,
            SpareInfo::User {
                lpn: Lpn(2),
                before: None
            }
        );
        // The torn page is the image's newest write: nothing after it.
        assert!(image.now_seq() <= d.now_seq());
        assert!(image.fault_plan().is_empty(), "images replay fault-free");
    }

    #[test]
    fn torn_spare_write_loses_identity_keeps_data() {
        let mut d = dev();
        d.set_fault_plan(FaultPlan::new().on_write(0, WriteFault::TornSpare));
        let ppn = write_user(&mut d, 0, 7, 1);
        let mut image = d.take_crash_image().unwrap();
        assert_eq!(image.written_pages(BlockId(0)), 1);
        assert!(image.peek_spare(ppn).is_none(), "spare area lost");
        assert!(image.read_spare(ppn, IoPurpose::Recovery).is_err());
        assert_eq!(
            image.peek_page(ppn).and_then(|p| p.as_user()),
            Some((Lpn(7), 1)),
            "data area survived"
        );
    }

    #[test]
    fn erase_fail_keeps_contents_and_marks_bad() {
        let mut d = dev();
        let ppn = write_user(&mut d, 0, 1, 1);
        d.set_fault_plan(FaultPlan::new().on_erase(0, EraseFault::Fail));
        assert_eq!(
            d.erase_block(BlockId(0), IoPurpose::GcMigrateUser),
            Err(FlashError::EraseFailed(BlockId(0)))
        );
        assert!(d.is_written(ppn), "failed erase leaves contents intact");
        assert!(d.is_bad(BlockId(0)));
        assert_eq!(d.fault_stats().erase_failures, 1);
        assert_eq!(d.erase_count(BlockId(0)), 0);
        // Later erases of the bad block keep failing.
        assert_eq!(
            d.erase_block(BlockId(0), IoPurpose::GcMigrateUser),
            Err(FlashError::EraseFailed(BlockId(0)))
        );
        assert_eq!(d.fault_stats().erase_failures, 2);
    }

    #[test]
    fn erase_crash_erases_live_and_captures_image() {
        let mut d = dev();
        let ppn = write_user(&mut d, 0, 1, 1);
        d.set_fault_plan(FaultPlan::new().on_erase(0, EraseFault::Crash));
        d.erase_block(BlockId(0), IoPurpose::GcMigrateUser).unwrap();
        assert!(!d.is_written(ppn), "live erase succeeded");
        assert_eq!(d.fault_stats().erase_crashes, 1);
        let image = d.take_crash_image().unwrap();
        assert!(!image.is_written(ppn), "image sees the erase applied");
        assert_eq!(image.erase_count(BlockId(0)), 1);
        assert!(image.fault_plan().is_empty());
    }

    #[test]
    fn attempt_counters_index_the_fault_plan() {
        let mut d = dev();
        assert_eq!(d.write_attempts(), 0);
        write_user(&mut d, 0, 1, 1);
        d.mark_bad(BlockId(5));
        // A failed attempt still consumes an attempt index.
        let _ = d.write_page(
            BlockId(5),
            PageData::User {
                lpn: Lpn(9),
                version: 1,
            },
            SpareInfo::User {
                lpn: Lpn(9),
                before: None,
            },
            IoPurpose::UserWrite,
        );
        assert_eq!(d.write_attempts(), 2);
        d.erase_block(BlockId(1), IoPurpose::GcMigrateUser).unwrap();
        let _ = d.erase_block(BlockId(5), IoPurpose::GcMigrateUser);
        assert_eq!(d.erase_attempts(), 2);
    }

    #[test]
    fn telemetry_io_events_reconcile_with_busy_us() {
        use ftl_telemetry::TraceEvent;
        let geo = Geometry::tiny().with_channels(4);
        let mut d = FlashDevice::new(geo);
        d.telemetry_mut().enable(1024);
        let mut ppns = Vec::new();
        for b in 0..4 {
            ppns.push(write_user(&mut d, b, b, 1));
        }
        for &p in &ppns {
            d.read_page(p, IoPurpose::ValidityMerge).unwrap();
        }
        d.read_spare(ppns[0], IoPurpose::Recovery).unwrap();
        d.erase_block(BlockId(5), IoPurpose::GcMigrateUser).unwrap();
        // Summing event durations per purpose reproduces busy_us exactly
        // (events are recorded at the same point the busy time is charged).
        for p in IoPurpose::ALL {
            let summed: f64 = d
                .telemetry()
                .events()
                .filter_map(|e| match *e {
                    TraceEvent::Io {
                        purpose, dur_us, ..
                    } if purpose as usize == p.index() => Some(dur_us as f64),
                    _ => None,
                })
                .sum();
            assert!(
                (summed - d.stats().busy_us(p)).abs() < 1e-9,
                "purpose {}: events {} vs busy_us {}",
                p.label(),
                summed,
                d.stats().busy_us(p)
            );
        }
        // Single-lane time: whatever channel an IO is labelled with, it
        // starts exactly where the previous IO ended.
        let mut channels = Vec::new();
        let mut clock = 0.0;
        for e in d.telemetry().events() {
            if let TraceEvent::Io {
                channel,
                start_us,
                dur_us,
                ..
            } = *e
            {
                assert!(
                    (start_us - clock).abs() < 1e-9,
                    "IO on channel {channel} starts at {start_us}, previous IO ended at {clock}"
                );
                clock = start_us + dur_us as f64;
                channels.push(channel);
            }
        }
        assert_eq!(channels, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        // Telemetry observed but never perturbed the simulation.
        assert!((clock - d.clock().now_us()).abs() < 1e-9);
        assert!((clock - (4.0 * 1000.0 + 4.0 * 100.0 + 3.0 + 2000.0)).abs() < 1e-9);
    }

    #[test]
    fn crash_image_telemetry_is_the_precrash_prefix() {
        let mut d = dev();
        d.telemetry_mut().enable(64);
        d.set_fault_plan(FaultPlan::new().on_write(1, WriteFault::TornData));
        write_user(&mut d, 0, 1, 1);
        let events_before_fault = d.telemetry().events().count();
        write_user(&mut d, 0, 2, 1); // torn: image cloned before this IO lands
        write_user(&mut d, 0, 3, 1);
        let image = d.take_crash_image().unwrap();
        assert!(image.telemetry().is_enabled(), "image keeps recording");
        assert_eq!(
            image.telemetry().events().count(),
            events_before_fault,
            "image history stops at the power cut"
        );
        assert_eq!(d.telemetry().events().count(), 3);
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut d = dev();
        let total = d.geometry().total_pages() as u32;
        assert!(matches!(
            d.read_page(Ppn(total), IoPurpose::UserRead),
            Err(FlashError::OutOfRange(p)) if p == Ppn(total)
        ));
        assert_eq!(
            d.erase_block(BlockId(64), IoPurpose::GcMigrateUser),
            Err(FlashError::BlockOutOfRange(BlockId(64)))
        );
    }
}
