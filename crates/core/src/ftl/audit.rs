//! The GC auditor: one rule for the contract §4.1's UIP protocol keeps —
//! a user page is kept (valid, migrated) **iff** it is its LPN's mapping
//! target, [`FtlEngine::current_mapping`] — and one for the payloads the
//! engine reclaims (DESIGN.md invariant 17): no page a read may still reach
//! has had its payload reclaimed. Page checks charge no IO. Collections run
//! the per-event checks under `debug_assertions` and panic on a violation;
//! [`FtlEngine::audit`] checks a quiesced device in any profile.

use super::block_manager::BlockGroup;
use super::FtlEngine;
use flash_sim::{Lpn, PageOffset, Ppn, SpareInfo};
use std::fmt;

/// The check a [`Violation`] failed, named by what GC does or would do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// A page that is not its LPN's target (a torn one too) is migrated or
    /// store-valid.
    StaleMigration,
    /// An LPN's target is store-invalid, or erased in a 0-valid block.
    TargetDropped,
    /// A copy is newer than its LPN's target: skipped as a UIP, or audited.
    NewerThanTarget,
    /// A page with data and a non-user spare area sits in a user block.
    ForeignPage,
    /// The block's valid-page count is below its live pages up to this one.
    BvcBelowLive,
    /// A page a read may still reach — a mapping target, a GMD-current
    /// translation version, a page of a live run, or the version a pending
    /// link of the chain names — had its payload reclaimed.
    ReclaimedPayload,
}

/// A page that breaks the GC contract, and what its LPN maps to. A torn
/// page has no LPN, an unmapped LPN no target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The check that failed.
    pub rule: Rule,
    /// The page.
    pub ppn: Ppn,
    /// The LPN its spare area names.
    pub lpn: Option<Lpn>,
    /// Its write sequence number.
    pub seq: Option<u64>,
    /// The LPN's mapping target.
    pub target: Option<Ppn>,
    /// The target's write sequence number.
    pub target_seq: Option<u64>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |x: Option<u64>| x.map_or("-".into(), |x| x.to_string());
        write!(
            f,
            "{:?}: P{} (seq {}) of L{}, target P{} (seq {})",
            self.rule,
            self.ppn.0,
            show(self.seq),
            show(self.lpn.map(|l| l.0.into())),
            show(self.target.map(|t| t.0.into())),
            show(self.target_seq),
        )
    }
}

/// Panic on a GC event's violation. Checked only under debug assertions.
pub(super) fn debug_check(check: impl FnOnce() -> Result<(), Violation>) {
    if cfg!(debug_assertions) {
        if let Err(v) = check() {
            panic!("GC contract broken: {v}");
        }
    }
}

impl FtlEngine {
    /// A programmed page's LPN; `None` if it is torn (data or spare lost) or
    /// not a user page.
    fn lpn_of(&self, ppn: Ppn) -> Option<Lpn> {
        if !self.dev.is_written(ppn) {
            return None;
        }
        match self.dev.peek_spare(ppn)?.info {
            SpareInfo::User { lpn, .. } => Some(lpn),
            _ => None,
        }
    }

    fn seq_of(&self, ppn: Ppn) -> Option<u64> {
        self.dev.peek_spare(ppn).map(|s| s.seq)
    }

    fn target_of(&self, ppn: Ppn) -> Option<Ppn> {
        self.lpn_of(ppn).and_then(|lpn| self.current_mapping(lpn))
    }

    /// `Ok` if the check `holds`, else `rule`'s violation at `ppn`.
    fn ensure(&self, holds: bool, rule: Rule, ppn: Ppn) -> Result<(), Violation> {
        if holds {
            return Ok(());
        }
        let target = self.target_of(ppn);
        Err(Violation {
            rule,
            ppn,
            lpn: self.lpn_of(ppn),
            seq: self.seq_of(ppn),
            target,
            target_seq: target.and_then(|t| self.seq_of(t)),
        })
    }

    /// The rule: `ppn` is `kept` iff it is its LPN's mapping target.
    pub(super) fn check_kept(&self, ppn: Ppn, kept: bool) -> Result<(), Violation> {
        let rule = if kept {
            Rule::StaleMigration
        } else {
            Rule::TargetDropped
        };
        self.ensure(kept == (self.target_of(ppn) == Some(ppn)), rule, ppn)
    }

    /// Its corollary: no copy of a mapped LPN is newer than the target.
    pub(super) fn check_not_newer(&self, ppn: Ppn) -> Result<(), Violation> {
        let target_seq = self.target_of(ppn).map(|t| self.seq_of(t));
        let holds = target_seq.is_none_or(|t| self.seq_of(ppn) <= t);
        self.ensure(holds, Rule::NewerThanTarget, ppn)
    }

    /// The payload rule, from the side of what may still be read: every
    /// GMD-current translation version, every page of a live run and every
    /// version of step 4b's read set the block manager keeps holds its
    /// payload. [`FtlEngine::audit`] adds the mapping targets.
    pub(super) fn check_payloads(&self) -> Result<(), Violation> {
        let held = |ppn: Ppn| self.ensure(!self.dev.is_reclaimed(ppn), Rule::ReclaimedPayload, ppn);
        for tpage in 0..self.tt.num_tpages() {
            self.tt.tpage_location(tpage).map_or(Ok(()), held)?;
        }
        for run in self.backend.gecko().into_iter().flat_map(|g| g.all_runs()) {
            run.pages.iter().try_for_each(|page| held(page.ppn))?;
        }
        self.bm.held_versions().try_for_each(|v| held(v.ppn))
    }

    /// Audit the whole device once the engine has quiesced
    /// (`shutdown_clean`), when every before-image is identified: no copy of
    /// a mapped LPN is newer than its target and, in every user block, each
    /// page is marked valid iff it is its LPN's target, no page with data has
    /// a non-user spare area, and BVC is at least the live page count; and
    /// no page a read may still reach, a mapping target included, has had its
    /// payload reclaimed. Returns the first violation. Only the validity
    /// queries charge IO.
    pub fn audit(&mut self) -> Result<(), Violation> {
        self.check_payloads()?;
        let geo = self.geometry();
        for block in geo.iter_blocks() {
            let user = self.bm.group_of(block) == Some(BlockGroup::User);
            let invalid = user.then(|| self.debug_validity(block));
            let mut live = 0;
            for off in 0..self.dev.written_pages(block) {
                let ppn = geo.ppn(block, PageOffset(off));
                self.check_not_newer(ppn)?;
                let target = self.dev.is_reclaimed(ppn) && self.target_of(ppn) == Some(ppn);
                self.ensure(!target, Rule::ReclaimedPayload, ppn)?;
                let Some(invalid) = &invalid else { continue };
                let torn = self.dev.peek_spare(ppn).is_none() || !self.dev.is_written(ppn);
                self.ensure(torn || self.lpn_of(ppn).is_some(), Rule::ForeignPage, ppn)?;
                let kept = !invalid.get(off);
                self.check_kept(ppn, kept)?;
                live += u32::from(kept);
                self.ensure(live <= self.bm.valid_pages(block), Rule::BvcBelowLive, ppn)?;
            }
        }
        Ok(())
    }
}
