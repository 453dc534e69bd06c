//! Byte-level translation/validity oracle, shared by the merge-latency A/B
//! and the fuzzing harness.

use flash_sim::{Lpn, PageOffset, SpareInfo};
use geckoftl_core::ftl::FtlEngine;

/// Audit the engine's full flash state after it quiesces (run it after
/// `shutdown_clean`, when every before-image has been identified): every
/// written user page must be marked invalid by the validity store **iff**
/// it is not the current translation target of the logical page its spare
/// area names. Torn pages — a data or spare area lost to a power cut — can
/// never be a translation target, so they must be marked invalid.
///
/// Returns `false` (and prints the offending page) on the first mismatch.
pub fn audit_state(engine: &mut FtlEngine) -> bool {
    let geo = engine.geometry();
    for block in geo.iter_blocks() {
        if engine
            .block_manager()
            .group_of(block)
            .is_none_or(|g| g.is_metadata())
        {
            continue;
        }
        let written = engine.device().written_pages(block);
        // Collect per-page identity first: `debug_validity` and
        // `current_mapping` need `&mut` engine access below.
        let pages: Vec<(Option<Lpn>, bool)> = (0..written)
            .map(|off| {
                let ppn = geo.ppn(block, PageOffset(off));
                let lpn = engine.device().peek_spare(ppn).and_then(|s| match s.info {
                    SpareInfo::User { lpn, .. } => Some(lpn),
                    _ => None,
                });
                let has_data = engine.device().peek_page(ppn).is_some();
                (lpn, has_data)
            })
            .collect();
        let invalid = engine.debug_validity(block);
        let mut live_pages = 0u32;
        for (off, &(lpn, has_data)) in pages.iter().enumerate() {
            let ppn = geo.ppn(block, PageOffset(off as u32));
            let torn = lpn.is_none() || !has_data;
            if torn {
                // A non-user spare inside a user block is a firmware bug,
                // not a torn page: fail loudly.
                if engine.device().peek_spare(ppn).is_some() && has_data {
                    eprintln!("   oracle: non-user page in user {block:?} at offset {off}");
                    return false;
                }
                if !invalid.get(off as u32) {
                    eprintln!("   oracle mismatch: torn page {block:?}/{off} not marked invalid");
                    return false;
                }
                continue;
            }
            let lpn = lpn.expect("checked above");
            let live = engine.current_mapping(lpn) == Some(ppn);
            if live == invalid.get(off as u32) {
                eprintln!(
                    "   oracle mismatch: {block:?} page {off} (L{}) live={live} invalid={}",
                    lpn.0,
                    invalid.get(off as u32)
                );
                return false;
            }
            live_pages += live as u32;
        }
        let bvc = engine.block_manager().valid_pages(block);
        if bvc < live_pages {
            eprintln!(
                "   oracle mismatch: BVC of {block:?} is {bvc} but {live_pages} pages are live"
            );
            return false;
        }
    }
    true
}
