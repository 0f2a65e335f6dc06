//! Invariants over the physical-memory simulator: page-accounting
//! conservation and buddy-allocator structural consistency.
//!
//! The conservation checks read the plain [`MemInfo`] and [`BlockInfo`]
//! records, so tests can corrupt a copy to prove they fire; [`check`] runs
//! them, and the buddy audit that needs allocator internals, against a
//! live [`MemoryManager`].

use crate::Violation;
use gd_mmsim::{BlockInfo, MemInfo, MemoryManager};

const MEMINFO: &str = "mm.meminfo-conservation";
const BLOCKS: &str = "mm.block-conservation";

/// `/proc/meminfo` self-consistency: used + free == total (on-line), and
/// total + offline == installed. Pages may move between blocks and between
/// the on-line and off-line pools, but never appear or disappear.
pub fn check_meminfo(info: &MemInfo) -> Vec<Violation> {
    let mut out = Vec::new();
    if info.used_pages + info.free_pages != info.total_pages {
        out.push(Violation::new(
            MEMINFO,
            format!(
                "used {} + free {} != online total {}",
                info.used_pages, info.free_pages, info.total_pages
            ),
        ));
    }
    if info.total_pages + info.offline_pages != info.installed_pages {
        out.push(Violation::new(
            MEMINFO,
            format!(
                "online {} + offline {} != installed {}",
                info.total_pages, info.offline_pages, info.installed_pages
            ),
        ));
    }
    out
}

/// Per-block conservation, and agreement between the block population and
/// the meminfo totals: the block state machine (on-line ⇄ off-line, with
/// migration moving pages between blocks) never loses or invents a page.
pub fn check_blocks(info: &MemInfo, blocks: &[BlockInfo]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut online = (0u64, 0u64, 0u64); // (total, used, free)
    let mut offline_total = 0u64;
    for b in blocks {
        if b.used_pages + b.free_pages != b.total_pages {
            out.push(Violation::new(
                BLOCKS,
                format!(
                    "block {}: used {} + free {} != total {}",
                    b.index, b.used_pages, b.free_pages, b.total_pages
                ),
            ));
        }
        if b.online {
            online.0 += b.total_pages;
            online.1 += b.used_pages;
            online.2 += b.free_pages;
        } else {
            offline_total += b.total_pages;
        }
    }
    if online != (info.total_pages, info.used_pages, info.free_pages) {
        out.push(Violation::new(
            BLOCKS,
            format!(
                "online blocks sum to (total, used, free) = {online:?} \
                 but meminfo says ({}, {}, {})",
                info.total_pages, info.used_pages, info.free_pages
            ),
        ));
    }
    if offline_total != info.offline_pages {
        out.push(Violation::new(
            BLOCKS,
            format!(
                "offline blocks sum to {} pages but meminfo says {}",
                offline_total, info.offline_pages
            ),
        ));
    }
    out
}

/// Every memory-manager invariant over a live manager: [`check_meminfo`],
/// [`check_blocks`], and `mm.buddy-consistency`, the structural soundness
/// of every block's buddy allocator and of the allocation table (free
/// chunks aligned, in range, non-overlapping; free lists agree with the
/// free-page counter; every recorded allocation chunk exists with the
/// right owner), which [`MemoryManager::audit`] reports.
pub fn check(mm: &MemoryManager) -> Vec<Violation> {
    let info = mm.meminfo();
    let mut out = check_meminfo(&info);
    out.extend(check_blocks(&info, &mm.blocks()));
    if let Err(problems) = mm.audit() {
        out.extend(
            problems
                .into_iter()
                .map(|detail| Violation::new("mm.buddy-consistency", detail)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_mmsim::{MmConfig, PageKind};

    fn mm() -> MemoryManager {
        MemoryManager::new(MmConfig::small_test()).unwrap()
    }

    #[test]
    fn live_manager_is_clean_through_hotplug_churn() {
        let mut m = mm();
        let a = m.allocate(3000, PageKind::UserMovable).unwrap();
        assert_eq!(check(&m), vec![]);
        m.offline_block(0).unwrap().unwrap();
        assert_eq!(check(&m), vec![]);
        m.online_block(0).unwrap();
        m.free(a).unwrap();
        assert_eq!(check(&m), vec![]);
    }

    #[test]
    fn page_loss_fires_meminfo_conservation() {
        // Negative injection: books that "lose" pages (the class of bug
        // where a block drops frames during migration).
        let mut info = mm().meminfo();
        info.free_pages -= 128;
        let v = check_meminfo(&info);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "mm.meminfo-conservation");
        assert!(v[0].detail.starts_with("used "), "{}", v[0].detail);
    }

    #[test]
    fn block_level_page_loss_fires_block_conservation() {
        let m = mm();
        let mut blocks = m.blocks();
        blocks[2].free_pages -= 1; // block books no longer balance
        let v = check_blocks(&m.meminfo(), &blocks);
        assert!(v
            .iter()
            .any(|v| v.invariant == "mm.block-conservation" && v.detail.contains("block 2")));
        // The block's own books and the online sum both break.
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn strict_mode_surfaces_injected_violation_as_error() {
        let mut info = mm().meminfo();
        info.offline_pages += 4096; // pages appear from nowhere
        let err = crate::strict(check_meminfo(&info)).unwrap_err();
        assert!(
            err.to_string()
                .contains("invariant violated: [mm.meminfo-conservation] online "),
            "{err}"
        );
    }
}
