//! `block_selector()`: choosing which memory block to off-line.

use crate::config::SelectorPolicy;
use gd_mmsim::MemoryManager;
use gd_types::rng::StdRng;

/// Picks an off-lining candidate under `policy`, skipping `excluded`
/// blocks (failed earlier this tick). Returns `None` when no candidate
/// remains. Reads the settled blocks in place.
pub fn pick_candidate(
    mm: &mut MemoryManager,
    policy: SelectorPolicy,
    excluded: &[usize],
    rng: &mut StdRng,
) -> Option<usize> {
    let blocks = mm.settled_blocks();
    let online = || {
        blocks
            .iter()
            .filter(|b| b.online() && !excluded.contains(&b.index()))
    };
    match policy {
        SelectorPolicy::FreeRemovableFirst => {
            // Only movable blocks with no used pages: off-lining never
            // migrates and never fails. Take the highest-index one so the
            // allocator's first-fit packing is undisturbed.
            online()
                .rev()
                .find(|b| b.removable() && b.is_free())
                .map(|b| b.index())
        }
        SelectorPolicy::RemovableFirst => {
            // Prefer removable blocks (their isolation cannot hit EBUSY),
            // picked uniformly among them — they may still hold used movable
            // pages, so migration and EAGAIN remain possible, which is why
            // the paper reports ~50 % fewer failures rather than zero.
            // Blocks with unmovable pages are a last resort.
            let removable = || online().filter(|b| b.removable());
            match removable().count() {
                0 => online().min_by_key(|b| b.used_pages()).map(|b| b.index()),
                n => removable().nth(rng.gen_range(0..n)).map(|b| b.index()),
            }
        }
        SelectorPolicy::Random => match online().count() {
            0 => None,
            n => online().nth(rng.gen_range(0..n)).map(|b| b.index()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_mmsim::{MmConfig, PageKind};
    use gd_types::rng::component_rng;

    fn setup() -> (MemoryManager, StdRng) {
        (
            MemoryManager::new(MmConfig::small_test()).unwrap(),
            component_rng(1, "selector-test"),
        )
    }

    #[test]
    fn free_policy_picks_highest_free_block() {
        let (mut mm, mut rng) = setup();
        mm.allocate(5000, PageKind::UserMovable).unwrap(); // fills low blocks
        let pick = pick_candidate(&mut mm, SelectorPolicy::FreeRemovableFirst, &[], &mut rng);
        assert_eq!(pick, Some(mm.block_count() - 1));
    }

    #[test]
    fn free_policy_returns_none_when_all_blocks_used() {
        let (mut mm, mut rng) = setup();
        // One page in every block makes none fully free: spread by filling
        // almost everything.
        let total = mm.meminfo().total_pages;
        mm.allocate(total - 10, PageKind::UserMovable).unwrap();
        let pick = pick_candidate(&mut mm, SelectorPolicy::FreeRemovableFirst, &[], &mut rng);
        assert_eq!(pick, None);
    }

    #[test]
    fn removable_first_avoids_kernel_blocks() {
        let (mut mm, mut rng) = setup();
        mm.allocate(100, PageKind::KernelUnmovable).unwrap(); // block 0
        let pick = pick_candidate(&mut mm, SelectorPolicy::RemovableFirst, &[], &mut rng).unwrap();
        assert_ne!(pick, 0, "must prefer a removable block");
    }

    #[test]
    fn random_respects_exclusions() {
        let (mut mm, mut rng) = setup();
        // Offline all but two blocks; exclude one of the remaining.
        for i in 0..mm.block_count() - 2 {
            mm.offline_block(i).unwrap().unwrap();
        }
        let n = mm.block_count();
        for _ in 0..20 {
            let pick = pick_candidate(&mut mm, SelectorPolicy::Random, &[n - 2], &mut rng).unwrap();
            assert_eq!(pick, n - 1);
        }
    }

    #[test]
    fn no_candidates_when_everything_excluded() {
        let (mut mm, mut rng) = setup();
        let excluded: Vec<usize> = (0..mm.block_count()).collect();
        assert_eq!(
            pick_candidate(&mut mm, SelectorPolicy::Random, &excluded, &mut rng),
            None
        );
    }
}
