//! Invariants over the KSM simulator: logical-content conservation.
//!
//! Merging changes how many *frames* back a region's pages, never how many
//! pages the region logically holds: every registered page is at all times
//! pending (unscanned), merged (duplicate, frame released), a stable-tree
//! original (resident, backing a shared frame), or unique (volatile).
//! Each region's cached pending total must also match its per-content
//! records, and every unstable-tree candidate must name a registered region
//! that still holds a pending page of that content: a hit on a candidate
//! turns one of the holder's pending pages into a stable original, so a
//! candidate without one would mint a page.

use crate::Violation;
use gd_ksm::Ksm;

const NAME: &str = "ksm.logical-conservation";

/// `ksm.logical-conservation`: logical-content conservation and
/// sharing-count consistency.
pub fn check(subject: &Ksm) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut merged_total = 0u64;
    for acc in subject.region_accounting() {
        let sum = acc.pending + acc.merged + acc.originals + acc.unique_pages;
        if sum != acc.logical_pages {
            out.push(Violation::new(
                NAME,
                format!(
                    "{}: pending {} + merged {} + originals {} + unique {} = {sum} \
                     != registered {} pages",
                    acc.region,
                    acc.pending,
                    acc.merged,
                    acc.originals,
                    acc.unique_pages,
                    acc.logical_pages
                ),
            ));
        }
        if acc.pending_pages != acc.pending {
            out.push(Violation::new(
                NAME,
                format!(
                    "{}: cached pending total {} != {} pending pages in the content records",
                    acc.region, acc.pending_pages, acc.pending
                ),
            ));
        }
        merged_total += acc.merged;
    }
    for cand in subject.unstable_candidates() {
        let holds = match cand.holder_pending {
            None => "is not registered",
            Some(0) => "holds no pending page of it",
            Some(_) => continue,
        };
        out.push(Violation::new(
            NAME,
            format!(
                "unstable-tree candidate {:#x} names {}, which {holds}",
                cand.content, cand.holder
            ),
        ));
    }
    let stats = subject.stats();
    if stats.pages_shared != subject.stable_contents() as u64 {
        out.push(Violation::new(
            NAME,
            format!(
                "pages_shared {} != stable-tree size {}",
                stats.pages_shared,
                subject.stable_contents()
            ),
        ));
    }
    // One-sided: `unregister_region` documents an approximation that
    // dissolves stable originals, after which another region's merged
    // pages can outlive their pages_sharing contribution being
    // released. Live regions can therefore account for *at most*
    // pages_sharing merged pages.
    if merged_total > stats.pages_sharing {
        out.push(Violation::new(
            NAME,
            format!(
                "regions hold {merged_total} merged pages but pages_sharing is {}",
                stats.pages_sharing
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_ksm::KsmConfig;
    use gd_mmsim::{MemoryManager, MmConfig, PageKind};
    use gd_types::rng::component_rng;
    use gd_types::SimTime;

    #[test]
    fn conservation_holds_through_merge_cow_unregister() {
        let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
        let mut ksm = Ksm::new(KsmConfig::default()).unwrap();
        let a = mm.allocate(1000, PageKind::UserMovable).unwrap();
        let b = mm.allocate(1000, PageKind::UserMovable).unwrap();
        let ra = ksm.register_region(a, vec![(0xAB, 600), (0xCD, 300)], 100);
        let rb = ksm.register_region(b, vec![(0xAB, 900)], 100);
        assert_eq!(check(&ksm), vec![]);
        for _ in 0..10 {
            ksm.advance(SimTime::from_millis(200), &mut mm).unwrap();
            assert_eq!(check(&ksm), vec![]);
        }
        ksm.cow_break(rb, 0xAB, 50, &mut mm).unwrap();
        assert_eq!(check(&ksm), vec![]);
        ksm.unregister_region(ra).unwrap();
        assert_eq!(check(&ksm), vec![]);
    }

    /// Seeded random interleavings of register / advance / CoW break /
    /// unregister over regions that share content keys. Single-page keys
    /// leave unstable-tree candidates behind, so a later scan of another
    /// region converts them inside their holder region. Every step is
    /// checked Strict, including the cached pending total.
    #[test]
    fn seeded_stress_keeps_conservation_and_pending_totals() {
        const KEYS: u64 = 12;
        for seed in 0..6u64 {
            let mut rng = component_rng(seed, "ksm-stress");
            let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
            let mut ksm = Ksm::new(KsmConfig::default()).unwrap();
            let mut live = Vec::new();
            let mut min_live = usize::MAX;
            for step in 0..250 {
                match rng.gen_range(0u32..10) {
                    0..=2 if live.len() < 8 => {
                        let mut shareable = Vec::new();
                        for _ in 0..rng.gen_range(1usize..6) {
                            let k = rng.gen_range(0..KEYS);
                            // Half the contents are single pages.
                            let n = if rng.gen_bool(0.5) {
                                1
                            } else {
                                rng.gen_range(2u64..200)
                            };
                            shareable.push((k, n));
                        }
                        let unique = rng.gen_range(0u64..100);
                        let pages = shareable.iter().map(|(_, n)| n).sum::<u64>() + unique;
                        let owner = mm.allocate(pages, PageKind::UserMovable).unwrap();
                        live.push((ksm.register_region(owner, shareable, unique), owner));
                    }
                    3 if !live.is_empty() => {
                        let (region, _) = live[rng.gen_range(0..live.len())];
                        let k = rng.gen_range(0..KEYS);
                        ksm.cow_break(region, k, rng.gen_range(1u64..50), &mut mm)
                            .unwrap();
                    }
                    4 if live.len() > 3 => {
                        let (region, owner) = live.swap_remove(rng.gen_range(0..live.len()));
                        ksm.unregister_region(region).unwrap();
                        mm.free(owner).unwrap();
                    }
                    _ => {
                        let ms = rng.gen_range(1u64..120);
                        ksm.advance(SimTime::from_millis(ms), &mut mm).unwrap();
                    }
                }
                if step >= 20 {
                    min_live = min_live.min(live.len());
                }
                if let Err(e) = crate::strict(check(&ksm)) {
                    panic!("seed {seed} step {step}: {e:?}");
                }
            }
            assert!(min_live >= 3, "seed {seed}: only {min_live} regions live");
            assert!(ksm.stats().pages_sharing > 0, "seed {seed}: nothing merged");
        }
    }
}
