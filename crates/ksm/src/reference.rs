//! The region books `Ksm` kept before its flat per-content records: one
//! `BTreeMap` per page state, a `range` walk over the pending map, and
//! regions found by `keys().nth`; and the trees it kept before its slot
//! arrays: `HashMap`s keyed by content. Kept as a reference model; the
//! differential test below drives it and [`Ksm`] through the same seeded
//! sequences and compares everything either exposes after every step,
//! the slot arrays read back as content-keyed maps.

use super::*;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Unbounded};

impl Ksm {
    /// The slot content `k` was interned into, if it ever was.
    pub(crate) fn slot_of(&self, k: ContentKey) -> Option<u32> {
        let at = self
            .slot_index
            .binary_search_by_key(&k, |&(key, _)| key)
            .ok()?;
        self.slot_index.get(at).map(|&(_, slot)| slot)
    }

    /// The stable tree as a map from content to sharing count.
    fn stable_map(&self) -> HashMap<ContentKey, u64> {
        self.slot_index
            .iter()
            .filter_map(|&(k, slot)| Some((k, *self.stable.get(slot as usize)?)))
            .filter(|&(_, sharing)| sharing > 0)
            .collect()
    }

    /// The unstable tree as a map from content to holder.
    fn unstable_map(&self) -> HashMap<ContentKey, RegionId> {
        self.slot_index
            .iter()
            .filter_map(|&(k, slot)| Some((k, self.unstable.get(slot)?)))
            .collect()
    }
}

struct RefRegion {
    owner: AllocationId,
    logical_pages: u64,
    pending: BTreeMap<ContentKey, u64>,
    pending_pages: u64,
    merged: BTreeMap<ContentKey, u64>,
    originals: BTreeMap<ContentKey, u64>,
    unique_pages: u64,
    cursor: u64,
}

impl RefRegion {
    fn scannable_pages(&self) -> u64 {
        self.pending_pages + self.unique_pages
    }
}

struct ReferenceKsm {
    cfg: KsmConfig,
    stable: HashMap<ContentKey, u64>,
    unstable: HashMap<ContentKey, RegionId>,
    regions: BTreeMap<RegionId, RefRegion>,
    next_region: u64,
    region_cursor: u64,
    carry_pages: f64,
    stats: KsmStats,
    /// Coverage for the differential test: unstable-tree hits, and
    /// candidates a visit left on the last page of a larger content.
    hits: u32,
    remainder_candidates: u32,
}

impl ReferenceKsm {
    fn new(cfg: KsmConfig) -> Self {
        ReferenceKsm {
            cfg,
            stable: HashMap::new(),
            unstable: HashMap::new(),
            regions: BTreeMap::new(),
            next_region: 1,
            region_cursor: 0,
            carry_pages: 0.0,
            stats: KsmStats::default(),
            hits: 0,
            remainder_candidates: 0,
        }
    }

    fn register_region(
        &mut self,
        owner: AllocationId,
        shareable: Vec<(ContentKey, u64)>,
        unique_pages: u64,
    ) -> RegionId {
        let id = RegionId(self.next_region);
        self.next_region += 1;
        let mut pending = BTreeMap::new();
        for (k, n) in shareable {
            if n > 0 {
                *pending.entry(k).or_insert(0) += n;
            }
        }
        let pending_pages = pending.values().sum::<u64>();
        self.regions.insert(
            id,
            RefRegion {
                owner,
                logical_pages: pending_pages + unique_pages,
                pending,
                pending_pages,
                merged: BTreeMap::new(),
                originals: BTreeMap::new(),
                unique_pages,
                cursor: 0,
            },
        );
        id
    }

    fn unregister_region(&mut self, id: RegionId) -> Result<()> {
        let region = self
            .regions
            .remove(&id)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?;
        for (k, n) in region.merged {
            if let Some(sharing) = self.stable.get_mut(&k) {
                *sharing = sharing.saturating_sub(n);
                self.stats.pages_sharing = self.stats.pages_sharing.saturating_sub(n);
                if *sharing == 0 {
                    self.stable.remove(&k);
                    self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
                }
            }
        }
        for (k, _) in region.originals {
            if self.stable.remove(&k).is_some() {
                self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
            }
        }
        self.unstable.retain(|_, holder| *holder != id);
        Ok(())
    }

    fn region_accounting(&self) -> Vec<RegionAccounting> {
        self.regions
            .iter()
            .map(|(id, r)| RegionAccounting {
                region: *id,
                logical_pages: r.logical_pages,
                pending: r.pending.values().sum(),
                pending_pages: r.pending_pages,
                merged: r.merged.values().sum(),
                originals: r.originals.values().sum(),
                unique_pages: r.unique_pages,
            })
            .collect()
    }

    fn unstable_candidates(&self) -> Vec<UnstableCandidate> {
        let mut out: Vec<UnstableCandidate> = self
            .unstable
            .iter()
            .map(|(&content, &holder)| UnstableCandidate {
                content,
                holder,
                holder_pending: self
                    .regions
                    .get(&holder)
                    .map(|r| r.pending.get(&content).copied().unwrap_or(0)),
            })
            .collect();
        out.sort_unstable_by_key(|c| c.content);
        out
    }

    fn advance(&mut self, elapsed: SimTime, mm: &mut MemoryManager) -> Result<u64> {
        let batches = elapsed.as_secs_f64() / self.cfg.scan_period.as_secs_f64();
        let mut budget =
            (batches * self.cfg.pages_to_scan as f64 + self.carry_pages).floor() as u64;
        self.carry_pages =
            (batches * self.cfg.pages_to_scan as f64 + self.carry_pages) - budget as f64;
        let mut released_total = 0u64;
        let mut idle_guard = 0u32;
        while budget > 0 {
            let Some(&rid) = self
                .regions
                .keys()
                .nth(self.region_cursor as usize % self.regions.len().max(1))
            else {
                break;
            };
            let (scanned, released) = self.scan_region(rid, budget, mm)?;
            self.stats.region_visits += 1;
            released_total += released;
            budget = budget.saturating_sub(scanned.max(1));
            self.region_cursor += 1;
            if (self.region_cursor as usize).is_multiple_of(self.regions.len().max(1)) {
                self.unstable.clear();
                self.stats.full_passes += 1;
                for r in self.regions.values_mut() {
                    r.cursor = 0;
                }
            }
            if scanned == 0 {
                idle_guard += 1;
                if idle_guard > self.regions.len() as u32 + 1 {
                    break;
                }
            } else {
                idle_guard = 0;
            }
        }
        Ok(released_total)
    }

    fn scan_region(
        &mut self,
        rid: RegionId,
        budget: u64,
        mm: &mut MemoryManager,
    ) -> Result<(u64, u64)> {
        let ReferenceKsm {
            stable,
            unstable,
            regions,
            stats,
            hits,
            remainder_candidates,
            ..
        } = self;
        let Some(region) = regions.get_mut(&rid) else {
            return Ok((0, 0));
        };
        let scannable = region.scannable_pages().saturating_sub(region.cursor);
        let to_scan = budget.min(scannable);
        if to_scan == 0 {
            return Ok((0, 0));
        }
        region.cursor += to_scan;
        stats.pages_scanned += to_scan;
        let mut remaining = to_scan;
        let total = region.scannable_pages();
        if total > 0 && region.unique_pages > 0 {
            let unique_share =
                (remaining as f64 * region.unique_pages as f64 / total as f64).round() as u64;
            remaining = remaining.saturating_sub(unique_share);
        }
        let mut to_release = 0u64;
        let mut conversions = Vec::new();
        let mut from = Unbounded;
        while remaining > 0 {
            let Some((&k, &count)) = region.pending.range((from, Unbounded)).next() else {
                break;
            };
            from = Excluded(k);
            let here = count.min(remaining);
            remaining -= here;
            let candidate = unstable.get(&k).copied();
            let holder = candidate.filter(|&h| h != rid);
            let mergeable = if stable.contains_key(&k) {
                here
            } else if let Some(holder) = holder {
                unstable.remove(&k);
                conversions.push((k, holder));
                *hits += 1;
                here
            } else if here > 1 {
                *region.originals.entry(k).or_insert(0) += 1;
                here - 1
            } else {
                unstable.insert(k, rid);
                *remainder_candidates += u32::from(count > 1);
                0
            };
            if mergeable == 0 {
                continue;
            }
            if count == here {
                region.pending.remove(&k);
                // The stale-candidate fix `Ksm` carries too.
                if candidate == Some(rid) {
                    unstable.remove(&k);
                }
            } else {
                region.pending.insert(k, count - here);
            }
            region.pending_pages -= here;
            let sharing = stable.entry(k).or_insert_with(|| {
                stats.pages_shared += 1;
                1
            });
            *sharing += mergeable;
            stats.pages_sharing += mergeable;
            *region.merged.entry(k).or_insert(0) += mergeable;
            to_release += mergeable;
        }
        let owner = region.owner;
        for (k, holder) in conversions {
            if let Some(h) = regions.get_mut(&holder) {
                if let Some(p) = h.pending.get_mut(&k) {
                    *p = p.saturating_sub(1);
                    if *p == 0 {
                        h.pending.remove(&k);
                    }
                    h.pending_pages -= 1;
                }
                *h.originals.entry(k).or_insert(0) += 1;
            }
        }
        let released = if to_release > 0 {
            mm.shrink(owner, to_release)?
        } else {
            0
        };
        Ok((to_scan, released))
    }

    fn cow_break(
        &mut self,
        region: RegionId,
        k: ContentKey,
        n: u64,
        mm: &mut MemoryManager,
    ) -> Result<u64> {
        let r = self
            .regions
            .get_mut(&region)
            .ok_or_else(|| GdError::NotFound(region.to_string()))?;
        let merged = r.merged.get(&k).copied().unwrap_or(0);
        let to_break = merged.min(n);
        if to_break == 0 {
            return Ok(0);
        }
        mm.grow(r.owner, to_break)?;
        if to_break == merged {
            r.merged.remove(&k);
        } else {
            *r.merged.get_mut(&k).expect("partial break keeps the entry") -= to_break;
        }
        r.unique_pages += to_break;
        if let Some(sharing) = self.stable.get_mut(&k) {
            *sharing = sharing.saturating_sub(to_break);
            if *sharing <= 1 {
                self.stable.remove(&k);
                self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
            }
        }
        self.stats.pages_sharing = self.stats.pages_sharing.saturating_sub(to_break);
        self.stats.cow_breaks += to_break;
        Ok(to_break)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_mmsim::{MmConfig, PageKind};
    use gd_types::rng::component_rng;

    /// Random registrations (duplicate keys, zero counts, one-page
    /// contents), CoW breaks, unregisters wherever the pass is, and
    /// advances from one page of budget up to a few hundred, through both
    /// books with a memory manager each. The key range widens as the run
    /// goes on, so registrations keep interning new slots in the middle
    /// of passes.
    #[test]
    fn flat_books_match_btree_reference_model() {
        let mut mid_pass_unregisters = 0u32;
        let (mut late_fresh_keys, mut holder_unregisters) = (0u32, 0u32);
        let (mut hits, mut remainder_candidates) = (0u32, 0u32);
        for seed in 0..32u64 {
            let mut rng = component_rng(seed, "ksm-reference");
            let mut mm_fast = MemoryManager::new(MmConfig::small_test()).unwrap();
            let mut mm_ref = MemoryManager::new(MmConfig::small_test()).unwrap();
            let mut fast = Ksm::new(KsmConfig::default()).unwrap();
            let mut reference = ReferenceKsm::new(KsmConfig::default());
            let mut live: Vec<(RegionId, AllocationId)> = Vec::new();
            for step in 0..400u64 {
                let ctx = format!("seed {seed} step {step}");
                let keys = 8 + step / 10;
                match rng.gen_range(0u32..12) {
                    0..=2 if live.len() < 10 => {
                        let mut shareable = Vec::new();
                        for _ in 0..rng.gen_range(1usize..8) {
                            let k = rng.gen_range(0..keys);
                            let n = match rng.gen_range(0u32..10) {
                                0 => 0,
                                1..=4 => 1,
                                _ => rng.gen_range(2u64..60),
                            };
                            shareable.push((k, n));
                        }
                        let unique = if rng.gen_bool(0.5) {
                            0
                        } else {
                            rng.gen_range(1u64..40)
                        };
                        let pages = shareable.iter().map(|(_, n)| n).sum::<u64>() + unique;
                        let a = mm_fast.allocate(pages.max(1), PageKind::UserMovable);
                        let b = mm_ref.allocate(pages.max(1), PageKind::UserMovable);
                        let (a, b) = (a.unwrap(), b.unwrap());
                        assert_eq!(a, b, "{ctx}: allocation ids");
                        let slots = fast.stable.len();
                        let id = fast.register_region(a, shareable.clone(), unique);
                        if fast.stable.len() > slots
                            && fast.stats.full_passes > 0
                            && !fast.unstable_candidates().is_empty()
                        {
                            late_fresh_keys += 1;
                        }
                        assert_eq!(id, reference.register_region(b, shareable, unique), "{ctx}");
                        live.push((id, a));
                    }
                    3 if !live.is_empty() => {
                        let (id, _) = live[rng.gen_range(0..live.len())];
                        let k = rng.gen_range(0..keys);
                        let n = rng.gen_range(1u64..30);
                        let a = fast.cow_break(id, k, n, &mut mm_fast);
                        let b = reference.cow_break(id, k, n, &mut mm_ref);
                        assert_eq!(a, b, "{ctx}: cow_break");
                    }
                    4 if live.len() > 2 => {
                        let (id, owner) = live.swap_remove(rng.gen_range(0..live.len()));
                        if !(fast.region_cursor as usize).is_multiple_of(fast.regions.len()) {
                            mid_pass_unregisters += 1;
                        }
                        if fast.unstable_candidates().iter().any(|c| c.holder == id) {
                            holder_unregisters += 1;
                        }
                        assert_eq!(fast.unregister_region(id), Ok(()), "{ctx}");
                        assert_eq!(reference.unregister_region(id), Ok(()), "{ctx}");
                        // Merging may have released the whole allocation.
                        assert_eq!(mm_fast.free(owner), mm_ref.free(owner), "{ctx}: free");
                    }
                    _ => {
                        // At the default 1000 pages per 50 ms, 50 us is one
                        // page of scan budget.
                        let elapsed = match rng.gen_range(0u32..4) {
                            0 => SimTime::from_micros(50),
                            1 => SimTime::from_micros(50 * rng.gen_range(2u64..8)),
                            2 => SimTime::from_micros(rng.gen_range(1u64..3_000)),
                            _ => SimTime::from_micros(rng.gen_range(1u64..15_000)),
                        };
                        let a = fast.advance(elapsed, &mut mm_fast);
                        let b = reference.advance(elapsed, &mut mm_ref);
                        assert_eq!(a, b, "{ctx}: advance");
                    }
                }
                assert_eq!(fast.stats, reference.stats, "{ctx}: stats");
                assert_eq!(
                    fast.region_accounting(),
                    reference.region_accounting(),
                    "{ctx}: region accounting"
                );
                assert_eq!(fast.stable_map(), reference.stable, "{ctx}: stable tree");
                assert_eq!(
                    fast.unstable_map(),
                    reference.unstable,
                    "{ctx}: unstable tree"
                );
                assert_eq!(
                    fast.stable_contents(),
                    reference.stable.len(),
                    "{ctx}: stable contents"
                );
                assert_eq!(
                    fast.unstable_candidates(),
                    reference.unstable_candidates(),
                    "{ctx}: unstable candidates"
                );
                assert_eq!(fast.region_cursor, reference.region_cursor, "{ctx}: cursor");
                assert_eq!(mm_fast.meminfo(), mm_ref.meminfo(), "{ctx}: meminfo");
                for c in fast.unstable_candidates() {
                    assert!(c.holder_pending.is_some_and(|p| p > 0), "{ctx}: {c:?}");
                }
            }
            hits += reference.hits;
            remainder_candidates += reference.remainder_candidates;
        }
        assert!(
            mid_pass_unregisters > 200,
            "{mid_pass_unregisters} mid-pass unregisters"
        );
        assert!(
            remainder_candidates > 50,
            "{remainder_candidates} one-page remainders"
        );
        assert!(hits > 200, "{hits} unstable-tree hits");
        assert!(
            late_fresh_keys > 100,
            "{late_fresh_keys} registrations interned keys mid-pass"
        );
        assert!(
            holder_unregisters > 40,
            "{holder_unregisters} unregisters of a candidate holder"
        );
    }
}
