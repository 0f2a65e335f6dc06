//! A Kernel Samepage Merging (KSM) simulator.
//!
//! Reproduces the `ksmd` behaviour GreenDIMM interacts with (paper §2.4,
//! §5.3): applications/VMs `madvise()` regions as mergeable; the daemon
//! scans `pages_to_scan` pages every `scan_period`, looking up each page's
//! content first in the **stable tree** (already-shared pages) and then in
//! the **unstable tree** (candidates seen earlier in the same pass). A hit
//! merges the page — releasing its physical frame back to the
//! [`MemoryManager`] — and a write to a merged page breaks sharing via
//! copy-on-write, reclaiming a frame.
//!
//! Page contents are modelled as content-class fingerprints with
//! multiplicities rather than per-page byte arrays: what matters for
//! GreenDIMM is *how many frames* merging releases and *when* (the scan
//! rate bounds merge throughput), both of which this model preserves.
//!
//! # Example
//!
//! ```
//! use gd_ksm::{Ksm, KsmConfig};
//! use gd_mmsim::{MemoryManager, MmConfig, PageKind};
//! use gd_types::SimTime;
//!
//! # fn main() -> gd_types::Result<()> {
//! let mut mm = MemoryManager::new(MmConfig::small_test())?;
//! let mut ksm = Ksm::new(KsmConfig::default());
//!
//! // Two VMs booted from the same image share 1000 pages of content.
//! const OS_IMAGE: u64 = 0xAB;
//! let vm1 = mm.allocate(2000, PageKind::UserMovable)?;
//! let vm2 = mm.allocate(2000, PageKind::UserMovable)?;
//! ksm.register_region(vm1, vec![(OS_IMAGE, 1000)], 1000);
//! ksm.register_region(vm2, vec![(OS_IMAGE, 1000)], 1000);
//!
//! // Let the daemon run for ten seconds of simulated time.
//! ksm.advance(SimTime::from_secs(10), &mut mm)?;
//! assert!(ksm.stats().pages_sharing >= 1999); // 2000 duplicates collapse to 1
//! # Ok(())
//! # }
//! ```

use gd_mmsim::{AllocationId, MemoryManager};
use gd_types::{GdError, Result, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

/// A content-class fingerprint (stands in for a page-content hash).
pub type ContentKey = u64;

/// Handle for a registered mergeable region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// `ksmd` tuning parameters (sysfs `pages_to_scan` / `sleep_millisecs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsmConfig {
    /// Pages scanned per wake-up. Paper uses 1000.
    pub pages_to_scan: u64,
    /// Sleep between scan batches. Paper uses 50 ms.
    pub scan_period: SimTime,
    /// Fraction of one core the daemon consumes while scanning (paper: the
    /// chosen configuration costs ~10 % of a core).
    pub cpu_utilization: f64,
}

impl Default for KsmConfig {
    fn default() -> Self {
        KsmConfig {
            pages_to_scan: 1000,
            scan_period: SimTime::from_millis(50),
            cpu_utilization: 0.10,
        }
    }
}

/// Aggregate merge statistics (sysfs `pages_shared` / `pages_sharing`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KsmStats {
    /// Distinct shared (stable-tree) pages.
    pub pages_shared: u64,
    /// Pages merged into those shared pages (frames released).
    pub pages_sharing: u64,
    /// Pages scanned so far.
    pub pages_scanned: u64,
    /// Completed full scan passes.
    pub full_passes: u64,
    /// Copy-on-write breaks.
    pub cow_breaks: u64,
}

#[derive(Debug, Clone)]
struct Region {
    owner: AllocationId,
    /// Pages registered at `madvise` time. Merging changes which frames
    /// back them, never this count: at all times
    /// `pending + merged + originals + unique_pages == logical_pages`.
    logical_pages: u64,
    /// Shareable content: key -> unmerged page count.
    pending: BTreeMap<ContentKey, u64>,
    /// Sum of `pending`'s counts, kept in step with every change to it.
    pending_pages: u64,
    /// Already merged content: key -> merged (duplicate, frame-released)
    /// page count.
    merged: BTreeMap<ContentKey, u64>,
    /// Stable-tree originals this region contributed: pages that back a
    /// shared frame and remain resident.
    originals: BTreeMap<ContentKey, u64>,
    /// Pages whose contents churn too fast to merge.
    unique_pages: u64,
    /// Scan cursor in pages within this region's pending+unique pool.
    cursor: u64,
}

impl Region {
    fn scannable_pages(&self) -> u64 {
        self.pending_pages + self.unique_pages
    }
}

/// A read-only view of one region's page accounting, exposed for the
/// cross-crate invariant checker in `gd-verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionAccounting {
    /// The region.
    pub region: RegionId,
    /// Pages registered at `madvise` time.
    pub logical_pages: u64,
    /// Shareable pages not yet scanned/merged, summed over the region's
    /// per-content map.
    pub pending: u64,
    /// The region's cached running total of `pending`; the two must agree.
    pub pending_pages: u64,
    /// Merged duplicates (frames released).
    pub merged: u64,
    /// Stable-tree originals this region keeps resident.
    pub originals: u64,
    /// Volatile pages that never merge.
    pub unique_pages: u64,
}

/// The KSM daemon state: stable and unstable trees plus registered regions.
#[derive(Debug)]
pub struct Ksm {
    cfg: KsmConfig,
    /// Stable tree: content -> total pages sharing it (>= 1 means a shared
    /// frame exists).
    stable: HashMap<ContentKey, u64>,
    /// Unstable tree: contents seen once in the current pass, with the
    /// region that holds the candidate page.
    unstable: HashMap<ContentKey, RegionId>,
    regions: BTreeMap<RegionId, Region>,
    next_region: u64,
    /// Round-robin cursor over regions.
    region_cursor: u64,
    /// Unspent scan budget carried between `advance` calls.
    carry_pages: f64,
    stats: KsmStats,
}

impl Ksm {
    /// Creates a daemon with the given configuration.
    pub fn new(cfg: KsmConfig) -> Self {
        Ksm {
            cfg,
            stable: HashMap::new(),
            unstable: HashMap::new(),
            regions: BTreeMap::new(),
            next_region: 1,
            region_cursor: 0,
            carry_pages: 0.0,
            stats: KsmStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KsmConfig {
        &self.cfg
    }

    /// Current statistics.
    pub fn stats(&self) -> KsmStats {
        self.stats
    }

    /// Registers a mergeable region (the `madvise(MADV_MERGEABLE)` call):
    /// `shareable` lists `(content, pages)` pairs that may merge with equal
    /// content elsewhere; `unique_pages` counts pages whose checksums keep
    /// changing and therefore never merge.
    pub fn register_region(
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
            Region {
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

    /// Unregisters a region (e.g. the VM terminated). Its merged pages
    /// disappear with it; sharing counts are released. The owner's frames
    /// are expected to be freed by the caller through the memory manager.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an unknown region.
    pub fn unregister_region(&mut self, id: RegionId) -> Result<()> {
        let region = self
            .regions
            .remove(&id)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?;
        for (k, n) in region.merged {
            if let Some(sharing) = self.stable.get_mut(&k) {
                *sharing = sharing.saturating_sub(n);
                self.stats.pages_sharing = self.stats.pages_sharing.saturating_sub(n);
                if *sharing == 0 {
                    // Last sharer: the stable page dissolves.
                    self.stable.remove(&k);
                    self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
                }
            }
        }
        // Approximation: when a region that contributed a stable original
        // disappears, the kernel would keep the KSM-owned frame alive for
        // the remaining sharers; we dissolve the entry instead, which only
        // means later scans re-establish it from a surviving duplicate.
        for (k, _) in region.originals {
            if self.stable.remove(&k).is_some() {
                self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
            }
        }
        self.unstable.retain(|_, holder| *holder != id);
        Ok(())
    }

    /// Total number of registered regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Per-region page accounting (for cross-crate invariant checks).
    pub fn region_accounting(&self) -> Vec<RegionAccounting> {
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

    /// Number of distinct contents in the stable tree (each backed by one
    /// resident shared frame).
    pub fn stable_contents(&self) -> usize {
        self.stable.len()
    }

    /// Total sharing count over the stable tree (originals plus merged
    /// duplicates).
    pub fn stable_sharing_total(&self) -> u64 {
        self.stable.values().sum()
    }

    /// Pages released so far (frames saved by merging).
    pub fn frames_released(&self) -> u64 {
        self.stats.pages_sharing
    }

    /// Exports cumulative KSM telemetry into `tele` under `scope`:
    /// scan/merge counters plus per-second rate gauges over `elapsed`
    /// simulated time (rates are omitted when `elapsed` is zero).
    pub fn export_telemetry(&self, tele: &mut gd_obs::Telemetry, scope: &str, elapsed: SimTime) {
        let reg = &mut tele.registry;
        let s = &self.stats;
        reg.counter_add(&format!("{scope}.ksm.pages_scanned"), s.pages_scanned);
        reg.counter_add(&format!("{scope}.ksm.pages_shared"), s.pages_shared);
        reg.counter_add(&format!("{scope}.ksm.pages_sharing"), s.pages_sharing);
        reg.counter_add(&format!("{scope}.ksm.full_passes"), s.full_passes);
        reg.counter_add(&format!("{scope}.ksm.cow_breaks"), s.cow_breaks);
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            reg.gauge_set(
                &format!("{scope}.ksm.scan_rate_pps"),
                s.pages_scanned as f64 / secs,
            );
            reg.gauge_set(
                &format!("{scope}.ksm.merge_rate_pps"),
                s.pages_sharing as f64 / secs,
            );
        }
    }

    /// Advances the daemon by `elapsed` simulated time, merging what the
    /// scan-rate budget allows. Freed frames are returned to `mm` via
    /// [`MemoryManager::shrink`] on the owning allocation.
    ///
    /// Returns the number of frames released during this call.
    ///
    /// # Errors
    ///
    /// Propagates memory-manager errors (unknown owner allocations).
    pub fn advance(&mut self, elapsed: SimTime, mm: &mut MemoryManager) -> Result<u64> {
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
            released_total += released;
            budget = budget.saturating_sub(scanned.max(1));
            self.region_cursor += 1;
            if (self.region_cursor as usize).is_multiple_of(self.regions.len().max(1)) {
                // Completed a full pass over all regions: reset the
                // unstable tree, as ksmd does.
                self.unstable.clear();
                self.stats.full_passes += 1;
                for r in self.regions.values_mut() {
                    r.cursor = 0;
                }
            }
            if scanned == 0 {
                idle_guard += 1;
                if idle_guard > self.regions.len() as u32 + 1 {
                    break; // nothing left to scan anywhere
                }
            } else {
                idle_guard = 0;
            }
        }
        Ok(released_total)
    }

    /// Scans up to `budget` pages of one region. Returns (scanned, released).
    fn scan_region(
        &mut self,
        rid: RegionId,
        budget: u64,
        mm: &mut MemoryManager,
    ) -> Result<(u64, u64)> {
        let region = match self.regions.get_mut(&rid) {
            Some(r) => r,
            None => return Ok((0, 0)),
        };
        let scannable = region.scannable_pages().saturating_sub(region.cursor);
        let to_scan = budget.min(scannable);
        if to_scan == 0 {
            return Ok((0, 0));
        }
        region.cursor += to_scan;
        self.stats.pages_scanned += to_scan;

        // Unique (volatile) pages are scanned but never merge; shareable
        // pages are processed content-class by content-class. We approximate
        // the within-region scan order by consuming pending entries in key
        // order, `to_scan` pages at a time.
        let mut remaining = to_scan;
        // Skip over the unique prefix proportionally: unique pages soak up
        // scan budget without producing merges.
        let total = region.scannable_pages();
        if total > 0 && region.unique_pages > 0 {
            let unique_share =
                (remaining as f64 * region.unique_pages as f64 / total as f64).round() as u64;
            remaining = remaining.saturating_sub(unique_share);
        }
        let mut released = 0u64;
        let owner = region.owner;
        let mut merges: Vec<(ContentKey, u64)> = Vec::new();
        let mut candidates: Vec<ContentKey> = Vec::new();
        // Unstable-tree hits: the holder's candidate page becomes the
        // resident stable original.
        let mut conversions: Vec<(ContentKey, RegionId)> = Vec::new();
        // Contents for which THIS region contributes the stable original
        // (first of a same-region duplicate run).
        let mut self_originals: Vec<ContentKey> = Vec::new();
        {
            // Walk the keys in order, resuming after the last one visited,
            // so consuming an entry never invalidates the walk.
            let mut from = Unbounded;
            while remaining > 0 {
                let Some((&k, &count)) = region.pending.range((from, Unbounded)).next() else {
                    break;
                };
                from = Excluded(k);
                let here = count.min(remaining);
                let in_stable = self.stable.contains_key(&k);
                // A region revisited within one pass (regions came or went
                // since the pass began) can meet its own candidate: a page
                // never merges with itself, so only another region's
                // candidate counts as a hit.
                let holder = self.unstable.get(&k).copied().filter(|&h| h != rid);
                let mergeable = if in_stable {
                    here // all scanned duplicates merge against the stable page
                } else if let Some(holder) = holder {
                    // The earlier candidate becomes the stable original; all
                    // of our scanned pages merge against it.
                    conversions.push((k, holder));
                    here
                } else if here > 1 {
                    // First page becomes the stable original; the rest merge.
                    self_originals.push(k);
                    here - 1
                } else {
                    // Single candidate: goes to the unstable tree.
                    candidates.push(k);
                    0
                };
                if mergeable > 0 {
                    // Consume the scanned pages (including a self-original,
                    // which moves to `originals` below).
                    let left = count - here;
                    if left == 0 {
                        region.pending.remove(&k);
                    } else {
                        region.pending.insert(k, left);
                    }
                    region.pending_pages -= here;
                    merges.push((k, mergeable));
                }
                remaining = remaining.saturating_sub(here);
            }
        }
        for k in candidates {
            self.unstable.insert(k, rid);
        }
        for k in self_originals {
            *self
                .regions
                .get_mut(&rid)
                .expect("invariant: scanned region stays registered during scan")
                .originals
                .entry(k)
                .or_insert(0) += 1;
        }
        for (k, holder) in conversions {
            self.unstable.remove(&k);
            if let Some(h) = self.regions.get_mut(&holder) {
                // Move the candidate page out of the holder's scannable pool:
                // it now backs the shared frame.
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
        for (k, n) in merges {
            let was_shared = self.stable.contains_key(&k);
            let sharing = self.stable.entry(k).or_insert(0);
            if !was_shared {
                self.stats.pages_shared += 1;
                // The stable original itself stays resident: one frame keeps
                // backing the content.
                *sharing += 1;
            }
            *sharing += n;
            self.stats.pages_sharing += n;
            *self
                .regions
                .get_mut(&rid)
                .expect("invariant: scanned region stays registered during scan")
                .merged
                .entry(k)
                .or_insert(0) += n;
            // Release the duplicate frames.
            let freed = mm.shrink(owner, n)?;
            released += freed;
        }
        Ok((to_scan, released))
    }

    /// A write to `n` merged pages of content `k` in `region`: copy-on-write
    /// breaks sharing and re-allocates private frames.
    ///
    /// Returns the number of pages actually unshared.
    ///
    /// # Errors
    ///
    /// [`GdError::NotFound`] for an unknown region; propagates
    /// [`GdError::OutOfMemory`] if the CoW copies cannot be allocated.
    pub fn cow_break(
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
            *r.merged
                .get_mut(&k)
                .expect("invariant: partial CoW break leaves the merged entry") -= to_break;
        }
        // The pages now hold private (volatile) content.
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

    const OS_IMAGE: ContentKey = 0xABCD;
    const APP_DATA: ContentKey = 0x1234;

    fn setup() -> (MemoryManager, Ksm) {
        (
            MemoryManager::new(MmConfig::small_test()).unwrap(),
            Ksm::new(KsmConfig::default()),
        )
    }

    #[test]
    fn duplicates_within_one_region_merge() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(1000, PageKind::UserMovable).unwrap();
        ksm.register_region(a, vec![(OS_IMAGE, 1000)], 0);
        let released = ksm.advance(SimTime::from_secs(5), &mut mm).unwrap();
        // 1000 identical pages collapse to 1 resident frame.
        assert_eq!(released, 999);
        assert_eq!(ksm.stats().pages_sharing, 999);
        assert_eq!(ksm.stats().pages_shared, 1);
        assert_eq!(mm.pages_of(a), 1);
    }

    #[test]
    fn duplicates_across_regions_merge() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(500, PageKind::UserMovable).unwrap();
        let b = mm.allocate(500, PageKind::UserMovable).unwrap();
        ksm.register_region(a, vec![(OS_IMAGE, 500)], 0);
        ksm.register_region(b, vec![(OS_IMAGE, 500)], 0);
        ksm.advance(SimTime::from_secs(5), &mut mm).unwrap();
        let used = mm.meminfo().used_pages;
        assert_eq!(used, 1, "999 of 1000 duplicate frames released");
    }

    #[test]
    fn unique_pages_never_merge() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(1000, PageKind::UserMovable).unwrap();
        ksm.register_region(a, vec![], 1000);
        let released = ksm.advance(SimTime::from_secs(10), &mut mm).unwrap();
        assert_eq!(released, 0);
        assert_eq!(mm.pages_of(a), 1000);
        assert!(ksm.stats().pages_scanned > 0);
    }

    #[test]
    fn scan_rate_bounds_merge_throughput() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(20_000, PageKind::UserMovable).unwrap();
        ksm.register_region(a, vec![(OS_IMAGE, 20_000)], 0);
        // 100 ms at 1000 pages / 50 ms = 2000 pages of scan budget.
        let released = ksm.advance(SimTime::from_millis(100), &mut mm).unwrap();
        assert!(released <= 2000, "released {released} > scan budget");
        assert!(
            released >= 1000,
            "released {released}, budget mostly usable"
        );
        // The rest merges given more time.
        ksm.advance(SimTime::from_secs(10), &mut mm).unwrap();
        assert_eq!(mm.pages_of(a), 1);
    }

    #[test]
    fn single_candidate_sits_in_unstable_tree() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(1, PageKind::UserMovable).unwrap();
        ksm.register_region(a, vec![(APP_DATA, 1)], 0);
        ksm.advance(SimTime::from_secs(1), &mut mm).unwrap();
        assert_eq!(ksm.stats().pages_sharing, 0);
        // A second region with the same content appears: now they merge.
        let b = mm.allocate(1, PageKind::UserMovable).unwrap();
        ksm.register_region(b, vec![(APP_DATA, 1)], 0);
        ksm.advance(SimTime::from_secs(1), &mut mm).unwrap();
        assert_eq!(ksm.stats().pages_sharing, 1);
        assert_eq!(mm.meminfo().used_pages, 1);
    }

    #[test]
    fn pending_total_follows_holder_conversions() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(31, PageKind::UserMovable).unwrap();
        let b = mm.allocate(1, PageKind::UserMovable).unwrap();
        let ra = ksm.register_region(a, vec![(APP_DATA, 1), (OS_IMAGE, 30)], 0);
        let rb = ksm.register_region(b, vec![(APP_DATA, 1)], 0);
        let pending_pages = |ksm: &Ksm, id: RegionId| ksm.regions[&id].pending_pages;
        assert_eq!(pending_pages(&ksm, ra), 31);
        // 1 ms is a 20-page budget, spent on region a alone: its APP_DATA
        // page goes to the unstable tree and 19 OS_IMAGE pages merge.
        ksm.advance(SimTime::from_millis(1), &mut mm).unwrap();
        assert_eq!(ksm.unstable.get(&APP_DATA), Some(&ra));
        assert_eq!(pending_pages(&ksm, ra), 12);
        // Region b's scan hits that candidate, which becomes the stable
        // original inside region a without a's own scan consuming it.
        ksm.advance(SimTime::from_millis(1), &mut mm).unwrap();
        assert_eq!(ksm.regions[&ra].originals.get(&APP_DATA), Some(&1));
        for acc in ksm.region_accounting() {
            assert_eq!(acc.pending_pages, acc.pending, "{}", acc.region);
            assert_eq!(acc.pending_pages, 0, "{}", acc.region);
        }
        assert_eq!(pending_pages(&ksm, rb), 0);
    }

    #[test]
    fn own_unstable_candidate_is_not_a_duplicate() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(5, PageKind::UserMovable).unwrap();
        let ra = ksm.register_region(a, vec![(APP_DATA, 5)], 0);
        // As left by an earlier visit in the same pass that ran out of
        // budget on this key's first page.
        ksm.unstable.insert(APP_DATA, ra);
        ksm.scan_region(ra, 100, &mut mm).unwrap();
        let acc = ksm.region_accounting()[0];
        assert_eq!((acc.pending, acc.merged, acc.originals), (0, 4, 1));
        assert_eq!(mm.pages_of(a), 1);
    }

    #[test]
    fn cow_break_restores_frames() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(100, PageKind::UserMovable).unwrap();
        let r = ksm.register_region(a, vec![(OS_IMAGE, 100)], 0);
        ksm.advance(SimTime::from_secs(2), &mut mm).unwrap();
        assert_eq!(mm.pages_of(a), 1);
        let broken = ksm.cow_break(r, OS_IMAGE, 10, &mut mm).unwrap();
        assert_eq!(broken, 10);
        assert_eq!(mm.pages_of(a), 11);
        assert_eq!(ksm.stats().cow_breaks, 10);
        assert_eq!(ksm.stats().pages_sharing, 89);
    }

    #[test]
    fn unregister_releases_sharing_counts() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(50, PageKind::UserMovable).unwrap();
        let b = mm.allocate(50, PageKind::UserMovable).unwrap();
        let ra = ksm.register_region(a, vec![(OS_IMAGE, 50)], 0);
        ksm.register_region(b, vec![(OS_IMAGE, 50)], 0);
        ksm.advance(SimTime::from_secs(2), &mut mm).unwrap();
        assert_eq!(ksm.stats().pages_sharing, 99);
        ksm.unregister_region(ra).unwrap();
        assert!(ksm.stats().pages_sharing < 99);
        assert!(ksm.unregister_region(ra).is_err());
    }

    #[test]
    fn advance_with_no_regions_is_noop() {
        let (mut mm, mut ksm) = setup();
        let released = ksm.advance(SimTime::from_secs(1), &mut mm).unwrap();
        assert_eq!(released, 0);
        assert_eq!(ksm.region_count(), 0);
    }

    #[test]
    fn budget_carries_across_small_advances() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(100, PageKind::UserMovable).unwrap();
        ksm.register_region(a, vec![(OS_IMAGE, 100)], 0);
        // 10 ms = 0.2 batches = 200 pages budget; enough to merge all 100.
        for _ in 0..5 {
            ksm.advance(SimTime::from_millis(10), &mut mm).unwrap();
        }
        assert_eq!(mm.pages_of(a), 1);
    }
}
