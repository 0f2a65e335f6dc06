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
//! let mut ksm = Ksm::new(KsmConfig::default())?;
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
use std::fmt;

#[cfg(test)]
mod reference;

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
}

impl KsmConfig {
    /// Checks that the daemon can run with these parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] when `pages_to_scan` or
    /// `scan_period` is zero (the scan budget per unit of time would be
    /// zero or undefined).
    pub fn validate(&self) -> Result<()> {
        if self.pages_to_scan == 0 {
            return Err(GdError::InvalidConfig(
                "KSM pages_to_scan must be at least 1".into(),
            ));
        }
        if self.scan_period == SimTime::ZERO {
            return Err(GdError::InvalidConfig(
                "KSM scan_period must be positive".into(),
            ));
        }
        Ok(())
    }
}

impl Default for KsmConfig {
    fn default() -> Self {
        KsmConfig {
            pages_to_scan: 1000,
            scan_period: SimTime::from_millis(50),
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
    /// Region visits `advance` made, drained regions included: the scan's
    /// cost grows with these and the records each visit walks, not with
    /// the pages scanned.
    pub region_visits: u64,
}

/// One content class of a region: its pages, by state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Content {
    key: ContentKey,
    /// The key's slot in the daemon's stable and unstable trees.
    slot: u32,
    /// Unmerged pages, still to be scanned.
    pending: u64,
    /// Merged duplicates (frames released).
    merged: u64,
    /// Stable-tree originals this region contributed: pages that back a
    /// shared frame and remain resident.
    originals: u64,
}

#[derive(Debug, Clone)]
struct Region {
    id: RegionId,
    owner: AllocationId,
    /// Pages registered at `madvise` time. Merging changes which frames
    /// back them, never this count: at all times
    /// `pending + merged + originals + unique_pages == logical_pages`.
    logical_pages: u64,
    /// Shareable content, one record per key registered with pages,
    /// sorted by key. Records stay when their counts reach 0, so a key's
    /// position never changes.
    contents: Vec<Content>,
    /// No record before this index has a pending page: the scan walk
    /// starts here, so a drained region costs O(1) to visit.
    first_pending: usize,
    /// Sum of the records' `pending`, kept in step with every change to it.
    pending_pages: u64,
    /// Pages whose contents churn too fast to merge.
    unique_pages: u64,
    /// Scan cursor in pages within this region's pending+unique pool.
    cursor: u64,
}

impl Region {
    fn scannable_pages(&self) -> u64 {
        self.pending_pages + self.unique_pages
    }

    fn content(&self, k: ContentKey) -> Option<&Content> {
        let at = self.contents.binary_search_by_key(&k, |c| c.key).ok()?;
        self.contents.get(at)
    }

    fn content_mut(&mut self, k: ContentKey) -> Option<&mut Content> {
        let at = self.contents.binary_search_by_key(&k, |c| c.key).ok()?;
        self.contents.get_mut(at)
    }
}

/// The unstable tree: the region holding each slot's candidate page,
/// plus the slots a candidate was placed in since the last clear, so a
/// pass end resets only those.
#[derive(Debug, Default)]
struct UnstableTree {
    holders: Vec<Option<RegionId>>,
    touched: Vec<u32>,
}

impl UnstableTree {
    fn get(&self, slot: u32) -> Option<RegionId> {
        self.holders.get(slot as usize).copied().flatten()
    }

    fn insert(&mut self, slot: u32, holder: RegionId) {
        if let Some(h) = self.holders.get_mut(slot as usize) {
            if h.replace(holder).is_none() {
                self.touched.push(slot);
            }
        }
    }

    fn remove(&mut self, slot: u32) {
        if let Some(h) = self.holders.get_mut(slot as usize) {
            *h = None;
        }
    }

    fn clear(&mut self) {
        for slot in self.touched.drain(..) {
            if let Some(h) = self.holders.get_mut(slot as usize) {
                *h = None;
            }
        }
    }
}

/// The scan budget of one `advance` slice: `carry` pages carried in and
/// `elapsed` simulated time give `pages` whole pages to scan and
/// `carry_out` carried on.
#[derive(Debug, Clone, Copy)]
struct Budget {
    elapsed: SimTime,
    carry: f64,
    pages: u64,
    carry_out: f64,
}

impl Budget {
    fn new(cfg: &KsmConfig, elapsed: SimTime, carry: f64) -> Self {
        let batches = elapsed.as_secs_f64() / cfg.scan_period.as_secs_f64();
        let pages = batches * cfg.pages_to_scan as f64 + carry;
        // The saturating cast is `pages.floor() as u64` for every input
        // (negatives and NaN go to 0 either way) without a libm call.
        let whole = pages as u64;
        Budget {
            elapsed,
            carry,
            pages: whole,
            carry_out: pages - whole as f64,
        }
    }

    /// Whether this is the budget of `elapsed` with `carry` carried in.
    /// Carries compare by bits, so a hit returns exactly what
    /// [`Budget::new`] would.
    fn is_for(&self, elapsed: SimTime, carry: f64) -> bool {
        self.elapsed == elapsed && self.carry.to_bits() == carry.to_bits()
    }
}

/// Index of region `id` in `regions`, which is sorted by id.
fn region_index(regions: &[Region], id: RegionId) -> Option<usize> {
    regions.binary_search_by_key(&id, |r| r.id).ok()
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
    /// per-content records.
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

/// A read-only view of one unstable-tree candidate, exposed for the
/// cross-crate invariant checker in `gd-verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnstableCandidate {
    /// The candidate page's content.
    pub content: ContentKey,
    /// The region the tree says holds the candidate page.
    pub holder: RegionId,
    /// Pending pages of `content` the holder has; `None` when the holder
    /// is not registered. A candidate is only sound while this is at
    /// least 1: the page it names is still unmerged.
    pub holder_pending: Option<u64>,
}

/// The KSM daemon state: stable and unstable trees plus registered regions.
#[derive(Debug)]
pub struct Ksm {
    cfg: KsmConfig,
    /// Every content key ever registered with its slot, sorted by key.
    /// Slots are dense and never freed (DESIGN.md §6.3).
    slot_index: Vec<(ContentKey, u32)>,
    /// Stable tree by slot: total pages sharing the content, 0 when no
    /// shared frame exists.
    stable: Vec<u64>,
    /// Unstable tree by slot: contents seen once in the current pass.
    unstable: UnstableTree,
    /// Registered regions in id order: ids only grow, so registration
    /// appends.
    regions: Vec<Region>,
    next_region: u64,
    /// Round-robin cursor over regions: the next visit scans
    /// `regions[region_cursor % regions.len()]`.
    region_cursor: u64,
    /// Unspent scan budget carried between `advance` calls.
    carry_pages: f64,
    /// The last [`Budget`] worked out, reused while `advance` is called
    /// with the same slice and carry.
    budget_memo: Option<Budget>,
    /// Unstable-tree hits of the region being visited, `(content, holder)`:
    /// each holder's candidate page becomes the stable original once the
    /// visit's walk ends. Empty between visits; kept to reuse its buffer.
    conversions: Vec<(ContentKey, RegionId)>,
    stats: KsmStats,
}

impl Ksm {
    /// Creates a daemon with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] for a configuration
    /// [`KsmConfig::validate`] rejects.
    pub fn new(cfg: KsmConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Ksm {
            cfg,
            slot_index: Vec::new(),
            stable: Vec::new(),
            unstable: UnstableTree::default(),
            regions: Vec::new(),
            next_region: 1,
            region_cursor: 0,
            carry_pages: 0.0,
            budget_memo: None,
            conversions: Vec::new(),
            stats: KsmStats::default(),
        })
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
        mut shareable: Vec<(ContentKey, u64)>,
        unique_pages: u64,
    ) -> RegionId {
        let id = RegionId(self.next_region);
        self.next_region += 1;
        shareable.retain(|&(_, n)| n > 0);
        shareable.sort_unstable_by_key(|&(k, _)| k);
        let mut contents: Vec<Content> = Vec::with_capacity(shareable.len());
        for (key, n) in shareable {
            match contents.last_mut() {
                Some(c) if c.key == key => c.pending += n,
                _ => contents.push(Content {
                    key,
                    slot: 0,
                    pending: n,
                    merged: 0,
                    originals: 0,
                }),
            }
        }
        self.intern(&mut contents);
        let pending_pages = contents.iter().map(|c| c.pending).sum::<u64>();
        self.regions.push(Region {
            id,
            owner,
            logical_pages: pending_pages + unique_pages,
            contents,
            first_pending: 0,
            pending_pages,
            unique_pages,
            cursor: 0,
        });
        id
    }

    /// Gives every record of `contents` (sorted by key, keys distinct) its
    /// key's slot: a merge-join against `slot_index`, with keys never seen
    /// before taking the next free slots and then merged into the index.
    fn intern(&mut self, contents: &mut [Content]) {
        let mut fresh: Vec<(ContentKey, u32)> = Vec::new();
        let mut at = 0;
        for c in contents.iter_mut() {
            while self.slot_index.get(at).is_some_and(|&(k, _)| k < c.key) {
                at += 1;
            }
            c.slot = match self.slot_index.get(at) {
                Some(&(k, slot)) if k == c.key => slot,
                _ => {
                    let slot = u32::try_from(self.stable.len()).expect("fewer than 2^32 keys");
                    self.stable.push(0);
                    self.unstable.holders.push(None);
                    fresh.push((c.key, slot));
                    slot
                }
            };
        }
        if fresh.is_empty() {
            return;
        }
        // Merge the fresh keys (sorted, absent from the index) in from
        // the back, each entry moving once.
        let index = &mut self.slot_index;
        let mut old = index.len();
        index.resize(old + fresh.len(), (0, 0));
        let mut write = index.len();
        while let Some(&(key, slot)) = fresh.last() {
            write -= 1;
            match old.checked_sub(1).map(|i| (i, index[i])) {
                Some((i, entry)) if entry.0 > key => {
                    index[write] = entry;
                    old = i;
                }
                _ => {
                    index[write] = (key, slot);
                    fresh.pop();
                }
            }
        }
    }

    /// Unregisters a region (e.g. the VM terminated). Its merged pages
    /// disappear with it; sharing counts are released. The owner's frames
    /// are expected to be freed by the caller through the memory manager.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an unknown region.
    pub fn unregister_region(&mut self, id: RegionId) -> Result<()> {
        let at =
            region_index(&self.regions, id).ok_or_else(|| GdError::NotFound(id.to_string()))?;
        let region = self.regions.remove(at);
        for c in &region.contents {
            let sharing = self
                .stable
                .get_mut(c.slot as usize)
                .expect("invariant: every record's slot is interned");
            if c.merged > 0 && *sharing > 0 {
                *sharing = sharing.saturating_sub(c.merged);
                self.stats.pages_sharing = self.stats.pages_sharing.saturating_sub(c.merged);
                if *sharing == 0 {
                    // Last sharer: the stable page dissolves.
                    self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
                }
            }
            // Approximation: when a region that contributed a stable
            // original disappears, the kernel would keep the KSM-owned
            // frame alive for the remaining sharers; we dissolve the entry
            // instead, which only means later scans re-establish it from a
            // surviving duplicate.
            if c.originals > 0 && *sharing > 0 {
                *sharing = 0;
                self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
            }
            // A region only ever holds candidates of its own keys.
            if self.unstable.get(c.slot) == Some(id) {
                self.unstable.remove(c.slot);
            }
        }
        Ok(())
    }

    /// Per-region page accounting (for cross-crate invariant checks).
    pub fn region_accounting(&self) -> Vec<RegionAccounting> {
        self.regions
            .iter()
            .map(|r| RegionAccounting {
                region: r.id,
                logical_pages: r.logical_pages,
                pending: r.contents.iter().map(|c| c.pending).sum(),
                pending_pages: r.pending_pages,
                merged: r.contents.iter().map(|c| c.merged).sum(),
                originals: r.contents.iter().map(|c| c.originals).sum(),
                unique_pages: r.unique_pages,
            })
            .collect()
    }

    /// The unstable tree's candidates in content order, each with what its
    /// holder still has pending (for cross-crate invariant checks).
    pub fn unstable_candidates(&self) -> Vec<UnstableCandidate> {
        self.slot_index
            .iter()
            .filter_map(|&(content, slot)| {
                let holder = self.unstable.get(slot)?;
                Some(UnstableCandidate {
                    content,
                    holder,
                    holder_pending: region_index(&self.regions, holder)
                        .and_then(|at| self.regions.get(at))
                        .map(|r| r.content(content).map_or(0, |c| c.pending)),
                })
            })
            .collect()
    }

    /// Number of distinct contents in the stable tree (each backed by one
    /// resident shared frame).
    pub fn stable_contents(&self) -> usize {
        self.stable.iter().filter(|&&sharing| sharing > 0).count()
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
        let slice = self.budget(elapsed);
        let mut budget = slice.pages;
        self.carry_pages = slice.carry_out;
        let mut released_total = 0u64;
        let mut idle_guard = 0u32;
        while budget > 0 && !self.regions.is_empty() {
            // An index, not a key: a region that leaves mid-pass shifts
            // the later ones down, and the pass ends when the count of
            // visits reaches a multiple of the region count.
            let at = self.region_cursor as usize % self.regions.len();
            let (scanned, released) = self.scan_region(at, budget, mm)?;
            self.stats.region_visits += 1;
            released_total += released;
            budget = budget.saturating_sub(scanned.max(1));
            self.region_cursor += 1;
            if (self.region_cursor as usize).is_multiple_of(self.regions.len()) {
                // Completed a full pass over all regions: reset the
                // unstable tree, as ksmd does.
                self.unstable.clear();
                self.stats.full_passes += 1;
                for r in &mut self.regions {
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

    /// The budget of an `elapsed` slice from the current carry, from the
    /// memo when the last slice had the same length and carry: with the
    /// default scan rate a 1 s slice carries nothing, so every monitor
    /// period after the first hits it.
    fn budget(&mut self, elapsed: SimTime) -> Budget {
        match self.budget_memo {
            Some(b) if b.is_for(elapsed, self.carry_pages) => b,
            _ => {
                let b = Budget::new(&self.cfg, elapsed, self.carry_pages);
                self.budget_memo = Some(b);
                b
            }
        }
    }

    /// True when the daemon holds no region: [`advance`](Self::advance)
    /// then scans nothing and only moves the budget carry.
    pub fn is_regionless(&self) -> bool {
        self.regions.is_empty()
    }

    /// Whether [`advance`](Self::advance) by `elapsed` would change nothing
    /// at all: no region is held and the slice's budget is whole, so the
    /// carry stays where it is.
    pub fn advance_is_noop(&mut self, elapsed: SimTime) -> bool {
        self.is_regionless()
            && self.budget(elapsed).carry_out.to_bits() == self.carry_pages.to_bits()
    }

    /// Scans up to `budget` pages of the region at index `at`. Returns
    /// (scanned, released).
    ///
    /// Stable-tree merges, self-originals and new unstable candidates are
    /// applied as the walk meets them: a region's keys are distinct, so no
    /// later key of the walk reads what an earlier one wrote. Unstable-tree
    /// hits change the holder region, so they wait in `conversions` until
    /// the walk lets go of this one.
    fn scan_region(
        &mut self,
        at: usize,
        budget: u64,
        mm: &mut MemoryManager,
    ) -> Result<(u64, u64)> {
        let Ksm {
            stable,
            unstable,
            regions,
            conversions,
            stats,
            ..
        } = self;
        let Some(region) = regions.get_mut(at) else {
            return Ok((0, 0));
        };
        let rid = region.id;
        let scannable = region.scannable_pages().saturating_sub(region.cursor);
        let to_scan = budget.min(scannable);
        if to_scan == 0 {
            return Ok((0, 0));
        }
        region.cursor += to_scan;
        stats.pages_scanned += to_scan;

        // Unique (volatile) pages are scanned but never merge; shareable
        // pages are processed content-class by content-class. We approximate
        // the within-region scan order by consuming pending records in key
        // order, `to_scan` pages at a time.
        let mut remaining = to_scan;
        // Skip over the unique prefix proportionally: unique pages soak up
        // scan budget without producing merges.
        let total = region.scannable_pages();
        if total > 0 && region.unique_pages > 0 {
            remaining =
                remaining.saturating_sub(unique_share(remaining, region.unique_pages, total));
        }
        let mut to_release = 0u64;
        // Pending pages in records the walk has not reached: at 0 no later
        // record has any, and the walk stops.
        let mut unreached = region.pending_pages;
        for c in region.contents.iter_mut().skip(region.first_pending) {
            if remaining == 0 || unreached == 0 {
                break;
            }
            if c.pending == 0 {
                continue;
            }
            unreached -= c.pending;
            let slot = c.slot;
            let here = c.pending.min(remaining);
            remaining -= here;
            // A region revisited within one pass (regions came or went since
            // the pass began) can meet its own candidate: a page never
            // merges with itself, so only another region's candidate counts
            // as a hit.
            let candidate = unstable.get(slot);
            let holder = candidate.filter(|&h| h != rid);
            let sharing = stable
                .get_mut(slot as usize)
                .expect("invariant: every record's slot is interned");
            let mergeable = if *sharing > 0 {
                here // all scanned duplicates merge against the stable page
            } else if let Some(holder) = holder {
                // The earlier candidate becomes the stable original; all of
                // our scanned pages merge against it.
                unstable.remove(slot);
                conversions.push((c.key, holder));
                here
            } else if here > 1 {
                // First page becomes the stable original this region
                // contributes; the rest merge.
                c.originals += 1;
                here - 1
            } else {
                // Single candidate: goes to the unstable tree.
                unstable.insert(slot, rid);
                0
            };
            if mergeable == 0 {
                continue;
            }
            // Consume the scanned pages (including a self-original, which
            // moved to `originals` above).
            c.pending -= here;
            region.pending_pages -= here;
            if c.pending == 0 && candidate == Some(rid) {
                // Our own candidate page was among them: it no longer
                // waits for a partner, so a later hit must not convert it.
                unstable.remove(slot);
            }
            if *sharing == 0 {
                // The stable original itself stays resident: one frame
                // keeps backing the content.
                stats.pages_shared += 1;
                *sharing = 1;
            }
            *sharing += mergeable;
            stats.pages_sharing += mergeable;
            c.merged += mergeable;
            to_release += mergeable;
        }
        while region
            .contents
            .get(region.first_pending)
            .is_some_and(|c| c.pending == 0)
        {
            region.first_pending += 1;
        }
        let owner = region.owner;
        for (k, holder) in conversions.drain(..) {
            let Some(h) = region_index(regions, holder).and_then(|i| regions.get_mut(i)) else {
                continue;
            };
            let Some(c) = h.content_mut(k) else {
                continue;
            };
            // Move the candidate page out of the holder's scannable pool:
            // it now backs the shared frame.
            let candidate = c.pending.min(1);
            c.pending -= candidate;
            c.originals += 1;
            h.pending_pages -= candidate;
        }
        // Release the duplicate frames in one call: nothing touches `mm`
        // between the merges above, so one shrink by the sum leaves the
        // state a shrink per content would (DESIGN.md §6.3).
        let released = if to_release > 0 {
            mm.shrink(owner, to_release)?
        } else {
            0
        };
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
        let r = region_index(&self.regions, region)
            .and_then(|at| self.regions.get_mut(at))
            .ok_or_else(|| GdError::NotFound(region.to_string()))?;
        let owner = r.owner;
        let Some(c) = r.content_mut(k) else {
            return Ok(0);
        };
        let to_break = c.merged.min(n);
        if to_break == 0 {
            return Ok(0);
        }
        mm.grow(owner, to_break)?;
        c.merged -= to_break;
        let slot = c.slot as usize;
        // The pages now hold private (volatile) content.
        r.unique_pages += to_break;
        if let Some(sharing) = self.stable.get_mut(slot).filter(|s| **s > 0) {
            *sharing = sharing.saturating_sub(to_break);
            if *sharing <= 1 {
                *sharing = 0;
                self.stats.pages_shared = self.stats.pages_shared.saturating_sub(1);
            }
        }
        self.stats.pages_sharing = self.stats.pages_sharing.saturating_sub(to_break);
        self.stats.cow_breaks += to_break;
        Ok(to_break)
    }
}

/// The unique pages' share of `scanned` pages, `scanned * unique / total`
/// rounded half up: `round_to_u64` of that quotient in `f64`, computed in
/// integers when that is exact. `total` must be positive.
///
/// With `p = scanned * unique < 2^52` and `total < 2^53` every operand
/// and the product are exact doubles, so the `f64` quotient is the true
/// `x = p / total` rounded once, off by at most `x * 2^-53 < 1/(2 total)`.
/// A fraction of `x` below one half is at most `1/2 - 1/(2 total)` and one
/// above it at least `1/2 + 1/(2 total)`, so the rounding error never
/// carries `x` across a half, and a fraction of exactly one half (or 0) is
/// representable: the rounded quotient is `floor(x + 1/2)`, which is
/// `(2p + total) / (2 total)` in integer division. Outside that range the
/// `f64` quotient is kept.
fn unique_share(scanned: u64, unique: u64, total: u64) -> u64 {
    const EXACT: u64 = 1 << 52;
    match scanned.checked_mul(unique) {
        Some(p) if p < EXACT && total < 2 * EXACT => (2 * p + total) / (2 * total),
        _ => round_to_u64(scanned as f64 * unique as f64 / total as f64),
    }
}

/// `x.round() as u64` (halves away from zero, saturating, NaN to 0)
/// without calling `f64::round`, which baseline x86-64 (no SSE4.1
/// `roundsd`) runs in software. The cast truncates toward zero, and for
/// `x >= 0` the difference `x - t` is exact, so the fraction test is the
/// rounding rule; a negative or NaN `x` gives `t = 0` and a fraction below
/// one half.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_mmsim::{MmConfig, PageKind};

    /// The cast that replaced `floor` and `round_to_u64` agree with the
    /// `f64` library functions on the edge values: halves, the largest
    /// double below one half, half-integers where the spacing is 0.5 or 1,
    /// the top of the `u64` range, negatives, infinities and NaN.
    #[test]
    fn rounding_without_libm_matches_the_library() {
        let two52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            0.5000000000000001,
            two52 / 2.0 + 0.5,
            two52 + 0.5,
            two52 + 1.0,
            two52 * 2.0 - 1.0,
            two52 * 4096.0 - 2048.0,
            two52 * 4096.0,
            1e30,
            -0.4,
            -0.5,
            -0.6,
            -1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        xs.extend((0..2000).map(|i| f64::from(i) * 0.25 + 1e-3 * f64::from(i % 7)));
        for x in xs {
            assert_eq!(x as u64, x.floor() as u64, "floor({x})");
            assert_eq!(round_to_u64(x), x.round() as u64, "round({x})");
        }
    }

    /// The integer unique share equals `round_to_u64` of the `f64`
    /// quotient on seeded draws: small shares, exact ties (a quotient
    /// ending in one half, up to 2^51), quotients a hair either side of a
    /// half with the product just below 2^52, and the `f64` fallback for
    /// products and totals above the exact range.
    #[test]
    fn integer_unique_share_matches_the_float_quotient() {
        use gd_types::rng::component_rng;
        let float = |s: u64, u: u64, t: u64| round_to_u64(s as f64 * u as f64 / t as f64);
        let two52 = 1u64 << 52;
        let mut rng = component_rng(11, "unique-share");
        let (mut ties, mut near, mut fallback) = (0u32, 0u32, 0u32);
        for _ in 0..200_000 {
            let (s, u, t) = match rng.gen_range(0u32..5) {
                0 => {
                    let t = rng.gen_range(1..2_000_000u64);
                    (rng.gen_range(1..t + 1), rng.gen_range(1..t + 1), t)
                }
                1 => {
                    // t = 2m and s * u an odd multiple of m: x ends in .5.
                    let m = rng.gen_range(1..1u64 << 25);
                    let odd = 2 * rng.gen_range(0..1u64 << 25) + 1;
                    ties += 1;
                    if rng.gen_bool(0.5) {
                        (odd, m, 2 * m)
                    } else {
                        (m, odd, 2 * m)
                    }
                }
                2 => {
                    // x = k + 1/2 -+ 1/(2t) with the product just below 2^52.
                    let t = 2 * rng.gen_range(1..1u64 << 25) + 1;
                    let k = (two52 - t) / t - rng.gen_range(0..4u64);
                    let p = k * t + (t - 1) / 2 + rng.gen_range(0..2u64);
                    assert!(p < two52);
                    near += 1;
                    (p, 1, t)
                }
                3 => {
                    let t = rng.gen_range(1..1u64 << 40);
                    let s = rng.gen_range(1..t + 1);
                    let u = (two52 / s).max(1) + rng.gen_range(0..4u64);
                    fallback += u32::from(s * u >= two52);
                    (s, u, t)
                }
                _ => {
                    let t = rng.gen_range(two52 * 2..two52 * 8);
                    fallback += 1;
                    (rng.gen_range(1..64u64), rng.gen_range(1..64u64), t)
                }
            };
            assert_eq!(unique_share(s, u, t), float(s, u, t), "{s} * {u} / {t}");
        }
        assert!(ties > 30_000 && near > 30_000 && fallback > 30_000);
    }

    const OS_IMAGE: ContentKey = 0xABCD;
    const APP_DATA: ContentKey = 0x1234;

    fn setup() -> (MemoryManager, Ksm) {
        (
            MemoryManager::new(MmConfig::small_test()).unwrap(),
            Ksm::new(KsmConfig::default()).unwrap(),
        )
    }

    fn region(ksm: &Ksm, id: RegionId) -> &Region {
        let at = region_index(&ksm.regions, id).unwrap();
        &ksm.regions[at]
    }

    /// One visit of region `id`, outside any pass bookkeeping.
    fn scan(ksm: &mut Ksm, id: RegionId, budget: u64, mm: &mut MemoryManager) -> (u64, u64) {
        let at = region_index(&ksm.regions, id).unwrap();
        ksm.scan_region(at, budget, mm).unwrap()
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
        let pending_pages = |ksm: &Ksm, id: RegionId| region(ksm, id).pending_pages;
        assert_eq!(pending_pages(&ksm, ra), 31);
        // 1 ms is a 20-page budget, spent on region a alone: its APP_DATA
        // page goes to the unstable tree and 19 OS_IMAGE pages merge.
        ksm.advance(SimTime::from_millis(1), &mut mm).unwrap();
        assert_eq!(ksm.unstable.get(ksm.slot_of(APP_DATA).unwrap()), Some(ra));
        assert_eq!(pending_pages(&ksm, ra), 12);
        // Region b's scan hits that candidate, which becomes the stable
        // original inside region a without a's own scan consuming it.
        ksm.advance(SimTime::from_millis(1), &mut mm).unwrap();
        assert_eq!(region(&ksm, ra).content(APP_DATA).unwrap().originals, 1);
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
        ksm.unstable.insert(ksm.slot_of(APP_DATA).unwrap(), ra);
        scan(&mut ksm, ra, 100, &mut mm);
        let acc = ksm.region_accounting()[0];
        assert_eq!((acc.pending, acc.merged, acc.originals), (0, 4, 1));
        assert_eq!(mm.pages_of(a), 1);
    }

    #[test]
    fn drained_own_candidate_leaves_the_unstable_tree() {
        let (mut mm, mut ksm) = setup();
        let a = mm.allocate(5, PageKind::UserMovable).unwrap();
        let ra = ksm.register_region(a, vec![(APP_DATA, 5)], 0);
        // The same-pass revisit above drains the content its own candidate
        // names: the candidate page is now a stable original, not a
        // candidate.
        ksm.unstable.insert(ksm.slot_of(APP_DATA).unwrap(), ra);
        scan(&mut ksm, ra, 100, &mut mm);
        assert!(ksm.unstable_candidates().is_empty());
        // Dissolve the stable page, then let another region scan the same
        // content: with a stale candidate left behind, its hit would make
        // region a gain an original without losing a pending page.
        assert_eq!(ksm.cow_break(ra, APP_DATA, 4, &mut mm).unwrap(), 4);
        assert_eq!(ksm.stable_contents(), 0);
        let b = mm.allocate(2, PageKind::UserMovable).unwrap();
        let rb = ksm.register_region(b, vec![(APP_DATA, 2)], 0);
        scan(&mut ksm, rb, 100, &mut mm);
        for acc in ksm.region_accounting() {
            let sum = acc.pending + acc.merged + acc.originals + acc.unique_pages;
            assert_eq!(sum, acc.logical_pages, "{acc:?}");
        }
        let acc = ksm.region_accounting();
        assert_eq!((acc[0].originals, acc[0].unique_pages), (1, 4));
        assert_eq!((acc[1].merged, acc[1].originals), (1, 1));
        assert!(ksm
            .unstable_candidates()
            .iter()
            .all(|c| c.holder_pending.is_some_and(|p| p > 0)));
    }

    #[test]
    fn one_release_per_visit_survives_an_emptied_owner() {
        let (mut mm, mut ksm) = setup();
        // Three contents of two pages each over a two-page allocation: the
        // visit merges one duplicate per content. Released content by
        // content, the third shrink would find the allocation already gone.
        let a = mm.allocate(2, PageKind::UserMovable).unwrap();
        let ra = ksm.register_region(a, vec![(1, 2), (2, 2), (3, 2)], 0);
        assert_eq!(scan(&mut ksm, ra, 100, &mut mm), (6, 2));
        assert_eq!(ksm.stats().pages_sharing, 3);
        assert_eq!(mm.pages_of(a), 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = KsmConfig::default();
        let bad = [
            KsmConfig {
                pages_to_scan: 0,
                ..base
            },
            KsmConfig {
                scan_period: SimTime::ZERO,
                ..base
            },
        ];
        for cfg in bad {
            assert!(
                matches!(cfg.validate(), Err(GdError::InvalidConfig(_))),
                "{cfg:?}"
            );
            assert!(Ksm::new(cfg).is_err(), "{cfg:?}");
        }
        assert_eq!(base.validate(), Ok(()));
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
        assert!(ksm.region_accounting().is_empty());
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
