//! The physical-memory manager: allocation across blocks, page migration,
//! and the memory on/off-lining operations GreenDIMM drives.

use crate::block::{BlockInfo, Chunk, MemoryBlock};
use crate::buddy::{ChunkRun, MAX_ORDER};
use crate::frame::{
    AllocationId, OfflineErrno, OfflineError, OfflineFailure, OfflineReport, PageKind, PAGE_BYTES,
};
use crate::latency::HotplugLatencies;
use gd_faults::{FaultInjector, FaultSite, MIGRATION_SLOWDOWN};
use gd_types::rng::{component_rng, StdRng};
use gd_types::stats::Summary;
use gd_types::{GdError, Result, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;

/// Configuration of the simulated physical memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmConfig {
    /// Installed capacity in bytes.
    pub capacity_bytes: u64,
    /// Memory block (hotplug unit) size in bytes; Linux default 128 MB,
    /// configurable via `/sys/devices/system/memory/block_size_bytes`.
    pub block_bytes: u64,
    /// If set, the top `movablecore_bytes` of memory form ZONE_MOVABLE:
    /// kernel/pinned allocations avoid it (mirroring the `movablecore=`
    /// boot parameter).
    pub movablecore_bytes: Option<u64>,
    /// Probability that a kernel allocation spills into the movable zone
    /// anyway (the paper observes reserved movable regions still acquire
    /// unmovable pages).
    pub unmovable_leak_prob: f64,
    /// Per-attempt probability that page migration transiently fails even
    /// when space exists (locked pages, short-lived references). Three
    /// failed attempts produce EAGAIN.
    pub transient_fail_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MmConfig {
    /// A small configuration for tests: 256 MB with 16 MB blocks.
    pub fn small_test() -> Self {
        MmConfig {
            capacity_bytes: 256 << 20,
            block_bytes: 16 << 20,
            movablecore_bytes: None,
            unmovable_leak_prob: 0.0,
            transient_fail_prob: 0.0,
            seed: 1,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A `/proc/meminfo`-style snapshot (only on-line memory is visible to the
/// kernel's allocator, exactly as with real memory hotplug).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemInfo {
    /// Pages currently on-line.
    pub total_pages: u64,
    /// Free on-line pages.
    pub free_pages: u64,
    /// Used on-line pages.
    pub used_pages: u64,
    /// Pages removed from the physical address space by off-lining.
    pub offline_pages: u64,
    /// Installed capacity in pages (online + offline).
    pub installed_pages: u64,
}

impl MemInfo {
    /// Free fraction of on-line memory.
    pub fn free_fraction(&self) -> f64 {
        if self.total_pages == 0 {
            0.0
        } else {
            self.free_pages as f64 / self.total_pages as f64
        }
    }
}

/// Aggregate hotplug statistics (drives Table 3 and Fig. 8).
#[derive(Debug, Clone, Default)]
pub struct HotplugStats {
    /// Successful off-linings.
    pub offline_success: u64,
    /// EBUSY failures.
    pub offline_ebusy: u64,
    /// EAGAIN failures.
    pub offline_eagain: u64,
    /// EBUSY failures caused by device-pinned pages (including injected
    /// pin faults).
    pub offline_pinned: u64,
    /// EBUSY failures caused by kernel (slab/page-table) pages.
    pub offline_kernel: u64,
    /// Mid-migration aborts whose already-placed destination frames were
    /// rolled back transactionally.
    pub rollbacks: u64,
    /// On-linings.
    pub online_count: u64,
    /// Pages migrated during off-lining.
    pub migrated_pages: u64,
    /// Latency samples (µs) per event type.
    pub offline_latency_us: Summary,
    /// Latency samples (µs) for on-lining.
    pub online_latency_us: Summary,
    /// Latency samples (µs) for EBUSY failures.
    pub ebusy_latency_us: Summary,
    /// Latency samples (µs) for EAGAIN failures.
    pub eagain_latency_us: Summary,
    /// Total wall-clock time spent in hotplug operations.
    pub total_time: SimTime,
}

impl HotplugStats {
    /// All off-lining failures.
    pub fn offline_failures(&self) -> u64 {
        self.offline_ebusy + self.offline_eagain
    }
}

/// Max-order chunks placed so far: deterministic work counters, kept out
/// of [`HotplugStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementWork {
    /// Runs of max-order chunks placed (each taken in one step).
    pub max_order_runs: u64,
    /// Max-order chunks placed.
    pub max_order_chunks: u64,
}

#[derive(Debug, Clone)]
struct AllocInfo {
    kind: PageKind,
    /// The chunks in allocation order, as `(block index, run)` pairs: a
    /// run stands for its chunks in ascending offset order. They hold
    /// `pages + deferred` pages.
    runs: Vec<(usize, ChunkRun)>,
    pages: u64,
    /// Pages already released by [`MemoryManager::shrink`] but still in
    /// `runs`, waiting for [`MemoryManager::settle`].
    deferred: u64,
}

impl AllocInfo {
    /// Appends the chunks of `run` in block `bi`, extending the last run
    /// when they continue it.
    fn push_run(&mut self, bi: usize, run: ChunkRun) {
        let extended = self
            .runs
            .last_mut()
            .is_some_and(|(b, last)| *b == bi && last.absorb(run));
        if !extended {
            self.runs.push((bi, run));
        }
    }

    /// Every chunk as `(block index, offset)`, in allocation order.
    #[cfg(test)]
    fn chunks(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.runs
            .iter()
            .flat_map(|&(bi, run)| run.offsets().map(move |off| (bi, off)))
    }

    /// Drops the chunk at `off` in block `bi`, which starts its run:
    /// migration takes a block's chunks in ascending offset order and a
    /// run never crosses a block, so every run it reaches loses its first
    /// chunk and none splits.
    fn remove_first_chunk(&mut self, bi: usize, off: u32) {
        let at = self
            .runs
            .iter()
            .position(|&(b, run)| b == bi && run.offset == off);
        debug_assert!(at.is_some(), "no run starts at ({bi}, {off})");
        if let Some(at) = at {
            match self.runs[at].1.rest() {
                Some(rest) => self.runs[at].1 = rest,
                None => {
                    self.runs.remove(at);
                }
            }
        }
    }
}

/// Two allocations are equal when they list the same chunks in the same
/// order, however the chunks are grouped into runs.
#[cfg(test)]
impl PartialEq for AllocInfo {
    fn eq(&self, other: &Self) -> bool {
        (self.kind, self.pages, self.deferred) == (other.kind, other.pages, other.deferred)
            && self.chunks().eq(other.chunks())
    }
}

/// One journalled migration step: the source chunk's offset and
/// metadata plus the `(block, run)` destinations reserved for it.
type MigrationJournalEntry = (u32, Chunk, Vec<(usize, ChunkRun)>);

/// The simulated physical-memory manager.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    cfg: MmConfig,
    blocks: Vec<MemoryBlock>,
    block_pages: u32,
    /// First block of ZONE_MOVABLE (== blocks.len() when not configured).
    movable_zone_start: usize,
    allocs: HashMap<AllocationId, AllocInfo>,
    /// The allocations with `deferred > 0`, each once, in the order they
    /// first deferred: the order [`MemoryManager::settle`] places them.
    deferred_ids: Vec<AllocationId>,
    /// Free pages over the on-line blocks, deferred releases included,
    /// kept in step with every block mutation and every shrink so
    /// [`MemoryManager::meminfo`] is O(1). [`MemoryManager::audit`] checks
    /// it against the per-block sum plus the deferred pages.
    online_free: u64,
    /// Pages of the off-line blocks, kept in step with every on/off-lining.
    offline_pages: u64,
    next_id: u64,
    rng: StdRng,
    latencies: HotplugLatencies,
    /// Optional fault injector (see `gd-faults`); `None` and an inactive
    /// plan behave identically (no stream draws, no telemetry keys).
    faults: Option<FaultInjector>,
    /// Test hook: when set, a migration abort "forgets" to undo one
    /// reserved destination chunk so Strict verification can prove it
    /// catches broken rollbacks.
    break_rollback: bool,
    /// Max-order placement counters.
    placement: PlacementWork,
    /// Hotplug statistics.
    pub stats: HotplugStats,
}

/// Outcome of one migration attempt.
enum MigrateOutcome {
    /// Every movable chunk left the block.
    Done,
    /// Not enough free space elsewhere; nothing was changed.
    NoSpace,
    /// An injected fault aborted the attempt partway; reserved
    /// destination frames were rolled back.
    Aborted,
}

impl MemoryManager {
    /// Builds a manager with all blocks on-line and empty.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] if capacity is not block-aligned
    /// or a block is not a whole number of max-order buddy chunks.
    pub fn new(cfg: MmConfig) -> Result<Self> {
        if cfg.block_bytes == 0 || !cfg.capacity_bytes.is_multiple_of(cfg.block_bytes) {
            return Err(GdError::InvalidConfig(format!(
                "capacity {} not a multiple of block size {}",
                cfg.capacity_bytes, cfg.block_bytes
            )));
        }
        let block_pages = cfg.block_bytes / PAGE_BYTES;
        if block_pages == 0
            || !block_pages.is_multiple_of(1 << MAX_ORDER)
            || block_pages > u32::MAX as u64
        {
            return Err(GdError::InvalidConfig(format!(
                "block of {block_pages} pages is not buddy-alignable"
            )));
        }
        let n_blocks = (cfg.capacity_bytes / cfg.block_bytes) as usize;
        let movable_zone_start = match cfg.movablecore_bytes {
            Some(bytes) => {
                let mv_blocks = (bytes / cfg.block_bytes) as usize;
                if mv_blocks > n_blocks {
                    return Err(GdError::InvalidConfig(
                        "movablecore exceeds capacity".into(),
                    ));
                }
                n_blocks - mv_blocks
            }
            None => n_blocks,
        };
        Ok(MemoryManager {
            online_free: n_blocks as u64 * block_pages,
            offline_pages: 0,
            blocks: (0..n_blocks)
                .map(|i| MemoryBlock::new(i, block_pages as u32))
                .collect(),
            block_pages: block_pages as u32,
            movable_zone_start,
            allocs: HashMap::new(),
            deferred_ids: Vec::new(),
            next_id: 1,
            rng: component_rng(cfg.seed, "mmsim"),
            latencies: HotplugLatencies::default(),
            faults: None,
            break_rollback: false,
            placement: PlacementWork::default(),
            stats: HotplugStats::default(),
            cfg,
        })
    }

    /// Installs a fault injector. Passing an inactive injector (or never
    /// calling this) leaves every code path byte-identical to a build
    /// without fault support.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Deliberately breaks migration-abort rollback (leaks one reserved
    /// destination chunk into the owner's chunk list without adjusting
    /// its page count). Only for negative tests proving that Strict
    /// verification catches the accounting corruption.
    #[doc(hidden)]
    pub fn debug_break_rollback(&mut self) {
        self.break_rollback = true;
    }

    /// Max-order chunks placed so far, allocations and migrations alike.
    pub fn placement_work(&self) -> PlacementWork {
        self.placement
    }

    /// The configuration.
    pub fn config(&self) -> &MmConfig {
        &self.cfg
    }

    /// Number of memory blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Pages per block.
    pub fn block_pages(&self) -> u64 {
        self.block_pages as u64
    }

    /// Snapshot of one block.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an out-of-range index.
    pub fn block_info(&self, index: usize) -> Result<BlockInfo> {
        self.settled_view()
            .blocks
            .get(index)
            .map(|b| b.info())
            .ok_or_else(|| GdError::NotFound(format!("memory block {index}")))
    }

    /// Snapshots of every block.
    pub fn blocks(&self) -> Vec<BlockInfo> {
        self.settled_view()
            .blocks
            .iter()
            .map(|b| b.info())
            .collect()
    }

    /// Whether each block is off-line, in block order. On/off-lining is
    /// never deferred, so this reads the live blocks without a settle.
    pub fn offline_flags(&self) -> impl Iterator<Item = bool> + '_ {
        self.blocks.iter().map(|b| !b.online())
    }

    /// Whether block `index` is off-line (false when out of range). Like
    /// [`offline_flags`](Self::offline_flags), it needs no settle.
    pub fn block_offline(&self, index: usize) -> bool {
        self.blocks.get(index).is_some_and(|b| !b.online())
    }

    /// Every block, read in place after placing the deferred releases: the
    /// layout [`blocks`](Self::blocks) snapshots, without the copy.
    pub fn settled_blocks(&mut self) -> &[MemoryBlock] {
        self.settle();
        &self.blocks
    }

    /// The layout with every deferred release placed: `self` when none is
    /// pending, else a settled copy. The `&self` layout readers answer from
    /// it, so a caller that forgets to [`settle`](Self::settle) pays for a
    /// copy but never reads a stale layout.
    fn settled_view(&self) -> Cow<'_, MemoryManager> {
        if self.deferred_ids.is_empty() {
            Cow::Borrowed(self)
        } else {
            let mut settled = self.clone();
            settled.settle();
            Cow::Owned(settled)
        }
    }

    /// Number of off-line blocks.
    pub fn offline_block_count(&self) -> usize {
        (self.offline_pages / self.block_pages()) as usize
    }

    /// A `/proc/meminfo` snapshot, read from running totals.
    pub fn meminfo(&self) -> MemInfo {
        let installed = self.blocks.len() as u64 * self.block_pages();
        let total = installed - self.offline_pages;
        MemInfo {
            total_pages: total,
            free_pages: self.online_free,
            used_pages: total - self.online_free,
            offline_pages: self.offline_pages,
            installed_pages: installed,
        }
    }

    /// The `meminfo` totals summed block by block, with the deferred
    /// pages counted as free: the reference [`MemoryManager::audit`] holds
    /// the running totals to.
    fn meminfo_from_blocks(&self) -> MemInfo {
        let mut total = 0;
        let mut free = 0;
        let mut used = 0;
        let mut offline = 0;
        for b in &self.blocks {
            if b.online() {
                total += b.total_pages();
                free += b.free_pages();
                used += b.used_pages();
            } else {
                offline += b.total_pages();
            }
        }
        // Deferred pages sit in chunks of on-line blocks: nothing
        // off-lines a block before settling.
        let deferred: u64 = self.allocs.values().map(|a| a.deferred).sum();
        free += deferred;
        used = used.saturating_sub(deferred);
        MemInfo {
            total_pages: total,
            free_pages: free,
            used_pages: used,
            offline_pages: offline,
            installed_pages: total + offline,
        }
    }

    /// Allocates up to `pages` pages in block `bi`, taking them off the
    /// free total; returns the placed runs of chunks.
    fn alloc_in_block(
        &mut self,
        bi: usize,
        pages: u64,
        owner: AllocationId,
        kind: PageKind,
    ) -> Vec<ChunkRun> {
        let runs = self.blocks[bi].alloc_chunks(pages, owner, kind);
        for run in runs.iter().filter(|r| r.order == MAX_ORDER) {
            self.placement.max_order_runs += 1;
            self.placement.max_order_chunks += u64::from(run.count);
        }
        self.online_free -= runs.iter().map(ChunkRun::pages).sum::<u64>();
        runs
    }

    /// Frees the chunks of `run` in block `bi`, returning them to the free
    /// total.
    fn free_in_block(&mut self, bi: usize, run: ChunkRun) {
        for off in run.offsets() {
            self.blocks[bi].free_chunk(off);
        }
        self.online_free += run.pages();
    }

    /// On- or off-lines block `index`, moving its pages between the
    /// running totals.
    fn set_block_online(&mut self, index: usize, online: bool) {
        let block = &mut self.blocks[index];
        block.set_online(online);
        let (free, total) = (block.free_pages(), block.total_pages());
        if online {
            self.offline_pages -= total;
            self.online_free += free;
        } else {
            self.online_free -= free;
            self.offline_pages += total;
        }
    }

    fn eligible_blocks(&mut self, kind: PageKind) -> Vec<usize> {
        let leak = kind != PageKind::UserMovable
            && self.cfg.unmovable_leak_prob > 0.0
            && self.rng.gen_bool(self.cfg.unmovable_leak_prob);
        let limit = if kind.is_movable() || leak {
            self.blocks.len()
        } else {
            self.movable_zone_start
        };
        (0..limit).filter(|i| self.blocks[*i].online()).collect()
    }

    /// Allocates `pages` pages of the given kind, spread over on-line blocks
    /// first-fit ascending (densely packing low blocks, as the kernel's
    /// fallback order does).
    ///
    /// # Errors
    ///
    /// Returns [`GdError::OutOfMemory`] if the eligible on-line blocks do not
    /// hold enough free pages; no partial allocation is left behind.
    pub fn allocate(&mut self, pages: u64, kind: PageKind) -> Result<AllocationId> {
        if pages == 0 {
            return Err(GdError::InvalidConfig("zero-page allocation".into()));
        }
        self.settle();
        let id = AllocationId(self.next_id);
        let mut info = AllocInfo {
            kind,
            runs: Vec::new(),
            pages,
            deferred: 0,
        };
        for (bi, run) in self.place(pages, id, kind)? {
            info.push_run(bi, run);
        }
        self.next_id += 1;
        self.allocs.insert(id, info);
        Ok(id)
    }

    /// Places `pages` pages of `kind` for allocation `id` over the eligible
    /// on-line blocks, first-fit ascending, and returns the runs placed.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::OutOfMemory`], placing nothing, if the eligible
    /// blocks do not hold enough free pages.
    fn place(
        &mut self,
        pages: u64,
        id: AllocationId,
        kind: PageKind,
    ) -> Result<Vec<(usize, ChunkRun)>> {
        let eligible = self.eligible_blocks(kind);
        let free_total: u64 = eligible.iter().map(|i| self.blocks[*i].free_pages()).sum();
        if free_total < pages {
            return Err(GdError::OutOfMemory {
                requested_pages: pages,
                free_pages: free_total,
            });
        }
        let mut remaining = pages;
        let mut placed = Vec::new();
        for bi in eligible {
            if remaining == 0 {
                break;
            }
            for run in self.alloc_in_block(bi, remaining, id, kind) {
                placed.push((bi, run));
                remaining = remaining.saturating_sub(run.pages());
            }
        }
        debug_assert_eq!(remaining, 0, "free accounting said space existed");
        Ok(placed)
    }

    /// Frees an entire allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an unknown id.
    pub fn free(&mut self, id: AllocationId) -> Result<()> {
        self.settle();
        let info = self
            .allocs
            .remove(&id)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?;
        for (bi, run) in info.runs {
            self.free_in_block(bi, run);
        }
        Ok(())
    }

    /// Shrinks an allocation by up to `pages` pages, returning the number
    /// of pages actually freed. Used by KSM when merging duplicate pages
    /// releases frames.
    ///
    /// The pages count as free at once (`meminfo`, `pages_of`); the frames
    /// themselves go back to the buddy allocator at the next
    /// [`settle`](Self::settle). An allocation shrunk to zero pages counts
    /// as gone.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an unknown or emptied id.
    pub fn shrink(&mut self, id: AllocationId, pages: u64) -> Result<u64> {
        let info = self
            .allocs
            .get_mut(&id)
            .filter(|info| info.pages > 0)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?;
        let n = pages.min(info.pages);
        if info.deferred == 0 && n > 0 {
            self.deferred_ids.push(id);
        }
        info.pages -= n;
        info.deferred += n;
        self.online_free += n;
        Ok(n)
    }

    /// Places every deferred release: each shrunk allocation frees its
    /// deferred pages, in the order the allocations first deferred.
    ///
    /// Whole chunks are freed last-allocated first, as many of a run's
    /// top chunks at once as are wanted. When the next chunk holds more
    /// pages than are still wanted, only its top pages are freed
    /// ([`MemoryBlock::trim_chunk`]); its kept lower pages stay owned as
    /// aligned pieces, appended to the chunk list in ascending offset
    /// order. An allocation left without chunks is dropped. The result is
    /// the layout eager shrinks would have left (DESIGN.md §6.3).
    pub fn settle(&mut self) {
        for id in self.deferred_ids.drain(..) {
            let info = self
                .allocs
                .get_mut(&id)
                .expect("deferred_ids lists live allocations");
            let mut left = std::mem::take(&mut info.deferred);
            while left > 0 {
                let Some(&(bi, run)) = info.runs.last() else {
                    break;
                };
                let block = &mut self.blocks[bi];
                // The run's top chunks that `left` covers are freed whole.
                let whole = (left >> run.order).min(u64::from(run.count)) as u32;
                let mut kept = run.count - whole;
                for off in run.offsets().skip(kept as usize) {
                    block.free_chunk(off);
                }
                left -= u64::from(whole) << run.order;
                // Freeing the next chunk whole would overshoot: free its
                // top `left` pages and keep the rest.
                let trim = (left > 0 && kept > 0).then(|| {
                    kept -= 1;
                    run.chunk(kept)
                });
                info.runs.pop();
                if kept > 0 {
                    info.runs.push((bi, ChunkRun { count: kept, ..run }));
                }
                if let Some(off) = trim {
                    for piece in block.trim_chunk(off, left as u32) {
                        info.push_run(bi, piece);
                    }
                    left = 0;
                }
            }
            if info.runs.is_empty() {
                self.allocs.remove(&id);
            }
        }
    }

    /// Grows an allocation by `pages` pages of its original kind.
    ///
    /// # Errors
    ///
    /// [`GdError::NotFound`] for an unknown id, [`GdError::OutOfMemory`] if
    /// space is insufficient.
    pub fn grow(&mut self, id: AllocationId, pages: u64) -> Result<()> {
        self.settle();
        let kind = self
            .allocs
            .get(&id)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?
            .kind;
        let placed = self.place(pages, id, kind)?;
        let info = self.allocs.get_mut(&id).expect("checked above");
        for (bi, run) in placed {
            info.push_run(bi, run);
        }
        info.pages += pages;
        Ok(())
    }

    /// Pages currently held by an allocation (0 if unknown).
    pub fn pages_of(&self, id: AllocationId) -> u64 {
        self.allocs.get(&id).map(|a| a.pages).unwrap_or(0)
    }

    /// Off-lines a memory block (the kernel's `offline_pages()`).
    ///
    /// Semantics follow §5.2:
    /// * a block with unmovable or pinned pages fails fast with EBUSY (6 µs);
    /// * a block with movable used pages requires migration; three failed
    ///   attempts (no space, or transient failure) produce EAGAIN (4.37 ms);
    /// * an entirely free block off-lines in 1.58 ms with no migration.
    ///
    /// # Errors
    ///
    /// [`GdError::NotFound`] / [`GdError::InvalidState`] for bad indices or
    /// an already off-line block; these are caller bugs, not kernel errnos.
    pub fn offline_block(
        &mut self,
        index: usize,
    ) -> Result<std::result::Result<OfflineReport, OfflineFailure>> {
        self.settle();
        if index >= self.blocks.len() {
            return Err(GdError::NotFound(format!("memory block {index}")));
        }
        if !self.blocks[index].online() {
            return Err(GdError::InvalidState(format!(
                "block {index} is already offline"
            )));
        }
        // EBUSY: isolation fails on unmovable pages, or an injected pin
        // fault (a page grabbed a DMA reference between the removable
        // check and isolation).
        let injected_pin = self
            .faults
            .as_mut()
            .is_some_and(|f| f.should_fire(FaultSite::OfflinePinned));
        if injected_pin || self.blocks[index].unmovable_pages() > 0 {
            let cause = if injected_pin || self.blocks[index].pinned_pages() > 0 {
                self.stats.offline_pinned += 1;
                OfflineError::Pinned
            } else {
                self.stats.offline_kernel += 1;
                OfflineError::KernelBlock
            };
            let latency = self.latencies.ebusy;
            self.stats.offline_ebusy += 1;
            self.stats
                .ebusy_latency_us
                .record(latency.as_micros() as f64);
            self.stats.total_time += latency;
            return Ok(Err(OfflineFailure {
                errno: OfflineErrno::Busy,
                cause,
                latency,
            }));
        }
        let to_migrate = self.blocks[index].movable_pages();
        if to_migrate == 0 {
            let latency = self.latencies.offline_success;
            self.set_block_online(index, false);
            self.stats.offline_success += 1;
            self.stats
                .offline_latency_us
                .record(latency.as_micros() as f64);
            self.stats.total_time += latency;
            return Ok(Ok(OfflineReport {
                latency,
                migrated_pages: 0,
            }));
        }
        // Migration path: three attempts, as the (older) kernel does.
        let mut migrated = false;
        for _ in 0..3 {
            let transient = self.cfg.transient_fail_prob > 0.0
                && self.rng.gen_bool(self.cfg.transient_fail_prob);
            if transient {
                continue;
            }
            match self.try_migrate_out(index) {
                MigrateOutcome::Done => {
                    migrated = true;
                    break;
                }
                MigrateOutcome::NoSpace | MigrateOutcome::Aborted => {}
            }
        }
        if !migrated {
            let latency = self.latencies.eagain;
            self.stats.offline_eagain += 1;
            self.stats
                .eagain_latency_us
                .record(latency.as_micros() as f64);
            self.stats.total_time += latency;
            return Ok(Err(OfflineFailure {
                errno: OfflineErrno::Again,
                cause: OfflineError::MigrationAborted,
                latency,
            }));
        }
        // Injected compaction contention inflates the per-page copy cost.
        let slow = self
            .faults
            .as_mut()
            .is_some_and(|f| f.should_fire(FaultSite::MigrationSlow));
        let per_page = if slow {
            self.latencies.per_migrated_page * MIGRATION_SLOWDOWN
        } else {
            self.latencies.per_migrated_page
        };
        let latency = self.latencies.offline_success + per_page * to_migrate;
        self.set_block_online(index, false);
        self.stats.offline_success += 1;
        self.stats.migrated_pages += to_migrate;
        self.stats
            .offline_latency_us
            .record(latency.as_micros() as f64);
        self.stats.total_time += latency;
        Ok(Ok(OfflineReport {
            latency,
            migrated_pages: to_migrate,
        }))
    }

    /// Moves every movable chunk out of `index` into other on-line blocks.
    ///
    /// Runs as a two-phase transaction. Phase 1 *reserves* destination
    /// chunks while the source chunks stay in place, journalling every
    /// reservation; an injected [`FaultSite::MigrationAbort`] fault lands
    /// mid-journal and rolls the reservations back, leaving the manager
    /// byte-identical to the pre-attempt state. Phase 2 commits: sources
    /// are freed and the owners' chunk lists are patched. Destination
    /// placement excludes the source block, so reserving before freeing
    /// picks exactly the chunks the old single-pass code did.
    fn try_migrate_out(&mut self, index: usize) -> MigrateOutcome {
        let needed = self.blocks[index].movable_pages();
        let free_elsewhere = self.online_free - self.blocks[index].free_pages();
        if free_elsewhere < needed {
            return MigrateOutcome::NoSpace;
        }
        let offsets = self.blocks[index].chunk_offsets();
        // One abort decision per attempt; when it fires, the abort lands
        // halfway through the chunk list so there is real work to undo.
        let abort_at = self
            .faults
            .as_mut()
            .is_some_and(|f| f.should_fire(FaultSite::MigrationAbort))
            .then_some(offsets.len() / 2);
        // Phase 1: reserve destinations; sources untouched.
        let mut journal: Vec<MigrationJournalEntry> = Vec::new();
        for (pos, off) in offsets.iter().copied().enumerate() {
            if abort_at == Some(pos) {
                self.rollback_migration(journal);
                self.stats.rollbacks += 1;
                return MigrateOutcome::Aborted;
            }
            let chunk = *self.blocks[index]
                .chunk_at(off)
                .expect("invariant: chunk_offsets lists live chunks");
            debug_assert!(chunk.kind.is_movable());
            let mut placed = Vec::new();
            let mut remaining = 1u64 << chunk.order;
            for bi in 0..self.blocks.len() {
                if bi == index || !self.blocks[bi].online() || remaining == 0 {
                    continue;
                }
                for run in self.alloc_in_block(bi, remaining, chunk.owner, chunk.kind) {
                    placed.push((bi, run));
                    remaining = remaining.saturating_sub(run.pages());
                }
            }
            debug_assert_eq!(remaining, 0, "free space was pre-checked");
            journal.push((off, chunk, placed));
        }
        // Phase 2: commit — free sources, patch the owners' chunk lists.
        for (off, chunk, placed) in journal {
            self.free_in_block(index, ChunkRun::single(off, chunk.order));
            if let Some(info) = self.allocs.get_mut(&chunk.owner) {
                info.remove_first_chunk(index, off);
                for (bi, run) in placed {
                    info.push_run(bi, run);
                }
            }
        }
        MigrateOutcome::Done
    }

    /// Undoes a partial migration: frees every reserved destination
    /// chunk. With `break_rollback` set (negative tests only), the first
    /// reservation is instead leaked into its owner's chunk list without
    /// adjusting the page count — corruption [`MemoryManager::audit`]
    /// (and therefore Strict `mm.buddy-consistency`) must detect.
    fn rollback_migration(&mut self, journal: Vec<MigrationJournalEntry>) {
        let mut leak_one = self.break_rollback;
        for (_, chunk, placed) in journal {
            for (bi, run) in placed {
                let mut undo = Some(run);
                if leak_one {
                    leak_one = false;
                    if let Some(info) = self.allocs.get_mut(&chunk.owner) {
                        info.push_run(bi, ChunkRun { count: 1, ..run });
                    }
                    undo = run.rest();
                }
                if let Some(run) = undo {
                    self.free_in_block(bi, run);
                }
            }
        }
    }

    /// External-fragmentation index of the on-line free memory, in `[0, 1]`:
    /// `1 - largest_free_chunk / min(free_pages, max_chunk)`. Zero while a
    /// max-order chunk is still available (or nothing is free); approaching
    /// one as free pages shatter into small chunks — the condition that
    /// makes migration-based off-lining fail with EAGAIN.
    pub fn fragmentation_index(&self) -> f64 {
        let mut free_total = 0u64;
        let mut largest_order: Option<u8> = None;
        for b in &self.settled_view().blocks {
            if !b.online() {
                continue;
            }
            free_total += b.free_pages();
            if let Some(o) = b.max_free_order() {
                largest_order = Some(largest_order.map_or(o, |c| c.max(o)));
            }
        }
        if free_total == 0 {
            return 0.0;
        }
        let largest = largest_order.map(|o| 1u64 << o).unwrap_or(0);
        let attainable = free_total.min(1 << MAX_ORDER);
        1.0 - largest as f64 / attainable as f64
    }

    /// Audits every block (buddy structure, chunk layout, per-kind
    /// counters) plus the allocation table: every chunk an allocation
    /// records must exist in its block with the right owner, and sum to
    /// the allocation's page count plus its deferred pages. The deferral
    /// books must list exactly the allocations with deferred pages, and
    /// the running totals must count those pages as free. With releases
    /// pending, the settled layout must pass the same audit.
    ///
    /// # Errors
    ///
    /// Returns every problem found, one description per entry.
    pub fn audit(&self) -> std::result::Result<(), Vec<String>> {
        let mut problems = self.audit_books();
        if problems.is_empty() && !self.deferred_ids.is_empty() {
            problems = self.settled_view().audit_books();
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// The checks behind [`MemoryManager::audit`] on the layout as it is.
    fn audit_books(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for b in &self.blocks {
            if let Err(e) = b.audit() {
                problems.push(e);
            }
        }
        for (id, info) in &self.allocs {
            let mut pages = 0u64;
            for &(bi, run) in &info.runs {
                for off in run.offsets() {
                    match self.blocks.get(bi).and_then(|b| b.chunk_at(off)) {
                        Some(c) if c.owner != *id => problems.push(format!(
                            "{id}: chunk at ({bi}, {off}) is owned by {}",
                            c.owner
                        )),
                        Some(c) if c.order != run.order => problems.push(format!(
                            "{id}: chunk at ({bi}, {off}) has order {} but its run order {}",
                            c.order, run.order
                        )),
                        Some(c) => pages += 1u64 << c.order,
                        None => problems.push(format!(
                            "{id}: recorded chunk at ({bi}, {off}) does not exist"
                        )),
                    }
                }
            }
            if pages != info.pages + info.deferred {
                problems.push(format!(
                    "{id}: chunks hold {pages} pages but the table records {} + {} deferred",
                    info.pages, info.deferred
                ));
            }
        }
        let mut listed = std::collections::HashSet::new();
        for id in &self.deferred_ids {
            if !listed.insert(*id) {
                problems.push(format!("{id} is listed as deferred more than once"));
            }
            if self.allocs.get(id).is_none_or(|a| a.deferred == 0) {
                problems.push(format!("{id} is listed as deferred but defers nothing"));
            }
        }
        let deferring = self.allocs.values().filter(|a| a.deferred > 0).count();
        if deferring != listed.len() {
            problems.push(format!(
                "{deferring} allocations defer pages but {} are listed",
                listed.len()
            ));
        }
        let (running, summed) = (self.meminfo(), self.meminfo_from_blocks());
        if running != summed {
            problems.push(format!(
                "running meminfo totals {running:?} disagree with the block sums {summed:?}"
            ));
        }
        problems
    }

    /// On-lines a previously off-lined block (the kernel's
    /// `online_pages()`). Returns the latency.
    ///
    /// # Errors
    ///
    /// [`GdError::NotFound`] / [`GdError::InvalidState`] for bad indices or
    /// an already on-line block.
    pub fn online_block(&mut self, index: usize) -> Result<SimTime> {
        self.settle();
        if index >= self.blocks.len() {
            return Err(GdError::NotFound(format!("memory block {index}")));
        }
        if self.blocks[index].online() {
            return Err(GdError::InvalidState(format!(
                "block {index} is already online"
            )));
        }
        self.set_block_online(index, true);
        let latency = self.latencies.online;
        self.stats.online_count += 1;
        self.stats
            .online_latency_us
            .record(latency.as_micros() as f64);
        self.stats.total_time += latency;
        Ok(latency)
    }

    /// Exports cumulative hotplug telemetry into `tele` under `scope`:
    /// offline/online event counters, per-errno failure tallies, migrated
    /// pages, total hotplug time, and current meminfo gauges.
    pub fn export_telemetry(&self, tele: &mut gd_obs::Telemetry, scope: &str) {
        let reg = &mut tele.registry;
        let s = &self.stats;
        reg.counter_add(&format!("{scope}.mm.offline_success"), s.offline_success);
        reg.counter_add(&format!("{scope}.mm.offline_ebusy"), s.offline_ebusy);
        reg.counter_add(&format!("{scope}.mm.offline_eagain"), s.offline_eagain);
        reg.counter_add(&format!("{scope}.mm.offline_pinned"), s.offline_pinned);
        reg.counter_add(&format!("{scope}.mm.offline_kernel"), s.offline_kernel);
        reg.counter_add(&format!("{scope}.mm.rollbacks"), s.rollbacks);
        reg.counter_add(&format!("{scope}.mm.online_count"), s.online_count);
        reg.counter_add(&format!("{scope}.mm.migrated_pages"), s.migrated_pages);
        reg.counter_add(
            &format!("{scope}.mm.hotplug_time_us"),
            s.total_time.as_micros(),
        );
        let info = self.meminfo();
        reg.gauge_set(&format!("{scope}.mm.free_pages"), info.free_pages as f64);
        reg.gauge_set(&format!("{scope}.mm.used_pages"), info.used_pages as f64);
        reg.gauge_set(
            &format!("{scope}.mm.offline_pages"),
            info.offline_pages as f64,
        );
        reg.gauge_set(
            &format!("{scope}.mm.offline_blocks"),
            self.offline_block_count() as f64,
        );
        // Per-site fault counters; a missing or inactive injector
        // exports nothing, keeping faultless telemetry byte-identical.
        if let Some(f) = &self.faults {
            f.export_telemetry(tele, scope);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> MemoryManager {
        MemoryManager::new(MmConfig::small_test()).unwrap()
    }

    #[test]
    fn fresh_manager_accounting() {
        let m = mm();
        assert_eq!(m.block_count(), 16);
        let info = m.meminfo();
        assert_eq!(info.total_pages, 65_536); // 256 MB / 4 KB
        assert_eq!(info.free_pages, info.total_pages);
        assert_eq!(info.offline_pages, 0);
        assert_eq!(info.free_fraction(), 1.0);
    }

    #[test]
    fn allocate_and_free_roundtrip() {
        let mut m = mm();
        let id = m.allocate(10_000, PageKind::UserMovable).unwrap();
        let info = m.meminfo();
        assert_eq!(info.used_pages, 10_000);
        assert_eq!(m.pages_of(id), 10_000);
        m.free(id).unwrap();
        assert_eq!(m.meminfo().used_pages, 0);
    }

    #[test]
    fn allocation_packs_low_blocks_first() {
        let mut m = mm();
        m.allocate(4096, PageKind::UserMovable).unwrap(); // exactly one block
        assert!(m.block_info(0).unwrap().used_pages > 0);
        assert_eq!(m.block_info(15).unwrap().used_pages, 0);
    }

    #[test]
    fn oom_when_exceeding_capacity() {
        let mut m = mm();
        let err = m.allocate(1 << 30, PageKind::UserMovable).unwrap_err();
        assert!(matches!(err, GdError::OutOfMemory { .. }));
        // Nothing leaked.
        assert_eq!(m.meminfo().used_pages, 0);
    }

    #[test]
    fn offline_free_block_succeeds_with_table3_latency() {
        let mut m = mm();
        let r = m.offline_block(15).unwrap().unwrap();
        assert_eq!(r.migrated_pages, 0);
        assert_eq!(r.latency.as_micros(), 1_580);
        assert_eq!(m.offline_block_count(), 1);
        let info = m.meminfo();
        assert_eq!(info.offline_pages, 4096);
        assert_eq!(info.total_pages, 61_440);
    }

    #[test]
    fn offline_unmovable_block_is_ebusy() {
        let mut m = mm();
        // Kernel pages land in block 0.
        m.allocate(100, PageKind::KernelUnmovable).unwrap();
        let fail = m.offline_block(0).unwrap().unwrap_err();
        assert_eq!(fail.errno, OfflineErrno::Busy);
        assert_eq!(fail.latency.as_micros(), 6);
        assert!(m.block_info(0).unwrap().online);
        assert_eq!(m.stats.offline_ebusy, 1);
    }

    #[test]
    fn offline_with_movable_pages_migrates() {
        let mut m = mm();
        let id = m.allocate(2000, PageKind::UserMovable).unwrap();
        assert!(m.block_info(0).unwrap().used_pages > 0);
        let r = m.offline_block(0).unwrap().unwrap();
        assert_eq!(r.migrated_pages, 2000);
        assert!(r.latency > HotplugLatencies::default().offline_success);
        // Data still fully allocated, now elsewhere.
        assert_eq!(m.pages_of(id), 2000);
        assert_eq!(m.meminfo().used_pages, 2000);
        assert!(!m.block_info(0).unwrap().online);
    }

    #[test]
    fn offline_without_space_is_eagain() {
        let mut m = mm();
        // Fill almost everything so migration has nowhere to go.
        let total = m.meminfo().total_pages;
        m.allocate(total - 100, PageKind::UserMovable).unwrap();
        let fail = m.offline_block(0).unwrap().unwrap_err();
        assert_eq!(fail.errno, OfflineErrno::Again);
        assert_eq!(fail.latency.as_micros(), 4_370);
        assert_eq!(m.stats.offline_eagain, 1);
    }

    #[test]
    fn online_roundtrip() {
        let mut m = mm();
        m.offline_block(3).unwrap().unwrap();
        let lat = m.online_block(3).unwrap();
        assert_eq!(lat.as_micros(), 3_440);
        assert!(m.block_info(3).unwrap().online);
        // Double online is a caller bug.
        assert!(m.online_block(3).is_err());
    }

    #[test]
    fn offline_blocks_excluded_from_allocation() {
        let mut m = mm();
        for i in 8..16 {
            m.offline_block(i).unwrap().unwrap();
        }
        let info = m.meminfo();
        assert_eq!(info.total_pages, 32_768);
        // Can still allocate up to the on-line half.
        assert!(m.allocate(32_768, PageKind::UserMovable).is_ok());
        assert!(m.allocate(1, PageKind::UserMovable).is_err());
    }

    #[test]
    fn movablecore_keeps_kernel_out_of_movable_zone() {
        let cfg = MmConfig {
            movablecore_bytes: Some(128 << 20), // top 8 of 16 blocks
            unmovable_leak_prob: 0.0,
            ..MmConfig::small_test()
        };
        let mut m = MemoryManager::new(cfg).unwrap();
        // A huge kernel allocation only uses the lower half.
        m.allocate(20_000, PageKind::KernelUnmovable).unwrap();
        for i in 8..16 {
            assert!(m.block_info(i).unwrap().removable, "block {i} polluted");
        }
        // And it cannot exceed the non-movable zone.
        let err = m.allocate(20_000, PageKind::KernelUnmovable).unwrap_err();
        assert!(matches!(err, GdError::OutOfMemory { .. }));
    }

    #[test]
    fn shrink_frees_pages_lifo() {
        let mut m = mm();
        let id = m.allocate(4096, PageKind::UserMovable).unwrap();
        let freed = m.shrink(id, 1000).unwrap();
        assert!(freed >= 1000);
        assert_eq!(m.pages_of(id), 4096 - freed);
        assert_eq!(m.meminfo().used_pages, 4096 - freed);
    }

    /// The split-push-pop loop that `settle` replaced: pop the last chunk;
    /// if freeing it whole would overshoot, split it into buddy halves,
    /// push both back and retry; otherwise free it.
    fn reference_shrink(m: &mut MemoryManager, id: AllocationId, pages: u64) -> u64 {
        let info = m.allocs.get_mut(&id).expect("live allocation");
        let mut chunks: Vec<(usize, u32)> = info.chunks().collect();
        let mut freed = 0u64;
        while freed < pages {
            let Some((bi, off)) = chunks.pop() else {
                break;
            };
            let order = m.blocks[bi].chunk_at(off).expect("recorded chunk").order;
            if freed + (1u64 << order) > pages && order > 0 {
                let (lo, hi) = m.blocks[bi].split_chunk(off);
                chunks.push((bi, lo));
                chunks.push((bi, hi));
                continue;
            }
            let chunk = m.blocks[bi].free_chunk(off);
            freed += 1u64 << chunk.order;
            info.pages = info.pages.saturating_sub(1u64 << chunk.order);
        }
        info.runs.clear();
        for (bi, off) in chunks {
            let order = m.blocks[bi].chunk_at(off).expect("kept chunk").order;
            info.push_run(bi, ChunkRun::single(off, order));
        }
        if info.runs.is_empty() {
            m.allocs.remove(&id);
        }
        m.online_free += freed;
        freed
    }

    /// The chunk list of allocation `id`, one `(block, offset)` per chunk.
    fn chunk_seq(m: &MemoryManager, id: AllocationId) -> Vec<(usize, u32)> {
        m.allocs[&id].chunks().collect()
    }

    #[test]
    fn shrink_matches_split_reference_model() {
        const KINDS: [PageKind; 3] = [
            PageKind::UserMovable,
            PageKind::KernelUnmovable,
            PageKind::Pinned,
        ];
        let mut trims = 0u32;
        for seed in 0..8u64 {
            let mut rng = component_rng(seed, "shrink-differential");
            let mut fast = mm();
            let mut reference = mm();
            let mut live: Vec<AllocationId> = Vec::new();
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                match rng.gen_range(0u32..10) {
                    0..=2 => {
                        let pages = rng.gen_range(1u64..6000);
                        let kind = KINDS[rng.gen_range(0usize..3)];
                        let a = fast.allocate(pages, kind);
                        let b = reference.allocate(pages, kind);
                        assert_eq!(a.is_ok(), b.is_ok(), "{ctx}: allocate");
                        if let (Ok(a), Ok(b)) = (a, b) {
                            assert_eq!(a, b, "{ctx}: allocation ids");
                            live.push(a);
                        }
                    }
                    3 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        fast.free(id).unwrap();
                        reference.free(id).unwrap();
                    }
                    4 if !live.is_empty() => {
                        let id = live[rng.gen_range(0..live.len())];
                        let pages = rng.gen_range(1u64..2000);
                        let a = fast.grow(id, pages);
                        let b = reference.grow(id, pages);
                        assert_eq!(a.is_ok(), b.is_ok(), "{ctx}: grow");
                    }
                    _ if !live.is_empty() => {
                        let at = rng.gen_range(0..live.len());
                        let id = live[at];
                        let held = fast.pages_of(id);
                        // Mostly partial shrinks; now and then one that
                        // asks for more than the allocation holds.
                        let pages = rng.gen_range(1u64..held + held / 8 + 2);
                        let before = chunk_seq(&fast, id);
                        let a = fast.shrink(id, pages).unwrap();
                        fast.settle();
                        let b = reference_shrink(&mut reference, id, pages);
                        assert_eq!(a, b, "{ctx}: freed count");
                        match fast.allocs.get(&id) {
                            Some(_) if !before.starts_with(&chunk_seq(&fast, id)) => trims += 1,
                            Some(_) => {}
                            None => {
                                live.swap_remove(at);
                            }
                        }
                    }
                    _ => {}
                }
                assert_eq!(fast.allocs, reference.allocs, "{ctx}: chunk lists");
                assert_eq!(fast.blocks, reference.blocks, "{ctx}: blocks");
                assert_eq!(fast.audit(), Ok(()), "{ctx}: audit");
                assert_eq!(reference.audit(), Ok(()), "{ctx}: reference audit");
            }
        }
        assert!(trims > 100, "only {trims} shrinks trimmed a chunk");
    }

    /// KSM releases a scan's merged frames with one shrink by their sum
    /// instead of one shrink per content: the two must leave the same
    /// manager behind, down to the chunk lists and the buddy free lists.
    #[test]
    fn split_shrinks_match_one_shrink_by_their_sum() {
        let mut partial_batches = 0u32;
        for seed in 0..8u64 {
            let mut rng = component_rng(seed, "shrink-batching");
            let mut split = mm();
            let mut summed = mm();
            let mut live: Vec<AllocationId> = Vec::new();
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                match rng.gen_range(0u32..10) {
                    0..=2 => {
                        let pages = rng.gen_range(1u64..6000);
                        let a = split.allocate(pages, PageKind::UserMovable);
                        let b = summed.allocate(pages, PageKind::UserMovable);
                        assert_eq!(a.is_ok(), b.is_ok(), "{ctx}: allocate");
                        if let (Ok(a), Ok(_)) = (a, b) {
                            live.push(a);
                        }
                    }
                    3 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        split.free(id).unwrap();
                        summed.free(id).unwrap();
                    }
                    4 if !live.is_empty() => {
                        let id = live[rng.gen_range(0..live.len())];
                        let pages = rng.gen_range(1u64..2000);
                        let a = split.grow(id, pages);
                        let b = summed.grow(id, pages);
                        assert_eq!(a.is_ok(), b.is_ok(), "{ctx}: grow");
                    }
                    _ if !live.is_empty() => {
                        let at = rng.gen_range(0..live.len());
                        let id = live[at];
                        let held = split.pages_of(id);
                        // A few counts that mostly fit in the allocation;
                        // now and then their sum asks for more than it holds.
                        let counts: Vec<u64> = (0..rng.gen_range(1usize..6))
                            .map(|_| rng.gen_range(1u64..held / 3 + 2))
                            .collect();
                        let mut freed_split = 0;
                        for &n in &counts {
                            // Once an earlier call empties the allocation,
                            // the later ones find nothing to shrink.
                            let freed = split.shrink(id, n);
                            split.settle();
                            match freed {
                                Ok(freed) => freed_split += freed,
                                Err(GdError::NotFound(_)) => break,
                                Err(e) => panic!("{ctx}: {e}"),
                            }
                        }
                        let freed_summed = summed.shrink(id, counts.iter().sum()).unwrap();
                        summed.settle();
                        assert_eq!(freed_split, freed_summed, "{ctx}: freed total");
                        if counts.len() > 1 && split.pages_of(id) > 0 {
                            partial_batches += 1;
                        }
                        if split.pages_of(id) == 0 {
                            live.swap_remove(at);
                        }
                    }
                    _ => {}
                }
                assert_eq!(split.allocs, summed.allocs, "{ctx}: chunk lists");
                assert_eq!(split.blocks, summed.blocks, "{ctx}: blocks");
                assert_eq!(split.meminfo(), summed.meminfo(), "{ctx}: meminfo");
                assert_eq!(summed.audit(), Ok(()), "{ctx}: audit");
            }
        }
        assert!(
            partial_batches > 100,
            "only {partial_batches} multi-count shrinks left pages behind"
        );
    }

    /// `meminfo()` reads running totals; after every kind of block
    /// mutation they must equal the per-block sums.
    #[test]
    fn running_meminfo_matches_block_sums() {
        use gd_faults::{FaultPlan, FaultTrigger};
        const KINDS: [PageKind; 3] = [
            PageKind::UserMovable,
            PageKind::UserMovable,
            PageKind::KernelUnmovable,
        ];
        let (mut migrations, mut onlines) = (0u64, 0u64);
        let mut rollbacks = 0u64;
        for seed in 0..8u64 {
            let mut rng = component_rng(seed, "meminfo-running-totals");
            let mut m = mm();
            m.set_fault_injector(
                FaultPlan::none()
                    .with(FaultSite::MigrationAbort, FaultTrigger::Prob(0.3))
                    .build(seed),
            );
            let mut live: Vec<AllocationId> = Vec::new();
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                match rng.gen_range(0u32..12) {
                    0..=2 => {
                        let kind = KINDS[rng.gen_range(0usize..3)];
                        if let Ok(id) = m.allocate(rng.gen_range(1u64..5000), kind) {
                            live.push(id);
                        }
                    }
                    3 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        m.free(id).unwrap();
                    }
                    4 if !live.is_empty() => {
                        let id = live[rng.gen_range(0..live.len())];
                        let _ = m.grow(id, rng.gen_range(1u64..2000));
                    }
                    5 if !live.is_empty() => {
                        let at = rng.gen_range(0..live.len());
                        let id = live[at];
                        m.shrink(id, rng.gen_range(1u64..3000)).unwrap();
                        if m.pages_of(id) == 0 {
                            live.swap_remove(at);
                        }
                    }
                    6..=8 => {
                        let index = rng.gen_range(0..m.block_count());
                        if m.blocks[index].online() {
                            if let Ok(report) = m.offline_block(index).unwrap() {
                                migrations += u64::from(report.migrated_pages > 0);
                            }
                        }
                    }
                    9 => {
                        let index = rng.gen_range(0..m.block_count());
                        if !m.blocks[index].online() {
                            m.online_block(index).unwrap();
                            onlines += 1;
                        }
                    }
                    _ => {}
                }
                assert_eq!(m.meminfo(), m.meminfo_from_blocks(), "{ctx}: meminfo");
                let offline = m.blocks.iter().filter(|b| !b.online()).count();
                assert_eq!(m.offline_block_count(), offline, "{ctx}: offline blocks");
                assert_eq!(m.audit(), Ok(()), "{ctx}: audit");
            }
            rollbacks += m.stats.rollbacks;
        }
        assert!(migrations > 20, "only {migrations} migrating off-linings");
        assert!(rollbacks > 20, "only {rollbacks} migration rollbacks");
        assert!(onlines > 20, "only {onlines} on-linings");
    }

    /// A manager whose blocks keep every chunk in B-trees: the layout the
    /// free bitmap and the chunk slot table replaced.
    fn all_btree_manager(cfg: MmConfig) -> MemoryManager {
        let mut m = MemoryManager::new(cfg).unwrap();
        let pages = m.block_pages;
        for b in &mut m.blocks {
            *b = MemoryBlock::all_btrees(b.index(), pages);
        }
        m
    }

    /// Every chunk of a block with its metadata, ascending.
    fn chunk_list(b: &MemoryBlock) -> Vec<(u32, Chunk)> {
        b.chunk_offsets()
            .into_iter()
            .map(|off| (off, *b.chunk_at(off).expect("listed chunk exists")))
            .collect()
    }

    /// Whether some allocation lists a run of several chunks in block
    /// `index` with other runs before and after it.
    fn holds_inner_run(m: &MemoryManager, index: usize) -> bool {
        m.allocs.values().any(|info| {
            let n = info.runs.len();
            info.runs
                .iter()
                .enumerate()
                .any(|(at, &(bi, run))| bi == index && run.count > 1 && at > 0 && at + 1 < n)
        })
    }

    /// The flat max-order stores and the run-length chunk lists must make
    /// every placement, split, coalesce, migration and rollback the B-tree
    /// layout with one list entry per chunk makes. Blocks of 1, 64 and 65
    /// max-order chunks put the bitmap's word edge inside, at and past a
    /// block's end. Coverage: grows that span blocks, settles that trim a
    /// max-order chunk above another of its run, frees of multi-chunk runs,
    /// and migrations out of a block holding a multi-chunk run in the
    /// middle of its owner's list.
    #[test]
    fn flat_max_order_stores_match_the_btree_reference() {
        use gd_faults::{FaultPlan, FaultTrigger};
        const KINDS: [PageKind; 4] = [
            PageKind::UserMovable,
            PageKind::UserMovable,
            PageKind::KernelUnmovable,
            PageKind::Pinned,
        ];
        let (mut trims, mut migrations, mut rollbacks, mut onlines) = (0u32, 0u64, 0u64, 0u32);
        let mut word_edge_hits = 0u32;
        let (mut spanning_grows, mut run_trims, mut run_frees, mut inner_migrations) =
            (0u32, 0u32, 0u32, 0u32);
        for (chunks_per_block, blocks) in [(1u64, 16u64), (64, 4), (65, 4)] {
            let block_bytes = chunks_per_block << (MAX_ORDER as u64 + 12);
            let cfg = MmConfig {
                capacity_bytes: blocks * block_bytes,
                block_bytes,
                movablecore_bytes: Some(blocks / 2 * block_bytes),
                unmovable_leak_prob: 0.05,
                transient_fail_prob: 0.1,
                seed: 3,
            };
            for seed in 0..4u64 {
                let mut rng = component_rng(seed, "flat-store-reference");
                let mut fast = MemoryManager::new(cfg).unwrap();
                let mut reference = all_btree_manager(cfg);
                for m in [&mut fast, &mut reference] {
                    m.set_fault_injector(
                        FaultPlan::none()
                            .with(FaultSite::MigrationAbort, FaultTrigger::Prob(0.3))
                            .build(seed),
                    );
                }
                let block_pages = fast.block_pages();
                let mut live: Vec<AllocationId> = Vec::new();
                for step in 0..250 {
                    let ctx = format!("{chunks_per_block}-chunk blocks, seed {seed} step {step}");
                    match rng.gen_range(0u32..12) {
                        0..=2 => {
                            let pages = rng.gen_range(1..block_pages * 3 / 2);
                            let kind = KINDS[rng.gen_range(0usize..KINDS.len())];
                            let a = fast.allocate(pages, kind);
                            let b = reference.allocate(pages, kind);
                            assert_eq!(a.is_ok(), b.is_ok(), "{ctx}: allocate");
                            if let (Ok(a), Ok(_)) = (a, b) {
                                live.push(a);
                            }
                        }
                        3 if !live.is_empty() => {
                            let id = live.swap_remove(rng.gen_range(0..live.len()));
                            run_frees +=
                                u32::from(fast.allocs[&id].runs.iter().any(|r| r.1.count > 1));
                            fast.free(id).unwrap();
                            reference.free(id).unwrap();
                        }
                        4 if !live.is_empty() => {
                            let id = live[rng.gen_range(0..live.len())];
                            let pages = rng.gen_range(1..block_pages / 2 + 2);
                            let held = chunk_seq(&fast, id).len();
                            let a = fast.grow(id, pages);
                            let b = reference.grow(id, pages);
                            assert_eq!(a.is_ok(), b.is_ok(), "{ctx}: grow");
                            let grown = chunk_seq(&fast, id);
                            if let Some(&(first, _)) = grown.get(held) {
                                spanning_grows +=
                                    u32::from(grown[held..].iter().any(|&(bi, _)| bi != first));
                            }
                        }
                        5 | 6 if !live.is_empty() => {
                            let at = rng.gen_range(0..live.len());
                            let id = live[at];
                            let held = fast.pages_of(id);
                            let pages = rng.gen_range(1..held + held / 8 + 2);
                            let before = chunk_seq(&fast, id);
                            let runs_before = fast.allocs[&id].runs.clone();
                            let a = fast.shrink(id, pages).unwrap();
                            let b = reference.shrink(id, pages).unwrap();
                            fast.settle();
                            reference.settle();
                            assert_eq!(a, b, "{ctx}: freed count");
                            match fast.allocs.get(&id) {
                                Some(_) if !before.starts_with(&chunk_seq(&fast, id)) => {
                                    trims += 1;
                                    // The kept pieces start where the
                                    // trimmed chunk did.
                                    let after = chunk_seq(&fast, id);
                                    let kept =
                                        before.iter().zip(&after).take_while(|(x, y)| x == y);
                                    let (bi, off) = after[kept.count()];
                                    run_trims += u32::from(runs_before.iter().any(|&(b, r)| {
                                        b == bi
                                            && r.order == MAX_ORDER
                                            && r.offset < off
                                            && off < r.chunk(r.count)
                                    }));
                                }
                                Some(_) => {}
                                None => {
                                    live.swap_remove(at);
                                }
                            }
                        }
                        7..=9 => {
                            let index = rng.gen_range(0..fast.block_count());
                            if fast.blocks[index].online() {
                                let inner = holds_inner_run(&fast, index);
                                let a = fast.offline_block(index).unwrap();
                                let b = reference.offline_block(index).unwrap();
                                assert_eq!(a, b, "{ctx}: offline outcome");
                                let migrated = a.is_ok_and(|r| r.migrated_pages > 0);
                                migrations += u64::from(migrated);
                                inner_migrations += u32::from(migrated && inner);
                            }
                        }
                        10 | 11 => {
                            let index = rng.gen_range(0..fast.block_count());
                            if !fast.blocks[index].online() {
                                let a = fast.online_block(index).unwrap();
                                let b = reference.online_block(index).unwrap();
                                assert_eq!(a, b, "{ctx}: online latency");
                                onlines += 1;
                            }
                        }
                        _ => {}
                    }
                    assert_eq!(
                        fast.allocs, reference.allocs,
                        "{ctx}: allocation chunk lists"
                    );
                    for (a, b) in fast.blocks.iter().zip(&reference.blocks) {
                        let i = a.index();
                        for o in 0..=MAX_ORDER {
                            assert_eq!(
                                a.free_offsets(o),
                                b.free_offsets(o),
                                "{ctx}: block {i} free chunks of order {o}"
                            );
                        }
                        assert_eq!(chunk_list(a), chunk_list(b), "{ctx}: block {i} chunks");
                        assert_eq!(a.info(), b.info(), "{ctx}: block {i} info");
                        word_edge_hits += u32::from(
                            a.chunk_at(64 << MAX_ORDER)
                                .is_some_and(|c| c.order == MAX_ORDER),
                        );
                    }
                    assert_eq!(fast.meminfo(), reference.meminfo(), "{ctx}: meminfo");
                    assert_eq!(fast.audit(), Ok(()), "{ctx}: audit");
                    assert_eq!(reference.audit(), Ok(()), "{ctx}: reference audit");
                }
                assert_eq!(
                    format!("{:?}", fast.stats),
                    format!("{:?}", reference.stats),
                    "{chunks_per_block}-chunk blocks, seed {seed}: hotplug stats"
                );
                rollbacks += fast.stats.rollbacks;
            }
        }
        assert!(trims > 50, "only {trims} shrinks trimmed a chunk");
        assert!(migrations > 20, "only {migrations} migrating off-linings");
        assert!(rollbacks > 10, "only {rollbacks} migration rollbacks");
        assert!(onlines > 20, "only {onlines} on-linings");
        assert!(
            word_edge_hits > 0,
            "no max-order chunk past the first bitmap word"
        );
        assert!(spanning_grows > 0, "no grow placed chunks in two blocks");
        assert!(run_trims > 0, "no settle trimmed a chunk inside a run");
        assert!(run_frees > 0, "no free released a multi-chunk run");
        assert!(
            inner_migrations > 0,
            "no migration emptied a block holding a run inside its owner's list"
        );
    }

    /// Asserts that two managers hold the same layout: every allocation's
    /// books, every block's chunks and free offsets per order, and audit.
    fn assert_same_layout(a: &MemoryManager, b: &MemoryManager, ctx: &str) {
        assert_eq!(a.allocs, b.allocs, "{ctx}: allocation books");
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            let i = x.index();
            for o in 0..=MAX_ORDER {
                assert_eq!(
                    x.free_offsets(o),
                    y.free_offsets(o),
                    "{ctx}: block {i} free chunks of order {o}"
                );
            }
            assert_eq!(chunk_list(x), chunk_list(y), "{ctx}: block {i} chunks");
        }
        assert_eq!(a.audit(), Ok(()), "{ctx}: eager audit");
        assert_eq!(b.audit(), Ok(()), "{ctx}: deferred audit");
    }

    /// Deferred release is exact: a manager that settles only where the
    /// code does answers every call as one that settles after every
    /// shrink, and holds the same layout whenever it has settled.
    #[test]
    fn deferred_release_matches_eager_shrinks() {
        use gd_faults::{FaultPlan, FaultTrigger};
        const KINDS: [PageKind; 3] = [
            PageKind::UserMovable,
            PageKind::UserMovable,
            PageKind::KernelUnmovable,
        ];
        let (mut trims, mut migrations, mut rollbacks, mut onlines) = (0u32, 0u64, 0u64, 0u32);
        let (mut shared_settles, mut gone_calls) = (0u32, 0u32);
        for (chunks_per_block, blocks) in [(1u64, 16u64), (64, 4), (65, 4)] {
            let block_bytes = chunks_per_block << (MAX_ORDER as u64 + 12);
            let cfg = MmConfig {
                capacity_bytes: blocks * block_bytes,
                block_bytes,
                movablecore_bytes: Some(blocks / 2 * block_bytes),
                unmovable_leak_prob: 0.05,
                transient_fail_prob: 0.1,
                seed: 5,
            };
            for seed in 0..4u64 {
                let mut rng = component_rng(seed, "deferred-release");
                let mut eager = MemoryManager::new(cfg).unwrap();
                let mut lazy = MemoryManager::new(cfg).unwrap();
                for m in [&mut eager, &mut lazy] {
                    m.set_fault_injector(
                        FaultPlan::none()
                            .with(FaultSite::MigrationAbort, FaultTrigger::Prob(0.3))
                            .build(seed),
                    );
                }
                let block_pages = eager.block_pages();
                let mut live: Vec<AllocationId> = Vec::new();
                let mut gone: Vec<AllocationId> = Vec::new();
                for step in 0..300 {
                    let ctx = format!("{chunks_per_block}-chunk blocks, seed {seed} step {step}");
                    let pending = lazy.deferred_ids.len();
                    let roll = if live.len() < 3 {
                        0
                    } else {
                        rng.gen_range(0u32..16)
                    };
                    let settles = match roll {
                        0 | 1 => {
                            let pages = rng.gen_range(1..block_pages / 2 + 2);
                            let kind = KINDS[rng.gen_range(0usize..KINDS.len())];
                            let a = eager.allocate(pages, kind);
                            let b = lazy.allocate(pages, kind);
                            assert_eq!(a, b, "{ctx}: allocate");
                            live.extend(a.ok());
                            true
                        }
                        2 => {
                            let id = live.swap_remove(rng.gen_range(0..live.len()));
                            assert_eq!(eager.free(id), lazy.free(id), "{ctx}: free");
                            true
                        }
                        3 => {
                            let id = live[rng.gen_range(0..live.len())];
                            let pages = rng.gen_range(1..block_pages / 4 + 2);
                            assert_eq!(eager.grow(id, pages), lazy.grow(id, pages), "{ctx}: grow");
                            true
                        }
                        4..=9 => {
                            let at = rng.gen_range(0..live.len());
                            let id = live[at];
                            let held = eager.pages_of(id);
                            let pages = rng.gen_range(1..held / 2 + 2);
                            let before = chunk_seq(&eager, id);
                            let a = eager.shrink(id, pages);
                            eager.settle();
                            assert_eq!(a, lazy.shrink(id, pages), "{ctx}: shrink");
                            match eager.allocs.get(&id) {
                                Some(_) if !before.starts_with(&chunk_seq(&eager, id)) => {
                                    trims += 1
                                }
                                Some(_) => {}
                                None => gone.push(live.swap_remove(at)),
                            }
                            false
                        }
                        10 if !gone.is_empty() => {
                            // An emptied allocation is gone for every call,
                            // settled or not.
                            let id = gone[rng.gen_range(0..gone.len())];
                            let a = eager.shrink(id, 1);
                            assert!(matches!(a, Err(GdError::NotFound(_))), "{ctx}: {a:?}");
                            assert_eq!(a, lazy.shrink(id, 1), "{ctx}: shrink emptied");
                            gone_calls += 1;
                            let settles = rng.gen_bool(0.5);
                            if settles {
                                assert_eq!(eager.grow(id, 1), lazy.grow(id, 1), "{ctx}: grow");
                            }
                            settles
                        }
                        11..=13 => {
                            let index = rng.gen_range(0..eager.block_count());
                            let a = eager.offline_block(index);
                            assert_eq!(a, lazy.offline_block(index), "{ctx}: offline");
                            if let Ok(Ok(report)) = a {
                                migrations += u64::from(report.migrated_pages > 0);
                            }
                            true
                        }
                        14 | 15 => {
                            let index = rng.gen_range(0..eager.block_count());
                            let a = eager.online_block(index);
                            assert_eq!(a, lazy.online_block(index), "{ctx}: online");
                            onlines += u32::from(a.is_ok());
                            true
                        }
                        _ => false,
                    };
                    assert_eq!(eager.meminfo(), lazy.meminfo(), "{ctx}: meminfo");
                    assert_eq!(
                        eager.offline_block_count(),
                        lazy.offline_block_count(),
                        "{ctx}: offline blocks"
                    );
                    for &id in live.iter().chain(&gone) {
                        assert_eq!(
                            eager.pages_of(id),
                            lazy.pages_of(id),
                            "{ctx}: pages of {id}"
                        );
                    }
                    if settles {
                        assert!(lazy.deferred_ids.is_empty(), "{ctx}: settled");
                        shared_settles += u32::from(pending > 1);
                        assert_same_layout(&eager, &lazy, &ctx);
                    }
                }
                assert_eq!(
                    format!("{:?}", eager.stats),
                    format!("{:?}", lazy.stats),
                    "{chunks_per_block}-chunk blocks, seed {seed}: hotplug stats"
                );
                rollbacks += eager.stats.rollbacks;
            }
        }
        assert!(trims > 50, "only {trims} shrinks trimmed a chunk");
        assert!(
            shared_settles > 50,
            "only {shared_settles} settles placed several shrinks"
        );
        assert!(
            gone_calls > 10,
            "only {gone_calls} calls on emptied allocations"
        );
        assert!(migrations > 20, "only {migrations} migrating off-linings");
        assert!(rollbacks > 10, "only {rollbacks} migration rollbacks");
        assert!(onlines > 20, "only {onlines} on-linings");
    }

    /// With releases pending, the `&self` layout readers answer as a
    /// settled copy does, and the audit checks the deferral books.
    #[test]
    fn unsettled_readers_answer_settled() {
        let mut m = mm();
        let singles: Vec<_> = (0..2000)
            .map(|_| m.allocate(1, PageKind::UserMovable).unwrap())
            .collect();
        for id in singles.iter().step_by(2) {
            m.free(*id).unwrap();
        }
        // Only fragments stay free; the big allocation holds every
        // max-order chunk.
        let big = m
            .allocate(m.meminfo().free_pages - 900, PageKind::UserMovable)
            .unwrap();
        let other = m.allocate(600, PageKind::UserMovable).unwrap();
        m.shrink(big, 3000).unwrap();
        m.shrink(other, 77).unwrap();
        m.shrink(big, 5000).unwrap();
        assert_eq!(m.deferred_ids, vec![big, other]);

        let mut settled = m.clone();
        settled.settle();
        let live: Vec<BlockInfo> = m.blocks.iter().map(|b| b.info()).collect();
        assert_ne!(live, settled.blocks(), "the releases must move the layout");
        assert_eq!(m.blocks(), settled.blocks());
        for i in 0..m.block_count() {
            assert_eq!(m.block_info(i).unwrap(), settled.block_info(i).unwrap());
        }
        assert!(settled.fragmentation_index() < 0.5);
        assert_eq!(m.fragmentation_index(), settled.fragmentation_index());
        assert_eq!(m.audit(), Ok(()));
        assert_eq!(settled.audit(), Ok(()));
        assert_eq!(m.meminfo(), settled.meminfo());
        assert_eq!(
            m.deferred_ids.len(),
            2,
            "readers leave the releases pending"
        );

        // Broken deferral books are caught before any settling.
        let mut listed_twice = m.clone();
        listed_twice.deferred_ids.push(other);
        assert!(listed_twice
            .audit()
            .is_err_and(|p| p.iter().any(|p| p.contains("more than once"))));
        let mut unlisted = m.clone();
        unlisted.deferred_ids.pop();
        assert!(unlisted.audit().is_err());
        let mut uncounted = m;
        uncounted.online_free -= 1;
        assert!(uncounted.audit().is_err());
    }

    #[test]
    fn grow_extends_allocation() {
        let mut m = mm();
        let id = m.allocate(100, PageKind::UserMovable).unwrap();
        m.grow(id, 50).unwrap();
        assert_eq!(m.pages_of(id), 150);
        m.free(id).unwrap();
        assert_eq!(m.meminfo().used_pages, 0);
    }

    #[test]
    fn fragmentation_index_reflects_shattering() {
        let mut m = mm();
        assert_eq!(m.fragmentation_index(), 0.0, "pristine memory");
        // Allocate many single pages, then free every other one: free
        // memory stays large but the largest chunk shrinks.
        let ids: Vec<_> = (0..2000)
            .map(|_| m.allocate(1, PageKind::UserMovable).unwrap())
            .collect();
        for id in ids.iter().step_by(2) {
            m.free(*id).unwrap();
        }
        let frag_some = m.fragmentation_index();
        assert!(frag_some >= 0.0);
        // Now consume all large chunks so only fragments remain.
        let total_free = m.meminfo().free_pages;
        let _big = m.allocate(total_free - 900, PageKind::UserMovable).unwrap();
        assert!(
            m.fragmentation_index() > frag_some,
            "shattered tail must raise the index"
        );
    }

    #[test]
    fn offline_failure_causes_are_structured() {
        let mut m = mm();
        m.allocate(100, PageKind::KernelUnmovable).unwrap();
        let fail = m.offline_block(0).unwrap().unwrap_err();
        assert_eq!(fail.cause, OfflineError::KernelBlock);
        assert_eq!(m.stats.offline_kernel, 1);
        assert_eq!(m.stats.offline_pinned, 0);

        let mut m2 = mm();
        m2.allocate(100, PageKind::Pinned).unwrap();
        let fail = m2.offline_block(0).unwrap().unwrap_err();
        assert_eq!(fail.cause, OfflineError::Pinned);
        assert_eq!(m2.stats.offline_pinned, 1);

        let mut m3 = mm();
        let total = m3.meminfo().total_pages;
        m3.allocate(total - 100, PageKind::UserMovable).unwrap();
        let fail = m3.offline_block(0).unwrap().unwrap_err();
        assert_eq!(fail.cause, OfflineError::MigrationAborted);
    }

    #[test]
    fn injected_pin_fault_forces_ebusy_on_a_free_block() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let mut m = mm();
        m.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::OfflinePinned, FaultTrigger::OneShot(1))
                .build(m.config().seed),
        );
        let fail = m.offline_block(15).unwrap().unwrap_err();
        assert_eq!(fail.errno, OfflineErrno::Busy);
        assert_eq!(fail.cause, OfflineError::Pinned);
        assert_eq!(m.stats.offline_pinned, 1);
        assert!(m.block_info(15).unwrap().online, "block must stay online");
        // The one-shot is spent: the next attempt succeeds.
        assert!(m.offline_block(15).unwrap().is_ok());
    }

    #[test]
    fn migration_abort_rolls_back_exactly() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let mut m = mm();
        let id = m.allocate(2000, PageKind::UserMovable).unwrap();
        let before = m.meminfo();
        // Abort all three migration attempts → EAGAIN, fully rolled back.
        m.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::MigrationAbort, FaultTrigger::Prob(1.0))
                .build(1),
        );
        let fail = m.offline_block(0).unwrap().unwrap_err();
        assert_eq!(fail.errno, OfflineErrno::Again);
        assert_eq!(fail.cause, OfflineError::MigrationAborted);
        assert_eq!(m.stats.rollbacks, 3, "all three attempts rolled back");
        assert_eq!(m.meminfo(), before, "rollback must restore accounting");
        assert_eq!(m.pages_of(id), 2000);
        m.audit().expect("rollback leaves a consistent manager");
        // Data never moved: block 0 still holds the pages.
        assert!(m.block_info(0).unwrap().used_pages > 0);
    }

    #[test]
    fn broken_rollback_is_caught_by_audit() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let mut m = mm();
        m.allocate(2000, PageKind::UserMovable).unwrap();
        m.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::MigrationAbort, FaultTrigger::OneShot(1))
                .build(1),
        );
        m.debug_break_rollback();
        // First attempt aborts with the broken rollback; a later attempt
        // may still succeed, but the leaked chunk remains.
        let _ = m.offline_block(0).unwrap();
        let problems = m.audit().expect_err("leaked reservation must be caught");
        assert!(
            problems.iter().any(|p| p.contains("pages but the table")),
            "expected a page-sum mismatch, got: {problems:?}"
        );
    }

    #[test]
    fn slow_migration_fault_inflates_latency_only() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let mut m = mm();
        m.allocate(2000, PageKind::UserMovable).unwrap();
        let mut plain = mm();
        plain.allocate(2000, PageKind::UserMovable).unwrap();
        m.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::MigrationSlow, FaultTrigger::Prob(1.0))
                .build(1),
        );
        let slow = m.offline_block(0).unwrap().unwrap();
        let fast = plain.offline_block(0).unwrap().unwrap();
        assert_eq!(slow.migrated_pages, fast.migrated_pages);
        assert!(slow.latency > fast.latency);
        assert_eq!(m.meminfo(), plain.meminfo(), "placement identical");
    }

    #[test]
    fn inactive_injector_is_byte_identical_to_none() {
        use gd_faults::FaultPlan;
        let drive = |m: &mut MemoryManager| {
            let a = m.allocate(3000, PageKind::UserMovable).unwrap();
            m.offline_block(0).unwrap().unwrap();
            m.shrink(a, 500).unwrap();
            m.offline_block(1).unwrap().unwrap();
            m.online_block(0).unwrap();
            m.meminfo()
        };
        let mut with_inactive = mm();
        with_inactive.set_fault_injector(FaultPlan::uniform(0.0).build(9));
        let mut without = mm();
        assert_eq!(drive(&mut with_inactive), drive(&mut without));
        assert_eq!(with_inactive.stats.rollbacks, 0);
        let mut ta = gd_obs::Telemetry::new();
        let mut tb = gd_obs::Telemetry::new();
        with_inactive.export_telemetry(&mut ta, "mm");
        without.export_telemetry(&mut tb, "mm");
        assert_eq!(ta.render_jsonl("p"), tb.render_jsonl("p"));
    }

    #[test]
    fn removable_flag_tracks_contents() {
        let mut m = mm();
        let kid = m.allocate(10, PageKind::KernelUnmovable).unwrap();
        assert!(!m.block_info(0).unwrap().removable);
        m.free(kid).unwrap();
        assert!(m.block_info(0).unwrap().removable);
    }
}
