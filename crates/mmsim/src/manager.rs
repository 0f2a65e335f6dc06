//! The physical-memory manager: allocation across blocks, page migration,
//! and the memory on/off-lining operations GreenDIMM drives.

use crate::block::{BlockInfo, Chunk, MemoryBlock};
use crate::buddy::MAX_ORDER;
use crate::frame::{
    AllocationId, OfflineErrno, OfflineError, OfflineFailure, OfflineReport, PageKind, PAGE_BYTES,
};
use crate::latency::HotplugLatencies;
use gd_faults::{FaultInjector, FaultSite, MIGRATION_SLOWDOWN};
use gd_types::rng::{component_rng, StdRng};
use gd_types::stats::Summary;
use gd_types::{GdError, Result, SimTime};
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
    /// The paper's SPEC platform: 64 GB with 128 MB blocks, no movablecore.
    pub fn spec_64gb() -> Self {
        MmConfig {
            capacity_bytes: 64 << 30,
            block_bytes: 128 << 20,
            movablecore_bytes: None,
            unmovable_leak_prob: 0.02,
            transient_fail_prob: 0.25,
            seed: 1,
        }
    }

    /// The paper's VM platform: 256 GB with 1 GB blocks (§6.3).
    pub fn vm_256gb() -> Self {
        MmConfig {
            capacity_bytes: 256 << 30,
            block_bytes: 1 << 30,
            movablecore_bytes: None,
            unmovable_leak_prob: 0.02,
            transient_fail_prob: 0.25,
            seed: 1,
        }
    }

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

    /// Returns a copy with a different block size.
    pub fn with_block_bytes(mut self, bytes: u64) -> Self {
        self.block_bytes = bytes;
        self
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

    /// Used fraction of *installed* memory (the paper's "utilization of
    /// memory capacity").
    pub fn utilization_of_installed(&self) -> f64 {
        if self.installed_pages == 0 {
            0.0
        } else {
            self.used_pages as f64 / self.installed_pages as f64
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

#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
struct AllocInfo {
    kind: PageKind,
    /// (block index, chunk offset) pairs, in allocation order.
    chunks: Vec<(usize, u32)>,
    pages: u64,
}

/// One journalled migration step: the source chunk's offset and
/// metadata plus the `(block, offset)` destinations reserved for it.
type MigrationJournalEntry = (u32, Chunk, Vec<(usize, u32)>);

/// The simulated physical-memory manager.
#[derive(Debug)]
pub struct MemoryManager {
    cfg: MmConfig,
    blocks: Vec<MemoryBlock>,
    block_pages: u32,
    /// First block of ZONE_MOVABLE (== blocks.len() when not configured).
    movable_zone_start: usize,
    allocs: HashMap<AllocationId, AllocInfo>,
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
            blocks: (0..n_blocks)
                .map(|i| MemoryBlock::new(i, block_pages as u32))
                .collect(),
            block_pages: block_pages as u32,
            movable_zone_start,
            allocs: HashMap::new(),
            next_id: 1,
            rng: component_rng(cfg.seed, "mmsim"),
            latencies: HotplugLatencies::default(),
            faults: None,
            break_rollback: false,
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
        self.blocks
            .get(index)
            .map(|b| b.info())
            .ok_or_else(|| GdError::NotFound(format!("memory block {index}")))
    }

    /// Snapshots of every block.
    pub fn blocks(&self) -> Vec<BlockInfo> {
        self.blocks.iter().map(|b| b.info()).collect()
    }

    /// Number of off-line blocks.
    pub fn offline_block_count(&self) -> usize {
        self.blocks.iter().filter(|b| !b.online()).count()
    }

    /// A `/proc/meminfo` snapshot.
    pub fn meminfo(&self) -> MemInfo {
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
        MemInfo {
            total_pages: total,
            free_pages: free,
            used_pages: used,
            offline_pages: offline,
            installed_pages: total + offline,
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
        let id = AllocationId(self.next_id);
        let eligible = self.eligible_blocks(kind);
        let free_total: u64 = eligible.iter().map(|i| self.blocks[*i].free_pages()).sum();
        if free_total < pages {
            return Err(GdError::OutOfMemory {
                requested_pages: pages,
                free_pages: free_total,
            });
        }
        let mut remaining = pages;
        let mut placed: Vec<(usize, u32)> = Vec::new();
        for bi in eligible {
            if remaining == 0 {
                break;
            }
            let chunks = self.blocks[bi].alloc_chunks(remaining, id, kind);
            for (off, order) in chunks {
                placed.push((bi, off));
                remaining = remaining.saturating_sub(1 << order);
            }
        }
        debug_assert_eq!(remaining, 0, "free accounting said space existed");
        self.next_id += 1;
        self.allocs.insert(
            id,
            AllocInfo {
                kind,
                chunks: placed,
                pages,
            },
        );
        Ok(id)
    }

    /// Frees an entire allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an unknown id.
    pub fn free(&mut self, id: AllocationId) -> Result<()> {
        let info = self
            .allocs
            .remove(&id)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?;
        for (bi, off) in info.chunks {
            self.blocks[bi].free_chunk(off);
        }
        Ok(())
    }

    /// Shrinks an allocation by up to `pages` pages, returning the number
    /// of pages actually freed. Used by KSM when merging duplicate pages
    /// releases frames.
    ///
    /// Whole chunks are freed last-allocated first. When the next chunk
    /// holds more pages than are still wanted, only its top pages are
    /// freed ([`MemoryBlock::trim_chunk`]); its kept lower pages stay owned
    /// as aligned pieces, appended to the chunk list in ascending offset
    /// order. An allocation left without chunks is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an unknown id.
    pub fn shrink(&mut self, id: AllocationId, pages: u64) -> Result<u64> {
        let info = self
            .allocs
            .get_mut(&id)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?;
        let mut freed = 0u64;
        while freed < pages {
            let Some((bi, off)) = info.chunks.pop() else {
                break;
            };
            let order = self.blocks[bi]
                .chunk_at(off)
                .expect("alloc bookkeeping out of sync")
                .order;
            let need = pages - freed;
            let n = if need < 1u64 << order {
                // Freeing the whole chunk would overshoot: free its top
                // `need` pages and keep the rest.
                let kept = self.blocks[bi].trim_chunk(off, need as u32);
                info.chunks.extend(kept.map(|o| (bi, o)));
                need
            } else {
                self.blocks[bi].free_chunk(off);
                1u64 << order
            };
            freed += n;
            info.pages = info.pages.saturating_sub(n);
        }
        if info.chunks.is_empty() {
            self.allocs.remove(&id);
        }
        Ok(freed)
    }

    /// Grows an allocation by `pages` pages of its original kind.
    ///
    /// # Errors
    ///
    /// [`GdError::NotFound`] for an unknown id, [`GdError::OutOfMemory`] if
    /// space is insufficient.
    pub fn grow(&mut self, id: AllocationId, pages: u64) -> Result<()> {
        let kind = self
            .allocs
            .get(&id)
            .ok_or_else(|| GdError::NotFound(id.to_string()))?
            .kind;
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
            for (off, order) in self.blocks[bi].alloc_chunks(remaining, id, kind) {
                placed.push((bi, off));
                remaining = remaining.saturating_sub(1 << order);
            }
        }
        let info = self.allocs.get_mut(&id).expect("checked above");
        info.chunks.extend(placed);
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
            self.blocks[index].set_online(false);
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
        self.blocks[index].set_online(false);
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
        let free_elsewhere: u64 = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| *i != index && b.online())
            .map(|(_, b)| b.free_pages())
            .sum();
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
            let mut placed: Vec<(usize, u32)> = Vec::new();
            let mut remaining = 1u64 << chunk.order;
            for bi in 0..self.blocks.len() {
                if bi == index || !self.blocks[bi].online() || remaining == 0 {
                    continue;
                }
                for (noff, norder) in
                    self.blocks[bi].alloc_chunks(remaining, chunk.owner, chunk.kind)
                {
                    placed.push((bi, noff));
                    remaining = remaining.saturating_sub(1 << norder);
                }
            }
            debug_assert_eq!(remaining, 0, "free space was pre-checked");
            journal.push((off, chunk, placed));
        }
        // Phase 2: commit — free sources, patch the owners' chunk lists.
        for (off, chunk, placed) in journal {
            self.blocks[index].free_chunk(off);
            if let Some(info) = self.allocs.get_mut(&chunk.owner) {
                info.chunks.retain(|(bi, o)| !(*bi == index && *o == off));
                info.chunks.extend(placed);
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
            for (bi, noff) in placed {
                if leak_one {
                    leak_one = false;
                    if let Some(info) = self.allocs.get_mut(&chunk.owner) {
                        info.chunks.push((bi, noff));
                    }
                    continue;
                }
                self.blocks[bi].free_chunk(noff);
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
        for b in &self.blocks {
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
    /// the allocation's page count.
    ///
    /// # Errors
    ///
    /// Returns every problem found, one description per entry.
    pub fn audit(&self) -> std::result::Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for b in &self.blocks {
            if let Err(e) = b.audit() {
                problems.push(e);
            }
        }
        for (id, info) in &self.allocs {
            let mut pages = 0u64;
            for (bi, off) in &info.chunks {
                match self.blocks.get(*bi).and_then(|b| b.chunk_at(*off)) {
                    Some(c) if c.owner == *id => pages += 1u64 << c.order,
                    Some(c) => problems.push(format!(
                        "{id}: chunk at ({bi}, {off}) is owned by {}",
                        c.owner
                    )),
                    None => problems.push(format!(
                        "{id}: recorded chunk at ({bi}, {off}) does not exist"
                    )),
                }
            }
            if pages != info.pages {
                problems.push(format!(
                    "{id}: chunks hold {pages} pages but the table records {}",
                    info.pages
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// On-lines a previously off-lined block (the kernel's
    /// `online_pages()`). Returns the latency.
    ///
    /// # Errors
    ///
    /// [`GdError::NotFound`] / [`GdError::InvalidState`] for bad indices or
    /// an already on-line block.
    pub fn online_block(&mut self, index: usize) -> Result<SimTime> {
        if index >= self.blocks.len() {
            return Err(GdError::NotFound(format!("memory block {index}")));
        }
        if self.blocks[index].online() {
            return Err(GdError::InvalidState(format!(
                "block {index} is already online"
            )));
        }
        self.blocks[index].set_online(true);
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

    /// The split-push-pop loop that `shrink` replaced: pop the last chunk;
    /// if freeing it whole would overshoot, split it into buddy halves,
    /// push both back and retry; otherwise free it.
    fn reference_shrink(m: &mut MemoryManager, id: AllocationId, pages: u64) -> u64 {
        let info = m.allocs.get_mut(&id).expect("live allocation");
        let mut freed = 0u64;
        while freed < pages {
            let Some((bi, off)) = info.chunks.pop() else {
                break;
            };
            let order = m.blocks[bi].chunk_at(off).expect("recorded chunk").order;
            if freed + (1u64 << order) > pages && order > 0 {
                let (lo, hi) = m.blocks[bi].split_chunk(off);
                info.chunks.push((bi, lo));
                info.chunks.push((bi, hi));
                continue;
            }
            let chunk = m.blocks[bi].free_chunk(off);
            freed += 1u64 << chunk.order;
            info.pages = info.pages.saturating_sub(1u64 << chunk.order);
        }
        if info.chunks.is_empty() {
            m.allocs.remove(&id);
        }
        freed
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
                        let before = fast.allocs[&id].chunks.clone();
                        let a = fast.shrink(id, pages).unwrap();
                        let b = reference_shrink(&mut reference, id, pages);
                        assert_eq!(a, b, "{ctx}: freed count");
                        match fast.allocs.get(&id) {
                            Some(info) if !before.starts_with(&info.chunks) => trims += 1,
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
