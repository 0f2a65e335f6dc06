//! The GreenDIMM power-management daemon: `memory_usage_monitor()` +
//! `block_selector()` + deep power-down register programming (§4.2).

use crate::config::GreenDimmConfig;
use crate::groupmap::{swap_adjacent_pairs, GroupMap};
use crate::registers::{GroupRegisterFile, DEEP_PD_EXIT};
use gd_faults::{FaultInjector, FaultSite, RetryPolicy, MRS_ACK_DELAY};
use gd_mmsim::{MemoryManager, OfflineErrno};
use gd_types::bits;
use gd_types::ids::SubArrayGroup;
use gd_types::rng::{component_rng, StdRng};
use gd_types::{Result, SimTime};

/// Backoff/quarantine policy for deep-PD entry failures.
const RETRY: RetryPolicy = RetryPolicy::paper_default();

/// Maximum off-lining attempts per monitor tick.
const MAX_ATTEMPTS_PER_TICK: u32 = 16;

/// Counters the daemon accumulates over a run (Tables 2–3, Fig. 8, and the
/// overhead model behind Figs. 7 and 11).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaemonStats {
    /// Monitor ticks executed.
    pub ticks: u64,
    /// Successful block off-linings.
    pub offline_events: u64,
    /// Successful block on-linings.
    pub online_events: u64,
    /// Off-lining failures with EBUSY.
    pub failures_ebusy: u64,
    /// Off-lining failures with EAGAIN.
    pub failures_eagain: u64,
    /// Demand-driven on-lining passes ([`Daemon::handle_allocation_stall`]),
    /// counted even when no block could be woken.
    pub allocation_stalls: u64,
    /// Allocation stalls that on-lined nothing (every candidate already
    /// on-line, quarantined, or failed).
    pub stalls_unserved: u64,
    /// Deep power-down entry NACKs (injected MRS rejections).
    pub deep_pd_nacks: u64,
    /// Re-attempts after a failure: deep-PD entries retried once a
    /// group's quarantine expired, plus buddy-wake retries.
    pub retries: u64,
    /// Deep-PD entries whose MRS ack arrived late (latency charged).
    pub mrs_ack_delays: u64,
    /// Transient buddy-wake failures (each one forced a retry).
    pub buddy_wake_failures: u64,
    /// Wall-clock time spent inside hotplug operations and deep power-down
    /// exits.
    pub hotplug_time: SimTime,
    /// Always 0; every monitor tick is simulated. Kept only because the
    /// `perfbench/` fleet digest reads it.
    pub replayed_ticks: u64,
}

impl DaemonStats {
    /// All off-lining failures.
    pub fn failures(&self) -> u64 {
        self.failures_ebusy + self.failures_eagain
    }

    /// All on/off-lining events (Table 2's metric).
    pub fn hotplug_events(&self) -> u64 {
        self.offline_events + self.online_events
    }
}

/// How much of its work the daemon actually ran. Kept out of
/// [`DaemonStats`] on purpose: an idle tick skipped by
/// [`Daemon::skip_idle_ticks`] counts in `DaemonStats::ticks` like a run
/// one, so the engines agree on `DaemonStats` and differ only here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonWork {
    /// Monitor ticks whose body ran.
    pub bodies: u64,
    /// Ticks that entered the off-lining pass.
    pub offline_passes: u64,
}

/// The free-page edges one monitor tick compares `meminfo` against.
#[derive(Debug, Clone, Copy)]
struct Floors {
    /// On-line free pages.
    free: u64,
    /// Above `off_floor + block_pages` free pages the tick off-lines.
    off_floor: u64,
    /// Below `on_floor` free pages the tick on-lines.
    on_floor: u64,
    /// Pages per memory block.
    block_pages: u64,
}

/// What one monitor tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Blocks off-lined.
    pub offlined: u32,
    /// Blocks on-lined.
    pub onlined: u32,
    /// Off-lining failures.
    pub failures: u32,
}

/// Per-group recovery state for deep power-down entry failures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupRecovery {
    /// Consecutive deep-PD entry NACKs (reset on success).
    pub consecutive_nacks: u32,
    /// No deep-PD entry is attempted before this time (exponential
    /// backoff from [`RetryPolicy`]).
    pub quarantined_until: SimTime,
    /// Permanently degraded: the group stays in shallow power-down for
    /// the rest of the run instead of oscillating on a flaky MRS path.
    pub degraded: bool,
}

impl GroupRecovery {
    /// Whether the group waits to retry deep power-down entry.
    fn retry_pending(&self) -> bool {
        self.consecutive_nacks > 0 && !self.degraded
    }
}

/// The daemon.
#[derive(Debug)]
pub struct Daemon {
    cfg: GreenDimmConfig,
    map: GroupMap,
    registers: GroupRegisterFile,
    rng: StdRng,
    /// Effective off threshold (== `cfg.off_thr` unless adaptive).
    current_off_thr: f64,
    /// Monitor ticks since the last failure or stall (for adaptive decay).
    quiet_ticks: u32,
    /// Optional fault injector (see `gd-faults`).
    faults: Option<FaultInjector>,
    /// Per-group recovery state, indexed by group.
    recovery: Vec<GroupRecovery>,
    /// Groups whose recovery record has a retry pending
    /// ([`GroupRecovery::retry_pending`]), kept in step by
    /// [`try_enter_deep_pd`](Self::try_enter_deep_pd), the one writer of
    /// the records.
    pending_retries: u32,
    /// Run statistics.
    pub stats: DaemonStats,
    /// Work counters.
    work: DaemonWork,
    /// Test hook: decide by the per-block and per-group scans the words
    /// replaced.
    #[cfg(test)]
    by_scan: bool,
    /// Test log: the block each off-lining attempt picked, in order.
    #[cfg(test)]
    picks: Vec<usize>,
    /// Test count: deep power-down entry attempts on powered groups.
    #[cfg(test)]
    entry_attempts: u64,
}

impl Daemon {
    /// Creates a daemon for the given block/group geometry.
    pub fn new(cfg: GreenDimmConfig, map: GroupMap) -> Self {
        Daemon {
            registers: GroupRegisterFile::new(map.groups()),
            rng: component_rng(cfg.seed, "greendimm-daemon"),
            current_off_thr: cfg.off_thr,
            quiet_ticks: 0,
            faults: None,
            recovery: vec![GroupRecovery::default(); map.groups() as usize],
            pending_retries: 0,
            cfg,
            map,
            stats: DaemonStats::default(),
            work: DaemonWork::default(),
            #[cfg(test)]
            by_scan: false,
            #[cfg(test)]
            picks: Vec::new(),
            #[cfg(test)]
            entry_attempts: 0,
        }
    }

    /// How much of its work the daemon actually ran.
    pub fn work(&self) -> DaemonWork {
        self.work
    }

    /// Installs a fault injector. An inactive plan (or none at all)
    /// leaves every decision byte-identical to a faultless build.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Recovery state of one group (`None` when out of range).
    pub fn recovery(&self, g: SubArrayGroup) -> Option<&GroupRecovery> {
        self.recovery.get(g.index())
    }

    /// Number of groups degraded to shallow power-down.
    pub fn degraded_groups(&self) -> u64 {
        self.recovery.iter().filter(|r| r.degraded).count() as u64
    }

    /// The effective off threshold (differs from the configured one only
    /// when [`GreenDimmConfig::adaptive_off_thr`] is on).
    ///
    /// [`GreenDimmConfig::adaptive_off_thr`]: crate::config::GreenDimmConfig::adaptive_off_thr
    pub fn effective_off_thr(&self) -> f64 {
        self.current_off_thr
    }

    /// Adaptive back-off: raise the reserve after trouble (off-lining
    /// failures or allocation stalls), decay toward the configured
    /// threshold after 30 quiet ticks.
    fn adapt(&mut self, had_trouble: bool) {
        if !self.cfg.adaptive_off_thr {
            return;
        }
        if had_trouble {
            self.quiet_ticks = 0;
            self.current_off_thr = (self.current_off_thr * 1.25).min(0.30);
        } else {
            self.quiet_ticks += 1;
            if self.quiet_ticks >= 30 {
                self.current_off_thr = (self.current_off_thr * 0.9).max(self.cfg.off_thr);
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GreenDimmConfig {
        &self.cfg
    }

    /// The block/group geometry.
    pub fn group_map(&self) -> &GroupMap {
        &self.map
    }

    /// The deep power-down register file (for the power model).
    pub fn registers(&self) -> &GroupRegisterFile {
        &self.registers
    }

    /// Fraction of sub-array groups currently in deep power-down.
    pub fn deep_pd_fraction(&self) -> f64 {
        self.registers.down_fraction()
    }

    /// The free pages and the thresholds' page counts at the effective
    /// off threshold.
    fn floors(&self, mm: &MemoryManager) -> Floors {
        let info = mm.meminfo();
        let installed = info.installed_pages as f64;
        Floors {
            free: info.free_pages,
            off_floor: (self.current_off_thr * installed) as u64,
            on_floor: (self.cfg.on_thr * installed) as u64,
            block_pages: mm.block_pages(),
        }
    }

    /// True when some group waits to retry deep power-down entry.
    fn retry_pending(&self) -> bool {
        #[cfg(test)]
        if self.by_scan {
            return self.retry_pending_by_scan();
        }
        self.pending_retries > 0
    }

    /// [`retry_pending`](Self::retry_pending) as it was before the running
    /// count: a scan of every recovery record. The tests' reference.
    #[cfg(test)]
    fn retry_pending_by_scan(&self) -> bool {
        self.recovery.iter().any(GroupRecovery::retry_pending)
    }

    /// The off-lining edge, when a [`tick`](Self::tick) now would change
    /// nothing but the tick counters (`DaemonStats::ticks` and the
    /// adaptive quiet count): free memory lies between the on-lining and
    /// off-lining edges, no group waits to retry deep power-down, and the
    /// adaptive threshold, if on, sits at its configured value, where
    /// decay leaves it. Such a tick also leaves every input of this test
    /// as it was, so while nothing outside the daemon changes the memory
    /// manager the test holds for every later tick. If only frees change
    /// it, the test holds until free pages pass the returned edge: free
    /// memory only rises, so it stays above the on-lining edge, and the
    /// edges and the retry state do not move.
    pub fn idle_edge(&self, mm: &MemoryManager) -> Option<u64> {
        let f = self.floors(mm);
        let edge = f.off_floor + f.block_pages;
        let idle = (f.on_floor..=edge).contains(&f.free)
            && !self.retry_pending()
            && (!self.cfg.adaptive_off_thr || self.current_off_thr == self.cfg.off_thr);
        idle.then_some(edge)
    }

    /// Accounts `n` monitor ticks without running them, each as a
    /// [`tick`](Self::tick) for which [`idle_edge`](Self::idle_edge) held.
    pub fn skip_idle_ticks(&mut self, n: u64) {
        self.stats.ticks += n;
        if self.cfg.adaptive_off_thr {
            let n = u32::try_from(n).unwrap_or(u32::MAX);
            self.quiet_ticks = self.quiet_ticks.saturating_add(n);
        }
    }

    /// One `memory_usage_monitor()` pass at simulated time `now`.
    ///
    /// # Errors
    ///
    /// Propagates memory-manager errors that indicate caller bugs (the
    /// kernel's EBUSY/EAGAIN results are *handled*, not propagated).
    pub fn tick(&mut self, now: SimTime, mm: &mut MemoryManager) -> Result<TickReport> {
        self.stats.ticks += 1;
        self.work.bodies += 1;
        let mut report = TickReport::default();
        let f = self.floors(mm);
        if f.free > f.off_floor + f.block_pages {
            self.work.offline_passes += 1;
            self.offline_pass(now, mm, f.off_floor + f.block_pages, &mut report)?;
        } else if f.free < f.on_floor {
            // On-line blocks until the free reserve is restored to the off
            // threshold (the hysteresis upper edge).
            report.onlined += self.online_until(now, mm, f.off_floor)?;
        }
        // Re-attempt deep-PD entry for groups whose quarantine may have
        // expired. Without prior NACKs this pass does not run at all, so
        // faultless ticks are byte-identical to pre-recovery behaviour.
        if self.retry_pending() {
            self.update_registers_after_offline(now, mm)?;
        }
        self.adapt(report.failures > 0);
        Ok(report)
    }

    /// Off-lines blocks while more than `keep` pages are free, up to the
    /// per-tick attempt budget.
    fn offline_pass(
        &mut self,
        now: SimTime,
        mm: &mut MemoryManager,
        keep: u64,
        report: &mut TickReport,
    ) -> Result<()> {
        let mut excluded: Vec<usize> = Vec::new();
        let mut attempts = 0;
        while attempts < MAX_ATTEMPTS_PER_TICK && mm.meminfo().free_pages > keep {
            let pick = crate::selector::pick_candidate;
            #[cfg(test)]
            let pick = if self.by_scan {
                crate::selector::pick_candidate_by_scan
            } else {
                pick
            };
            let Some(block) = pick(mm, self.cfg.selector, &excluded, &mut self.rng) else {
                break;
            };
            #[cfg(test)]
            self.picks.push(block);
            attempts += 1;
            match mm.offline_block(block)? {
                Ok(ok) => {
                    self.stats.offline_events += 1;
                    self.stats.hotplug_time += ok.latency;
                    report.offlined += 1;
                    self.update_registers_after_offline(now + self.stats.hotplug_time, mm)?;
                }
                Err(fail) => {
                    match fail.errno {
                        OfflineErrno::Busy => self.stats.failures_ebusy += 1,
                        OfflineErrno::Again => self.stats.failures_eagain += 1,
                    }
                    self.stats.hotplug_time += fail.latency;
                    report.failures += 1;
                    excluded.push(block);
                }
            }
        }
        Ok(())
    }

    /// On-lines the lowest off-line block, waking its groups first, until
    /// `target` pages are free or every block is on-line. Returns the
    /// number of blocks on-lined.
    // Inlined into both callers, as the two loops it replaces were: called
    // out of line, it made the fleet host loop ~10 % slower (perfbench
    // `fleet_gd`, 2-vCPU guest) with identical digests.
    #[inline(always)]
    fn online_until(&mut self, now: SimTime, mm: &mut MemoryManager, target: u64) -> Result<u32> {
        let mut onlined = 0;
        while mm.meminfo().free_pages < target {
            let block = mm.first_offline_block();
            #[cfg(test)]
            let block = if self.by_scan {
                mm.offline_flags().position(|off| off)
            } else {
                block
            };
            let Some(block) = block else {
                break; // everything already on-line
            };
            self.wake_groups_for_block(now, block)?;
            let latency = mm.online_block(block)?;
            self.stats.online_events += 1;
            self.stats.hotplug_time += latency;
            onlined += 1;
        }
        Ok(onlined)
    }

    /// Demand-driven on-lining: an allocation of `needed_pages` could not
    /// be satisfied, so the allocating task blocks while the daemon
    /// on-lines enough blocks (plus the hysteresis reserve). Returns the
    /// number of blocks on-lined; the caller retries its allocation.
    ///
    /// # Errors
    ///
    /// Propagates memory-manager errors that indicate caller bugs.
    pub fn handle_allocation_stall(
        &mut self,
        now: SimTime,
        mm: &mut MemoryManager,
        needed_pages: u64,
    ) -> Result<u32> {
        // Record the stall up front: a pass that wakes nothing (everything
        // already on-line, quarantined, or failed) is still a stall the
        // policy must answer for.
        self.stats.allocation_stalls += 1;
        self.adapt(true); // an allocation stall is trouble for the policy
        let target = needed_pages + self.floors(mm).off_floor;
        let onlined = self.online_until(now, mm, target)?;
        if onlined == 0 {
            self.stats.stalls_unserved += 1;
        }
        Ok(onlined)
    }

    /// Wakes every sub-array group a block about to be on-lined belongs to
    /// before `online_pages()` (§4.2), charging the [`DEEP_PD_EXIT`]
    /// latency to the hotplug time for each group it wakes. Under the
    /// shared-sense-amp neighbour constraint the buddy of each woken group
    /// must also leave deep power-down: once this block is on-line its
    /// groups receive traffic, and a powered-down buddy would be missing
    /// the sense amplifiers that traffic needs (§6.1).
    fn wake_groups_for_block(&mut self, now: SimTime, block: usize) -> Result<()> {
        let map = self.map;
        for g in map.groups_of_block(block)? {
            let buddy = self.cfg.neighbor_constraint.then(|| map.sense_amp_buddy(g));
            for g in std::iter::once(g).chain(buddy) {
                if self.registers.is_down(g) {
                    // An injected wake failure costs a full exit latency
                    // and forces a retry, bounded by the retry budget: the
                    // final attempt always succeeds, because a block about
                    // to receive traffic MUST leave deep power-down (§6.1
                    // safety is not negotiable under faults).
                    let mut attempts = 0u32;
                    loop {
                        attempts += 1;
                        let failed = attempts <= RETRY.max_retries
                            && self
                                .faults
                                .as_mut()
                                .is_some_and(|f| f.should_fire(FaultSite::BuddyWakeFail));
                        self.stats.hotplug_time += DEEP_PD_EXIT;
                        if !failed {
                            break;
                        }
                        self.stats.buddy_wake_failures += 1;
                        self.stats.retries += 1;
                    }
                    self.registers.set(g, false, now)?;
                }
            }
        }
        Ok(())
    }

    /// After off-lining, move every fully-off-lined group into deep
    /// power-down (honouring the shared-sense-amp neighbour constraint),
    /// in ascending group order.
    ///
    /// Decided a word of 64 groups at a time: the fully-off-line groups
    /// `F` ([`GroupMap::fully_offline_word`]) that are not down, and under
    /// the constraint whose buddy is fully off-line too
    /// (`swap_adjacent_pairs(F)`), are the groups the per-group scan
    /// attempts. A group entered here can put only its buddy down, later
    /// in ascending order when the group is even; that buddy is still
    /// visited, but [`try_enter_deep_pd`](Self::try_enter_deep_pd) reads
    /// `is_down` first and answers at once for it and for its (down)
    /// buddy, drawing no fault, as the scan's skip.
    fn update_registers_after_offline(&mut self, now: SimTime, mm: &MemoryManager) -> Result<()> {
        // The managed geometry may be smaller than the whole machine (the
        // paper manages a hot-pluggable region); map only the managed prefix.
        let map = self.map;
        if mm.block_count() < map.blocks() {
            return Ok(()); // geometry mismatch: register programming skipped
        }
        #[cfg(test)]
        if self.by_scan {
            return self.update_registers_by_scan(now, mm);
        }
        for gw in 0..bits::words_for(map.groups() as usize) {
            let fully = map.fully_offline_word(gw, mm.online_words());
            let mut candidates = fully & !self.registers.down_words()[gw];
            if self.cfg.neighbor_constraint {
                candidates &= swap_adjacent_pairs(fully);
            }
            while candidates != 0 {
                let group = SubArrayGroup::new((gw * 64) as u32 + candidates.trailing_zeros());
                candidates &= candidates - 1;
                let entered = self.try_enter_deep_pd(group, now)?;
                if entered && self.cfg.neighbor_constraint {
                    self.try_enter_deep_pd(map.sense_amp_buddy(group), now)?;
                }
            }
        }
        Ok(())
    }

    /// [`update_registers_after_offline`](Self::update_registers_after_offline)
    /// as it was before the words: every group's blocks, and its buddy's,
    /// walked in turn. The tests' reference.
    #[cfg(test)]
    fn update_registers_by_scan(&mut self, now: SimTime, mm: &MemoryManager) -> Result<()> {
        let map = self.map;
        let fully = |g: SubArrayGroup| map.group_fully_offline(g, |b| mm.block_offline(b));
        for g in 0..map.groups() {
            let group = SubArrayGroup::new(g);
            if self.registers.is_down(group) || !fully(group) {
                continue;
            }
            let buddy = map.sense_amp_buddy(group);
            if self.cfg.neighbor_constraint && !fully(buddy) {
                continue;
            }
            let entered = self.try_enter_deep_pd(group, now)?;
            // A fully-off-lined buddy that was previously blocked by this
            // group can now power down too.
            if entered && self.cfg.neighbor_constraint {
                self.try_enter_deep_pd(buddy, now)?;
            }
        }
        Ok(())
    }

    /// Attempts to move one group into deep power-down, honouring the
    /// group's quarantine and degraded state. Returns whether the group
    /// is down afterwards.
    ///
    /// Failure handling: an injected MRS NACK quarantines the group with
    /// exponential backoff; [`RetryPolicy::degrade_after`] consecutive
    /// NACKs degrade it permanently to shallow power-down (it keeps its
    /// clock-gated savings but stops oscillating on a flaky MRS path).
    ///
    /// # Errors
    ///
    /// Propagates register-file errors (out-of-range groups are caller
    /// bugs).
    fn try_enter_deep_pd(&mut self, group: SubArrayGroup, now: SimTime) -> Result<bool> {
        if self.registers.is_down(group) {
            return Ok(true);
        }
        #[cfg(test)]
        {
            self.entry_attempts += 1;
        }
        let Some(rec) = self.recovery.get(group.index()).copied() else {
            return Ok(false);
        };
        if rec.degraded || now < rec.quarantined_until {
            return Ok(false);
        }
        if rec.consecutive_nacks > 0 {
            // Quarantine expired: this attempt is a retry.
            self.stats.retries += 1;
        }
        let nack = self
            .faults
            .as_mut()
            .is_some_and(|f| f.should_fire(FaultSite::DeepPdEntryNack));
        // Past this point the record changes: it leaves the pending count
        // as it was, and re-enters it as it becomes.
        self.pending_retries -= u32::from(rec.retry_pending());
        if nack {
            self.stats.deep_pd_nacks += 1;
            let rec = &mut self.recovery[group.index()];
            rec.consecutive_nacks += 1;
            if rec.consecutive_nacks >= RETRY.degrade_after {
                rec.degraded = true;
            } else {
                rec.quarantined_until = now + RETRY.backoff_after(rec.consecutive_nacks);
            }
            self.pending_retries += u32::from(rec.retry_pending());
            return Ok(false);
        }
        self.recovery[group.index()].consecutive_nacks = 0;
        self.registers.set(group, true, now)?;
        if self
            .faults
            .as_mut()
            .is_some_and(|f| f.should_fire(FaultSite::MrsAckDelay))
        {
            self.stats.hotplug_time += MRS_ACK_DELAY;
            self.stats.mrs_ack_delays += 1;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectorPolicy;
    use gd_mmsim::{AllocationId, MmConfig, PageKind};
    use gd_types::Fraction;

    /// 256 MB managed as 16 blocks of 16 MB and 16 groups of 16 MB.
    fn setup(cfg: GreenDimmConfig) -> (Daemon, MemoryManager) {
        let mm = MemoryManager::new(MmConfig::small_test()).unwrap();
        let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
        (Daemon::new(cfg, map), mm)
    }

    #[test]
    fn idle_memory_gets_offlined_to_reserve() {
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        // Entirely free machine: the daemon drains free memory down to the
        // 10% reserve (plus one block of slack) over a few ticks.
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        let info = mm.meminfo();
        let reserve = (0.10 * info.installed_pages as f64) as u64;
        assert!(info.free_pages >= reserve);
        assert!(
            info.free_pages <= reserve + 2 * mm.block_pages(),
            "free {} should be near reserve {reserve}",
            info.free_pages
        );
        assert!(mm.offline_block_count() >= 12);
        // Deep power-down engaged for fully-off-lined groups.
        assert!(d.deep_pd_fraction() > 0.5);
    }

    #[test]
    fn allocation_pressure_triggers_onlining() {
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        let offlined = mm.offline_block_count();
        assert!(offlined > 0);
        // Consume nearly all free memory.
        let free = mm.meminfo().free_pages;
        mm.allocate(free - 100, PageKind::UserMovable).unwrap();
        d.tick(SimTime::from_secs(30), &mut mm).unwrap();
        assert!(
            mm.offline_block_count() < offlined,
            "daemon must on-line blocks under pressure"
        );
        assert!(d.stats.online_events > 0);
        // Free memory restored to the off-threshold reserve.
        let info = mm.meminfo();
        assert!(info.free_pages >= (0.09 * info.installed_pages as f64) as u64);
    }

    /// [`setup`] with 12 000 pages left free: the off-lining edge is the
    /// 10 % reserve plus one block (6553 + 4096 pages), so a tick off-lines
    /// exactly one block. Freeing the returned one-block allocation lets
    /// the next tick off-line one more.
    fn setup_one_block_per_tick(cfg: GreenDimmConfig) -> (Daemon, MemoryManager, AllocationId) {
        let (d, mut mm) = setup(cfg);
        let used = mm.meminfo().free_pages - 12_000;
        mm.allocate(used - mm.block_pages(), PageKind::UserMovable)
            .unwrap();
        let spare = mm
            .allocate(mm.block_pages(), PageKind::UserMovable)
            .unwrap();
        (d, mm, spare)
    }

    #[test]
    fn neighbor_constraint_delays_deep_pd() {
        let mut cfg = GreenDimmConfig::paper_default();
        cfg.neighbor_constraint = true;
        let (mut d, mut mm, spare) = setup_one_block_per_tick(cfg);
        // After the first tick exactly one block (group) is off-line; its
        // buddy is not, so no group may power down yet.
        d.tick(SimTime::from_secs(0), &mut mm).unwrap();
        assert_eq!(mm.offline_block_count(), 1);
        assert_eq!(d.registers().down_count(), 0);
        // The selector walks down from the top, so the second tick off-lines
        // the buddy (15 then 14 form the pair {14,15}).
        mm.free(spare).unwrap();
        d.tick(SimTime::from_secs(1), &mut mm).unwrap();
        assert_eq!(mm.offline_block_count(), 2);
        assert_eq!(d.registers().down_count(), 2);
    }

    #[test]
    fn without_neighbor_constraint_single_group_powers_down() {
        let mut cfg = GreenDimmConfig::paper_default();
        cfg.neighbor_constraint = false;
        let (mut d, mut mm, _) = setup_one_block_per_tick(cfg);
        d.tick(SimTime::from_secs(0), &mut mm).unwrap();
        assert_eq!(d.registers().down_count(), 1);
    }

    #[test]
    fn onlining_wakes_sense_amp_buddy_group() {
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert!(
            d.registers().down_count() >= 4,
            "need deep-PD groups to test"
        );
        // Pressure calibrated so the on-line pass restores exactly ONE
        // block: a single block of a buddy pair comes back on-line, which is
        // the case where forgetting to wake the buddy group breaks §6.1.
        let info = mm.meminfo();
        let on_floor = (0.05 * info.installed_pages as f64) as u64;
        mm.allocate(info.free_pages - (on_floor - 300), PageKind::UserMovable)
            .unwrap();
        d.tick(SimTime::from_secs(30), &mut mm).unwrap();
        assert!(d.stats.online_events > 0);
        // §6.1 safety: every group still in deep power-down must have a
        // fully-off-lined sense-amp buddy — an on-lined block whose buddy
        // group stayed down would receive traffic without sense amps.
        let offline: Vec<bool> = mm.offline_flags().collect();
        let fully = d.map.fully_offline_groups(&offline[..d.map.blocks()]);
        for g in 0..d.map.groups() {
            let group = SubArrayGroup::new(g);
            if d.registers().is_down(group) {
                let buddy = d.map.sense_amp_buddy(group);
                assert!(
                    fully.get(buddy.index()).copied().unwrap_or(false),
                    "group {g} is down but its buddy has an on-line block"
                );
            }
        }
    }

    #[test]
    fn free_policy_never_fails() {
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        mm.allocate(10_000, PageKind::UserMovable).unwrap();
        for s in 0..30 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert_eq!(d.stats.failures(), 0, "FreeRemovableFirst cannot fail");
    }

    #[test]
    fn random_policy_fails_on_kernel_blocks() {
        let cfg = GreenDimmConfig::paper_default().with_selector(SelectorPolicy::Random);
        let mm_cfg = MmConfig {
            transient_fail_prob: Fraction::lit(0.3),
            ..MmConfig::small_test()
        };
        let mut mm = MemoryManager::new(mm_cfg).unwrap();
        let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
        let mut d = Daemon::new(cfg, map);
        // Kernel pages in the low blocks; app pages spread further up.
        mm.allocate(2000, PageKind::KernelUnmovable).unwrap();
        mm.allocate(20_000, PageKind::UserMovable).unwrap();
        for s in 0..50 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert!(
            d.stats.failures() > 0,
            "random selection must hit busy/used blocks"
        );
    }

    #[test]
    fn adaptive_threshold_backs_off_after_stall() {
        let mut cfg = GreenDimmConfig::paper_default();
        cfg.adaptive_off_thr = true;
        let (mut d, mut mm) = setup(cfg);
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert!(
            (d.effective_off_thr() - 0.10).abs() < 1e-9,
            "quiet: stays at base"
        );
        // Provoke a stall: everything off-lined, then a large allocation.
        d.handle_allocation_stall(SimTime::from_secs(30), &mut mm, 30_000)
            .unwrap();
        assert!(d.effective_off_thr() > 0.10, "stall raises the reserve");
        // Long quiet period decays back toward the configured value.
        let raised = d.effective_off_thr();
        for s in 31..200 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert!(d.effective_off_thr() < raised);
    }

    #[test]
    fn adaptive_threshold_disabled_by_default() {
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        d.handle_allocation_stall(SimTime::from_secs(1), &mut mm, 1_000)
            .unwrap();
        assert_eq!(d.effective_off_thr(), 0.10);
    }

    #[test]
    fn stall_is_recorded_even_when_nothing_can_be_woken() {
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        // Everything is already on-line: the pass wakes nothing, but the
        // stall must still be counted.
        let onlined = d
            .handle_allocation_stall(SimTime::from_secs(1), &mut mm, 1_000)
            .unwrap();
        assert_eq!(onlined, 0);
        assert_eq!(d.stats.allocation_stalls, 1);
        assert_eq!(d.stats.stalls_unserved, 1);
        // A served stall counts only as a stall.
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        let onlined = d
            .handle_allocation_stall(SimTime::from_secs(30), &mut mm, 30_000)
            .unwrap();
        assert!(onlined > 0);
        assert_eq!(d.stats.allocation_stalls, 2);
        assert_eq!(d.stats.stalls_unserved, 1);
    }

    #[test]
    fn deep_pd_nack_quarantines_then_degrades() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        d.set_fault_injector(
            FaultPlan::none()
                .with(
                    FaultSite::DeepPdEntryNack,
                    FaultTrigger::Prob(Fraction::ONE),
                )
                .build(1),
        );
        for s in 0..40 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        // Every entry NACKs: blocks off-line but no group ever powers
        // down, and persistent failures degrade groups permanently.
        assert!(mm.offline_block_count() > 0);
        assert_eq!(d.registers().down_count(), 0);
        assert!(d.stats.deep_pd_nacks > 0);
        assert!(d.degraded_groups() > 0);
        // Degraded groups are never re-attempted.
        let nacks_at_degrade = d.stats.deep_pd_nacks;
        let before = d.degraded_groups();
        for s in 40..80 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        if d.degraded_groups() == before && before as usize == d.group_map().groups() as usize {
            assert_eq!(d.stats.deep_pd_nacks, nacks_at_degrade);
        }
    }

    #[test]
    fn quarantine_blocks_reentry_until_backoff_expires() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        // NACK exactly the first entry attempt, then behave.
        d.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::DeepPdEntryNack, FaultTrigger::OneShot(1))
                .build(1),
        );
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert_eq!(d.stats.deep_pd_nacks, 1);
        assert!(d.stats.retries > 0, "the NACKed group must be retried");
        assert!(
            d.registers().down_count() > 0,
            "after backoff the group enters deep-PD"
        );
        // §6.1 invariant still holds for every down group.
        let obs = crate::verify::group_observations(&d, &mm);
        for o in obs {
            if o.down {
                assert!(o.fully_offline, "down group with on-line blocks");
            }
        }
        // The quarantine window was respected: entry happened at or after
        // quarantined_until.
        for g in 0..d.group_map().groups() {
            let group = SubArrayGroup::new(g);
            if let (Some(since), Some(rec)) = (d.registers().down_since(group), d.recovery(group)) {
                assert!(since >= rec.quarantined_until);
            }
        }
    }

    #[test]
    fn buddy_wake_failures_retry_but_always_wake() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert!(d.registers().down_count() > 0);
        d.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::BuddyWakeFail, FaultTrigger::Prob(Fraction::ONE))
                .build(1),
        );
        let baseline = d.stats.hotplug_time;
        d.handle_allocation_stall(SimTime::from_secs(30), &mut mm, 30_000)
            .unwrap();
        assert!(d.stats.buddy_wake_failures > 0);
        assert!(d.stats.retries >= d.stats.buddy_wake_failures);
        assert!(d.stats.hotplug_time > baseline);
        // Safety: every group backing an on-line block is awake.
        let offline: Vec<bool> = mm.offline_flags().collect();
        let fully = d.map.fully_offline_groups(&offline[..d.map.blocks()]);
        for g in 0..d.map.groups() {
            let group = SubArrayGroup::new(g);
            if d.registers().is_down(group) {
                assert!(fully[g as usize], "woken block left its group down");
            }
        }
    }

    #[test]
    fn mrs_ack_delay_charges_latency() {
        use gd_faults::{FaultPlan, FaultTrigger};
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        let (mut plain, mut mm2) = setup(GreenDimmConfig::paper_default());
        d.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::MrsAckDelay, FaultTrigger::Prob(Fraction::ONE))
                .build(1),
        );
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
            plain.tick(SimTime::from_secs(s), &mut mm2).unwrap();
        }
        assert!(d.stats.mrs_ack_delays > 0);
        assert_eq!(d.registers().down_count(), plain.registers().down_count());
        assert_eq!(
            d.stats.hotplug_time,
            plain.stats.hotplug_time + MRS_ACK_DELAY * d.stats.mrs_ack_delays
        );
    }

    #[test]
    fn hotplug_time_accumulates() {
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        let events = d.stats.hotplug_events();
        assert!(events > 0);
        // Free-block off-linings cost 1.58 ms each.
        assert!(d.stats.hotplug_time >= SimTime::from_micros(1_580) * events);
    }

    /// The word decisions (on-line words, fully-off-line group words,
    /// register words, the running retry count) make every choice the
    /// per-block and per-group scans they replaced make. Twin daemons, one
    /// deciding by the scans, drive twin managers through random
    /// allocation churn: monitor ticks, and allocation stalls whenever an
    /// allocation does not fit. Covered: every geometry the figures use
    /// (1, 4, 8, 12 and 16 blocks per group; 1, 2 and 4 groups per block)
    /// and 16 groups; the neighbour constraint on and off; all three
    /// selectors; fault plans that NACK and delay deep power-down entries,
    /// fail buddy wakes and abort migrations. After every step the register bits and residencies,
    /// the recovery records, `DaemonStats`, the blocks each off-lining
    /// attempt picked, the deep power-down entry attempts and the memory
    /// layout must agree.
    #[test]
    fn hotplug_words_match_the_scans() {
        hotplug_words_differential(0..2);
    }

    /// [`hotplug_words_match_the_scans`] over 24 more seeds; `tools/ci.sh`
    /// runs it in release mode.
    #[test]
    #[ignore = "wide-seed run, ~24 seeds per geometry and configuration"]
    fn hotplug_words_match_the_scans_wide_seeds() {
        hotplug_words_differential(2..26);
    }

    fn hotplug_words_differential(seeds: std::ops::Range<u64>) {
        use gd_faults::{FaultPlan, FaultTrigger};
        use gd_types::rng::{component_rng, StdRng};
        const SELECTORS: [SelectorPolicy; 3] = [
            SelectorPolicy::FreeRemovableFirst,
            SelectorPolicy::RemovableFirst,
            SelectorPolicy::Random,
        ];
        const UNIT: u64 = 4 << 20; // one max-order buddy chunk
        let (mut nacks, mut delays, mut wake_fails, mut rollbacks) = (0u64, 0u64, 0u64, 0u64);
        let (mut stalls, mut onlines, mut degraded) = (0u64, 0u64, 0u64);
        // Ticks that left a group down beside a buddy that is fully
        // off-line but not down: the state a candidate word that forgot
        // the down bits would revisit.
        let mut lone_down = 0u32;
        for (groups, per_group, per_block) in [
            (64u32, 1u64, 1u64),
            (64, 4, 1),
            (64, 8, 1),
            (64, 12, 1),
            (64, 16, 1),
            (64, 1, 2),
            (64, 1, 4),
            (16, 1, 1),
        ] {
            let block_bytes = UNIT * per_block;
            let blocks = u64::from(groups) * per_group / per_block;
            let map = GroupMap::new(blocks * block_bytes, groups, block_bytes).unwrap();
            let mut deep_pd_seen = false;
            for seed in seeds.clone() {
                for (ci, &selector) in SELECTORS.iter().enumerate() {
                    for constraint in [true, false] {
                        let faulty = (seed + ci as u64).is_multiple_of(2);
                        let ctx = format!(
                            "{groups} groups, {per_group}/{per_block}, seed {seed}, \
                             {selector:?}, constraint {constraint}, faults {faulty}"
                        );
                        let mm_cfg = MmConfig {
                            capacity_bytes: blocks * block_bytes,
                            block_bytes,
                            transient_fail_prob: Fraction::lit(0.1),
                            seed,
                        };
                        let cfg = GreenDimmConfig {
                            neighbor_constraint: constraint,
                            ..GreenDimmConfig::paper_default()
                                .with_selector(selector)
                                .with_seed(seed)
                        };
                        let mut twins: Vec<(Daemon, MemoryManager)> = (0..2)
                            .map(|_| {
                                let mut d = Daemon::new(cfg, map);
                                let mut mm = MemoryManager::new(mm_cfg).unwrap();
                                if faulty {
                                    let p = FaultTrigger::Prob(Fraction::lit(0.3));
                                    d.set_fault_injector(
                                        FaultPlan::none()
                                            .with(FaultSite::DeepPdEntryNack, p)
                                            .with(FaultSite::MrsAckDelay, p)
                                            .with(FaultSite::BuddyWakeFail, p)
                                            .build(seed),
                                    );
                                    mm.set_fault_injector(
                                        FaultPlan::none()
                                            .with(FaultSite::MigrationAbort, p)
                                            .build(seed),
                                    );
                                }
                                (d, mm)
                            })
                            .collect();
                        twins[1].0.by_scan = true;
                        let mut rng = component_rng(seed, "hotplug-words");
                        let seen = churn(&mut twins, &mut rng, &ctx);
                        deep_pd_seen |= seen.0;
                        lone_down += seen.1;
                        let (d, mm) = &twins[0];
                        nacks += d.stats.deep_pd_nacks;
                        delays += d.stats.mrs_ack_delays;
                        wake_fails += d.stats.buddy_wake_failures;
                        stalls += d.stats.allocation_stalls;
                        onlines += d.stats.online_events;
                        degraded += d.degraded_groups();
                        rollbacks += mm.stats.rollbacks;
                    }
                }
            }
            assert!(
                deep_pd_seen,
                "{groups} groups, {per_group}/{per_block}: no group entered deep power-down"
            );
        }
        assert!(nacks > 200, "only {nacks} deep-PD NACKs");
        assert!(delays > 200, "only {delays} MRS ack delays");
        assert!(wake_fails > 200, "only {wake_fails} buddy wake failures");
        assert!(rollbacks > 200, "only {rollbacks} migration rollbacks");
        assert!(stalls > 200, "only {stalls} allocation stalls");
        assert!(onlines > 2000, "only {onlines} on-linings");
        assert!(degraded > 0, "no group degraded");
        assert!(
            lone_down > 50,
            "no down group beside an up, fully off-line buddy"
        );

        /// Drives both twins through the same random churn, comparing them
        /// after every step. Returns whether any group entered deep
        /// power-down, and the ticks that left a down group beside an up,
        /// fully off-line buddy.
        fn churn(
            twins: &mut [(Daemon, MemoryManager)],
            rng: &mut StdRng,
            ctx: &str,
        ) -> (bool, u32) {
            let installed = twins[0].1.meminfo().installed_pages;
            let block_pages = twins[0].1.block_pages();
            let mut live: Vec<AllocationId> = Vec::new();
            let (mut deep_pd, mut lone_down) = (false, 0);
            for step in 0..120u64 {
                let ctx = format!("{ctx} step {step}");
                let now = SimTime::from_secs(step);
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        let (pages, kind) = if rng.gen_bool(0.1) {
                            (rng.gen_range(1..block_pages / 2), PageKind::KernelUnmovable)
                        } else {
                            (rng.gen_range(1..installed / 5), PageKind::UserMovable)
                        };
                        let mut ids = Vec::new();
                        for (d, mm) in twins.iter_mut() {
                            let mut woke = None;
                            let mut id = mm.allocate(pages, kind).ok();
                            if id.is_none() {
                                woke = Some(d.handle_allocation_stall(now, mm, pages).unwrap());
                                id = mm.allocate(pages, kind).ok();
                            }
                            ids.push((woke, id));
                        }
                        assert_eq!(ids[0], ids[1], "{ctx}: allocation");
                        live.extend(ids[0].1);
                    }
                    4..=6 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        for (_, mm) in twins.iter_mut() {
                            mm.free(id).unwrap();
                        }
                    }
                    7 if !live.is_empty() => {
                        let id = live[rng.gen_range(0..live.len())];
                        let pages = rng.gen_range(1..installed / 20);
                        let grown: Vec<bool> = twins
                            .iter_mut()
                            .map(|(_, mm)| mm.grow(id, pages).is_ok())
                            .collect();
                        assert_eq!(grown[0], grown[1], "{ctx}: grow");
                    }
                    8 if !live.is_empty() => {
                        let at = rng.gen_range(0..live.len());
                        let pages = rng.gen_range(1..installed / 20);
                        for (_, mm) in twins.iter_mut() {
                            mm.shrink(live[at], pages).unwrap();
                        }
                        if twins[0].1.pages_of(live[at]) == 0 {
                            live.swap_remove(at);
                        }
                    }
                    _ => {}
                }
                let reports: Vec<TickReport> = twins
                    .iter_mut()
                    .map(|(d, mm)| d.tick(now, mm).unwrap())
                    .collect();
                assert_eq!(reports[0], reports[1], "{ctx}: tick report");
                let [(a, ma), (b, mb)] = &*twins else {
                    unreachable!("two twins")
                };
                assert_eq!(a.picks, b.picks, "{ctx}: picked blocks");
                // Quarantine hides a second attempt on a group within one
                // pass, so the attempts themselves are compared.
                assert_eq!(a.entry_attempts, b.entry_attempts, "{ctx}: entry attempts");
                assert_eq!(a.stats, b.stats, "{ctx}: daemon stats");
                assert_eq!(a.work, b.work, "{ctx}: daemon work");
                assert_eq!(a.recovery, b.recovery, "{ctx}: recovery records");
                let pending = a.recovery.iter().filter(|r| r.retry_pending()).count();
                assert_eq!(
                    a.pending_retries as usize, pending,
                    "{ctx}: pending retries"
                );
                assert_eq!(a.retry_pending(), b.retry_pending(), "{ctx}: retry pending");
                let (ra, rb) = (a.registers(), b.registers());
                assert_eq!(ra.down_words(), rb.down_words(), "{ctx}: register bits");
                for g in (0..a.map.groups()).map(SubArrayGroup::new) {
                    assert_eq!(ra.down_since(g), rb.down_since(g), "{ctx}: {g} down since");
                    assert_eq!(
                        ra.residency(g, now),
                        rb.residency(g, now),
                        "{ctx}: {g} residency"
                    );
                }
                assert_eq!(ma.blocks(), mb.blocks(), "{ctx}: blocks");
                assert_eq!(ma.meminfo(), mb.meminfo(), "{ctx}: meminfo");
                assert_eq!(ma.online_words(), mb.online_words(), "{ctx}: on-line words");
                assert_eq!(
                    format!("{:?}", ma.stats),
                    format!("{:?}", mb.stats),
                    "{ctx}: mm stats"
                );
                assert_eq!(ma.audit(), Ok(()), "{ctx}: audit");
                let obs = crate::verify::group_observations(a, ma);
                assert!(
                    gd_verify::obs::check_groups(&obs).is_empty(),
                    "{ctx}: group invariants"
                );
                deep_pd |= ra.down_count() > 0;
                lone_down += u32::from(obs.iter().any(|o| {
                    o.neighbor_constraint && o.down && !o.buddy_down && o.buddy_fully_offline
                }));
            }
            (deep_pd, lone_down)
        }
    }
}
