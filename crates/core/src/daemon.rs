//! The GreenDIMM power-management daemon: `memory_usage_monitor()` +
//! `block_selector()` + deep power-down register programming (§4.2).

use crate::config::GreenDimmConfig;
use crate::groupmap::GroupMap;
use crate::registers::{GroupRegisterFile, DEEP_PD_EXIT};
use gd_faults::{FaultInjector, FaultSite, RetryPolicy, MRS_ACK_DELAY};
use gd_mmsim::{MemoryManager, OfflineErrno};
use gd_types::ids::SubArrayGroup;
use gd_types::rng::{component_rng, StdRng};
use gd_types::{Result, SimTime};

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
    /// Backoff/quarantine policy for deep-PD entry failures.
    retry: RetryPolicy,
    /// Per-group recovery state, indexed by group.
    recovery: Vec<GroupRecovery>,
    /// Run statistics.
    pub stats: DaemonStats,
    /// Work counters.
    work: DaemonWork,
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
            retry: RetryPolicy::paper_default(),
            recovery: vec![GroupRecovery::default(); map.groups() as usize],
            cfg,
            map,
            stats: DaemonStats::default(),
            work: DaemonWork::default(),
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

    /// Overrides the retry/backoff policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
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
        self.recovery
            .iter()
            .any(|r| r.consecutive_nacks > 0 && !r.degraded)
    }

    /// Whether a [`tick`](Self::tick) now would change nothing but the
    /// tick counters (`DaemonStats::ticks` and the adaptive quiet count):
    /// free memory lies between the on-lining and off-lining edges, no
    /// group waits to retry deep power-down, and the adaptive threshold,
    /// if on, sits at its configured value, where decay leaves it. Such a
    /// tick also leaves every input of this test as it was, so it holds
    /// for every later tick until something outside the daemon changes
    /// the memory manager.
    pub fn is_idle(&self, mm: &MemoryManager) -> bool {
        let f = self.floors(mm);
        (f.on_floor..=f.off_floor + f.block_pages).contains(&f.free)
            && !self.retry_pending()
            && (!self.cfg.adaptive_off_thr || self.current_off_thr == self.cfg.off_thr)
    }

    /// Accounts `n` monitor ticks without running them, each as a
    /// [`tick`](Self::tick) for which [`is_idle`](Self::is_idle) held.
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
        while attempts < self.cfg.max_attempts_per_tick && mm.meminfo().free_pages > keep {
            let Some(block) =
                crate::selector::pick_candidate(mm, self.cfg.selector, &excluded, &mut self.rng)
            else {
                break;
            };
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

    /// On-lines the first off-lined block, waking its groups first, until
    /// `target` pages are free or every block is on-line. Returns the
    /// number of blocks on-lined.
    // Inlined into both callers, as the two loops it replaces were: called
    // out of line, it made the fleet host loop ~10 % slower (perfbench
    // `fleet_gd`, 2-vCPU guest) with identical digests.
    #[inline(always)]
    fn online_until(&mut self, now: SimTime, mm: &mut MemoryManager, target: u64) -> Result<u32> {
        let mut onlined = 0;
        while mm.meminfo().free_pages < target {
            let Some(block) = mm.offline_flags().position(|off| off) else {
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
                        let failed = attempts <= self.retry.max_retries
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
    fn update_registers_after_offline(&mut self, now: SimTime, mm: &MemoryManager) -> Result<()> {
        // The managed geometry may be smaller than the whole machine (the
        // paper manages a movablecore region); map only the managed prefix.
        let map = self.map;
        if mm.block_count() < map.blocks() {
            return Ok(()); // geometry mismatch: register programming skipped
        }
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
        if nack {
            self.stats.deep_pd_nacks += 1;
            let rec = &mut self.recovery[group.index()];
            rec.consecutive_nacks += 1;
            if rec.consecutive_nacks >= self.retry.degrade_after {
                rec.degraded = true;
            } else {
                rec.quarantined_until = now + self.retry.backoff_after(rec.consecutive_nacks);
            }
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
    use gd_mmsim::{MmConfig, PageKind};

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

    #[test]
    fn neighbor_constraint_delays_deep_pd() {
        let mut cfg = GreenDimmConfig::paper_default();
        cfg.neighbor_constraint = true;
        cfg.max_attempts_per_tick = 1; // offline one block per tick
        let (mut d, mut mm) = setup(cfg);
        // After the first tick exactly one block (group) is off-line; its
        // buddy is not, so no group may power down yet.
        d.tick(SimTime::from_secs(0), &mut mm).unwrap();
        assert_eq!(mm.offline_block_count(), 1);
        assert_eq!(d.registers().down_count(), 0);
        // The selector walks down from the top, so the second tick off-lines
        // the buddy (15 then 14 form the pair {14,15}).
        d.tick(SimTime::from_secs(1), &mut mm).unwrap();
        assert_eq!(mm.offline_block_count(), 2);
        assert_eq!(d.registers().down_count(), 2);
    }

    #[test]
    fn without_neighbor_constraint_single_group_powers_down() {
        let mut cfg = GreenDimmConfig::paper_default();
        cfg.neighbor_constraint = false;
        cfg.max_attempts_per_tick = 1;
        let (mut d, mut mm) = setup(cfg);
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
            transient_fail_prob: 0.3,
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
        use gd_faults::{FaultPlan, FaultTrigger, RetryPolicy};
        let (mut d, mut mm) = setup(GreenDimmConfig::paper_default());
        d.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::DeepPdEntryNack, FaultTrigger::Prob(1.0))
                .build(1),
        );
        d.set_retry_policy(RetryPolicy {
            degrade_after: 3,
            ..RetryPolicy::paper_default()
        });
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
                .with(FaultSite::BuddyWakeFail, FaultTrigger::Prob(1.0))
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
                .with(FaultSite::MrsAckDelay, FaultTrigger::Prob(1.0))
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
}
