//! Runtime verification harness for the co-simulation.
//!
//! [`VerifyHarness`] bundles the workspace's standard invariant sets
//! ([`gd_verify`]) and knows how to derive the daemon-level observation
//! records from live simulator state. [`EpochSim`] drives it after every
//! daemon tick when verification is enabled:
//!
//! * memory-manager page accounting and buddy/block consistency,
//! * KSM logical-content conservation (when KSM runs),
//! * the §4.2 hysteresis contract on each monitor tick,
//! * the §4.3/§6.1 deep power-down safety properties of the register file
//!   against the hotplug state.
//!
//! In [`Mode::Record`] the harness only counts and stores violations (see
//! [`VerifyHarness::stats`]); in [`Mode::Strict`] the first violation
//! aborts the simulation with [`gd_types::GdError::InvalidState`].
//!
//! [`EpochSim`]: crate::cosim::EpochSim

use crate::daemon::Daemon;
use gd_ksm::Ksm;
use gd_mmsim::MemoryManager;
use gd_types::ids::SubArrayGroup;
use gd_types::Result;
use gd_verify::faults::QuarantineObs;
use gd_verify::obs::{DaemonTickObs, GroupStateObs};
use gd_verify::{Checker, CheckerStats, Mode, Violation};

/// The standard invariant sets, bound to the co-simulation's subjects.
#[derive(Debug)]
pub struct VerifyHarness {
    mode: Mode,
    mm: Checker<MemoryManager>,
    ksm: Checker<Ksm>,
    tick: Checker<DaemonTickObs>,
    group: Checker<[GroupStateObs]>,
    quarantine: Checker<[QuarantineObs]>,
}

impl VerifyHarness {
    /// Creates a harness running every standard invariant in `mode`.
    pub fn new(mode: Mode) -> Self {
        VerifyHarness {
            mode,
            mm: gd_verify::mm::standard_checker(mode),
            ksm: gd_verify::ksm::standard_checker(mode),
            tick: gd_verify::obs::tick_checker(mode),
            group: gd_verify::obs::group_checker(mode),
            quarantine: gd_verify::faults::quarantine_checker(mode),
        }
    }

    /// The failure mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Runs the state invariants (memory manager, KSM, group registers)
    /// without a tick observation — used after out-of-band state changes
    /// such as demand-driven on-lining.
    ///
    /// # Errors
    ///
    /// In [`Mode::Strict`], the first violation as
    /// [`gd_types::GdError::InvalidState`].
    pub fn check_state(
        &mut self,
        daemon: &Daemon,
        mm: &MemoryManager,
        ksm: Option<&Ksm>,
    ) -> Result<()> {
        self.mm.run(mm)?;
        if let Some(k) = ksm {
            self.ksm.run(k)?;
        }
        let groups = group_observations(daemon, mm);
        self.group.run(&groups[..])?;
        let quarantine = quarantine_observations(daemon);
        self.quarantine.run(&quarantine[..])?;
        Ok(())
    }

    /// Runs every invariant after one daemon monitor tick.
    ///
    /// # Errors
    ///
    /// In [`Mode::Strict`], the first violation as
    /// [`gd_types::GdError::InvalidState`].
    pub fn after_tick(
        &mut self,
        daemon: &Daemon,
        mm: &MemoryManager,
        ksm: Option<&Ksm>,
        obs: DaemonTickObs,
    ) -> Result<()> {
        self.tick.run(&obs)?;
        self.check_state(daemon, mm, ksm)
    }

    /// Total invariant evaluations across all checkers.
    pub fn checks_run(&self) -> u64 {
        self.stats().map(|s| s.checks_run).sum()
    }

    /// Total violations found across all checkers.
    pub fn violations(&self) -> u64 {
        self.stats().map(|s| s.violations).sum()
    }

    /// Every recorded violation, over all checkers in registration order.
    pub fn recorded(&self) -> Vec<&Violation> {
        self.stats().flat_map(|s| s.recorded.iter()).collect()
    }

    fn stats(&self) -> impl Iterator<Item = &CheckerStats> {
        [
            &self.mm.stats,
            &self.ksm.stats,
            &self.tick.stats,
            &self.group.stats,
            &self.quarantine.stats,
        ]
        .into_iter()
    }
}

/// Derives the per-group safety observations from live daemon + manager
/// state. Returns an empty vector when the managed geometry does not match
/// the block list (register programming is skipped in that case too).
pub fn group_observations(daemon: &Daemon, mm: &MemoryManager) -> Vec<GroupStateObs> {
    let map = daemon.group_map();
    let offline: Vec<bool> = mm.offline_flags().collect();
    if offline.len() < map.blocks() {
        return Vec::new();
    }
    let fully = map.fully_offline_groups(&offline[..map.blocks()]);
    let regs = daemon.registers();
    let constraint = daemon.config().neighbor_constraint;
    (0..map.groups())
        .map(|g| {
            let group = SubArrayGroup::new(g);
            let buddy = map.sense_amp_buddy(group);
            GroupStateObs {
                group: group.index(),
                down: regs.is_down(group),
                fully_offline: fully.get(group.index()).copied().unwrap_or(false),
                buddy_down: regs.is_down(buddy),
                buddy_fully_offline: fully.get(buddy.index()).copied().unwrap_or(false),
                neighbor_constraint: constraint,
            }
        })
        .collect()
}

/// Derives the fault-recovery observations ([`QuarantineObs`]) from live
/// daemon state.
pub fn quarantine_observations(daemon: &Daemon) -> Vec<QuarantineObs> {
    let regs = daemon.registers();
    (0..daemon.group_map().groups())
        .map(|g| {
            let group = SubArrayGroup::new(g);
            let rec = daemon.recovery(group).copied().unwrap_or_default();
            QuarantineObs {
                group: group.index(),
                down: regs.is_down(group),
                down_since_ns: regs.down_since(group).map_or(0, |t| t.as_nanos()),
                quarantined_until_ns: rec.quarantined_until.as_nanos(),
                degraded: rec.degraded,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GreenDimmConfig;
    use crate::groupmap::GroupMap;
    use gd_mmsim::MmConfig;
    use gd_types::SimTime;

    fn setup() -> (Daemon, MemoryManager) {
        let mm = MemoryManager::new(MmConfig::small_test()).unwrap();
        let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
        (Daemon::new(GreenDimmConfig::paper_default(), map), mm)
    }

    #[test]
    fn settled_daemon_passes_strict_harness() {
        let (mut d, mut mm) = setup();
        let mut h = VerifyHarness::new(Mode::Strict);
        for s in 0..25 {
            let before = mm.meminfo().free_pages;
            let r = d.tick(SimTime::from_secs(s), &mut mm).unwrap();
            let info = mm.meminfo();
            let obs = DaemonTickObs {
                free_before: before,
                free_after: info.free_pages,
                total_after: info.total_pages,
                offlined_pages: u64::from(r.offlined) * mm.block_pages(),
                onlined_pages: u64::from(r.onlined) * mm.block_pages(),
                off_thr: d.effective_off_thr(),
                on_thr: d.config().on_thr,
            };
            h.after_tick(&d, &mm, None, obs).unwrap();
        }
        assert!(h.checks_run() > 0);
        assert_eq!(h.violations(), 0);
        assert!(h.recorded().is_empty());
    }

    #[test]
    fn faulted_run_passes_quarantine_invariants() {
        use gd_faults::{FaultPlan, FaultSite, FaultTrigger};
        let (mut d, mut mm) = setup();
        d.set_fault_injector(
            FaultPlan::none()
                .with(FaultSite::DeepPdEntryNack, FaultTrigger::Prob(0.5))
                .with(FaultSite::BuddyWakeFail, FaultTrigger::Prob(0.5))
                .build(11),
        );
        let mut h = VerifyHarness::new(Mode::Strict);
        for s in 0..60 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
            h.check_state(&d, &mm, None).unwrap();
        }
        assert!(d.stats.deep_pd_nacks > 0, "the fault plan must bite");
        assert_eq!(h.violations(), 0);
    }

    #[test]
    fn corrupted_register_state_is_caught() {
        let (mut d, mut mm) = setup();
        for s in 0..20 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
        }
        assert!(d.registers().down_count() > 0);
        // Bring a deep-powered-down block back on-line *behind the daemon's
        // back* — its group register bit is now stale (§4.3 violation).
        let stale = mm.offline_flags().position(|off| off).unwrap();
        mm.online_block(stale).unwrap();
        let mut h = VerifyHarness::new(Mode::Record);
        h.check_state(&d, &mm, None).unwrap();
        assert!(h.violations() > 0);
        assert!(h
            .recorded()
            .iter()
            .any(|v| v.invariant == "group.deep-pd-requires-offline"));
        // Strict mode turns the same corruption into an error.
        let mut strict = VerifyHarness::new(Mode::Strict);
        assert!(strict.check_state(&d, &mm, None).is_err());
    }
}
