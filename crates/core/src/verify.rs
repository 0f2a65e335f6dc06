//! Runtime verification of the co-simulation.
//!
//! [`check`] runs the workspace's invariants ([`gd_verify`]) against live
//! simulator state, deriving the daemon-level observation records with
//! [`group_observations`] and [`quarantine_observations`].
//! [`EpochSim`] runs it after every daemon tick when verification is
//! enabled, and the first violation aborts the simulation:
//!
//! * memory-manager page accounting and buddy/block consistency,
//! * KSM logical-content conservation (when KSM runs),
//! * the §4.2 hysteresis contract on each monitor tick,
//! * the §4.3/§6.1 deep power-down safety properties of the register file
//!   against the hotplug state, and the fault-recovery quarantine rules.
//!
//! [`EpochSim`]: crate::cosim::EpochSim

use crate::daemon::Daemon;
use gd_ksm::Ksm;
use gd_mmsim::MemoryManager;
use gd_types::ids::SubArrayGroup;
use gd_verify::faults::QuarantineObs;
use gd_verify::obs::{DaemonTickObs, GroupStateObs};
use gd_verify::Violation;

/// Invariants one [`check`] call evaluates: the memory manager's three
/// (meminfo, block and buddy consistency), two over the group registers
/// (deep power-down requires off-line, neighbour pair) and two over the
/// quarantine state, plus KSM conservation when KSM runs and hysteresis
/// when a tick is observed.
pub(crate) fn invariants_evaluated(ksm: bool, tick: bool) -> u64 {
    7 + u64::from(ksm) + u64::from(tick)
}

/// Runs every co-simulation invariant: the tick's hysteresis when `tick`
/// is given (after a monitor tick; `None` after out-of-band state changes
/// such as demand-driven on-lining), then the memory manager, KSM, the
/// group registers and the quarantine state.
pub fn check(
    daemon: &Daemon,
    mm: &MemoryManager,
    ksm: Option<&Ksm>,
    tick: Option<&DaemonTickObs>,
) -> Vec<Violation> {
    let mut out = tick.map(gd_verify::obs::check_tick).unwrap_or_default();
    out.extend(gd_verify::mm::check(mm));
    if let Some(k) = ksm {
        out.extend(gd_verify::ksm::check(k));
    }
    let groups = group_observations(daemon, mm);
    out.extend(gd_verify::obs::check_groups(&groups));
    let quarantine = quarantine_observations(daemon);
    out.extend(gd_verify::faults::check_quarantine(&quarantine));
    out
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
    use gd_types::{Fraction, SimTime};

    fn setup() -> (Daemon, MemoryManager) {
        let mm = MemoryManager::new(MmConfig::small_test()).unwrap();
        let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
        (Daemon::new(GreenDimmConfig::paper_default(), map), mm)
    }

    #[test]
    fn settled_daemon_passes_strict_harness() {
        let (mut d, mut mm) = setup();
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
            assert_eq!(check(&d, &mm, None, Some(&obs)), vec![], "tick {s}");
        }
        assert!(d.registers().down_count() > 0, "settling must power down");
    }

    #[test]
    fn faulted_run_passes_quarantine_invariants() {
        use gd_faults::{FaultPlan, FaultSite, FaultTrigger};
        let (mut d, mut mm) = setup();
        d.set_fault_injector(
            FaultPlan::none()
                .with(
                    FaultSite::DeepPdEntryNack,
                    FaultTrigger::Prob(Fraction::lit(0.5)),
                )
                .with(
                    FaultSite::BuddyWakeFail,
                    FaultTrigger::Prob(Fraction::lit(0.5)),
                )
                .build(11),
        );
        for s in 0..60 {
            d.tick(SimTime::from_secs(s), &mut mm).unwrap();
            assert_eq!(check(&d, &mm, None, None), vec![], "tick {s}");
        }
        assert!(d.stats.deep_pd_nacks > 0, "the fault plan must bite");
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
        let violations = check(&d, &mm, None, None);
        assert!(violations
            .iter()
            .any(|v| v.invariant == "group.deep-pd-requires-offline"));
        // Strict checking turns the same corruption into an error.
        let err = gd_verify::strict(violations).unwrap_err();
        assert!(err.to_string().contains("invariant violated: ["), "{err}");
    }
}
