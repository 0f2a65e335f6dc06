//! End-to-end runtime verification: the full co-simulation (daemon +
//! memory manager + KSM + footprint churn, including the demand-driven
//! on-lining stall path) must run under the Strict invariant harness with
//! zero violations, and the harness must actually be exercising checks.

use greendimm_suite::core::{
    Daemon, EpochSim, FootprintDriver, GreenDimmConfig, GreenDimmSystem, GroupMap, SystemConfig,
};
use greendimm_suite::ksm::{Ksm, KsmConfig};
use greendimm_suite::mmsim::{MemoryManager, MmConfig, PageKind};
use greendimm_suite::types::SimTime;
use greendimm_suite::verify::Mode;

fn strict_sim(ksm: bool) -> EpochSim {
    let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
    let kernel = mm.meminfo().installed_pages / 50;
    mm.allocate(kernel, PageKind::KernelUnmovable).unwrap();
    let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
    let daemon = Daemon::new(GreenDimmConfig::paper_default(), map);
    let ksm = ksm.then(|| Ksm::new(KsmConfig::default()).unwrap());
    let mut sim = EpochSim::new(mm, daemon, ksm);
    sim.enable_verification(Mode::Strict);
    sim
}

/// The flagship check: settle, churn a footprint up and down (hitting both
/// off-lining and the allocation-stall on-lining path), with KSM merging
/// behind the scenes — every tick's invariants must hold in Strict mode.
#[test]
fn full_cosim_is_invariant_clean_under_strict_mode() {
    let mut sim = strict_sim(true);
    sim.settle(60).expect("settle must be violation-free");
    assert!(sim.offline_fraction() > 0.5, "settle must off-line memory");

    let mut fp = FootprintDriver::new();
    if let Some(ksm) = &mut sim.ksm {
        fp.set_target(&mut sim.mm, 2_000).unwrap();
        let owner = fp.allocation_id().expect("allocated");
        // Half the region shares 4 contents; the rest is unique.
        ksm.register_region(owner, vec![(1, 250), (2, 250), (3, 250), (4, 250)], 1_000);
    }

    let installed = sim.mm.meminfo().installed_pages;
    // A triangle wave between 5% and 75% of installed capacity: growth
    // crosses the on-line reserve (stall path) and shrink re-arms
    // off-lining, so both daemon directions run many times.
    for t in 0..120u64 {
        let phase = (t % 40) as f64 / 40.0;
        let frac = 0.05
            + 0.70
                * if phase < 0.5 {
                    2.0 * phase
                } else {
                    2.0 * (1.0 - phase)
                };
        let target = (installed as f64 * frac) as u64;
        sim.set_footprint(&mut fp, target)
            .expect("footprint churn must stay invariant-clean");
        sim.step(SimTime::from_secs(1))
            .expect("tick must stay invariant-clean");
    }

    let harness = sim.verify.as_ref().expect("verification enabled");
    assert!(
        harness.checks_run() > 500,
        "harness must actually run checks, ran {}",
        harness.checks_run()
    );
    assert_eq!(harness.violations(), 0);
}

/// Without KSM the same churn must also pass (the KSM conservation checker
/// simply never runs).
#[test]
fn cosim_without_ksm_is_invariant_clean() {
    let mut sim = strict_sim(false);
    sim.settle(60).unwrap();
    let mut fp = FootprintDriver::new();
    let installed = sim.mm.meminfo().installed_pages;
    for t in 0..40u64 {
        let target = if t % 2 == 0 {
            installed / 2
        } else {
            installed / 10
        };
        sim.set_footprint(&mut fp, target).unwrap();
        sim.step(SimTime::from_secs(1)).unwrap();
    }
    assert_eq!(sim.verify.as_ref().unwrap().violations(), 0);
}

/// The one-call API accepts the verify mode and completes a benchmark run
/// with the Strict harness active.
#[test]
fn system_api_runs_strict_verified() {
    let cfg = SystemConfig::small_test().with_verify(Mode::Strict);
    let mut sys = GreenDimmSystem::new(cfg);
    let report = sys.run_app("soplex", 9);
    assert!(report.dram_energy_joules > 0.0);
    assert!(report.overhead_fraction < 0.05);
}
