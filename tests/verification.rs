//! End-to-end runtime verification: the full co-simulation (daemon +
//! memory manager + KSM + footprint churn, including the demand-driven
//! on-lining stall path) must run under the Strict invariant harness with
//! zero violations, and the harness must actually be exercising checks.

use greendimm_suite::bench::{block_size_experiment, managed_region};
use greendimm_suite::core::{
    Daemon, EpochSim, FootprintDriver, GreenDimmConfig, GroupMap, SelectorPolicy,
};
use greendimm_suite::faults::FaultPlan;
use greendimm_suite::ksm::{Ksm, KsmConfig, RegionId};
use greendimm_suite::mmsim::{MemoryManager, MmConfig, PageKind};
use greendimm_suite::types::rng::{component_rng, derive_seed, StdRng};
use greendimm_suite::types::{GdError, SimTime};
use greendimm_suite::verify::Mode;
use greendimm_suite::workloads::by_name;

fn strict_sim(ksm: bool) -> EpochSim {
    let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
    let kernel = mm.meminfo().installed_pages / 50;
    mm.allocate(kernel, PageKind::KernelUnmovable).unwrap();
    let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
    let daemon = Daemon::new(GreenDimmConfig::paper_default(), map);
    let ksm = ksm.then(|| Ksm::new(KsmConfig::default()).unwrap());
    let mut sim = EpochSim::new(mm, daemon, ksm);
    sim.enable_verification();
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

    assert!(
        sim.checks_run() > 500,
        "harness must actually run checks, ran {}",
        sim.checks_run()
    );
}

/// Without KSM the same churn must also pass (the KSM conservation
/// invariant simply never runs).
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
    assert!(sim.checks_run() > 0);
}

/// The managed-region run behind Figs. 6–8 accepts the verify mode and
/// completes whole benchmark runs with the Strict harness active: any
/// violation would surface as an error.
#[test]
fn system_api_runs_strict_verified() {
    for (name, seed) in [("soplex", 9u64), ("mcf", 7)] {
        let profile = by_name(name).expect("profile");
        let (r, _) = block_size_experiment(
            &profile,
            managed_region(128, seed),
            GreenDimmConfig::paper_default(),
            None,
            Some(Mode::Strict),
            None,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            r.overhead_fraction < 0.05,
            "{name} overhead {}",
            r.overhead_fraction
        );
        assert!(r.hotplug_events > 0, "{name} ran no hotplug events");
    }
}

/// One VM of the stress run: its footprint and, while KSM scans it, its
/// region. A footprint KSM has ever scanned only grows: merges shrink the
/// allocation behind the driver's back, so the driver's page count is an
/// upper bound a shrink request could overrun.
struct StressVm {
    fp: FootprintDriver,
    region: Option<RegionId>,
    scanned: bool,
}

/// What a stress run exercised, summed over seeds.
#[derive(Debug, Default)]
struct StressCoverage {
    checks: u64,
    offlined: u64,
    onlined: u64,
    stalls: u64,
    migrated_pages: u64,
    rollbacks: u64,
    deep_pd_nacks: u64,
    frames_released: u64,
    cow_breaks: u64,
    unregistered: u64,
}

fn stress_shareable(rng: &mut StdRng, budget: u64) -> Vec<(u64, u64)> {
    let mut left = budget;
    let mut shareable = Vec::new();
    for _ in 0..rng.gen_range(1usize..6) {
        // A few content keys shared across VMs; half of them single pages,
        // which leave unstable-tree candidates for another VM to convert.
        let n = if rng.gen_bool(0.5) {
            1
        } else {
            rng.gen_range(2..budget / 4 + 3)
        };
        if n > left {
            break;
        }
        left -= n;
        shareable.push((rng.gen_range(0u64..10), n));
    }
    shareable
}

/// Lets an allocation that does not fit even in fully on-lined memory
/// fail; every other error is a bug.
fn tolerate_oom(r: greendimm_suite::types::Result<()>, ctx: &str) {
    match r {
        Ok(()) | Err(GdError::OutOfMemory { .. }) => {}
        Err(e) => panic!("{ctx}: {e}"),
    }
}

/// Seeded random interleavings through `EpochSim` under Strict
/// verification: VM footprints start, grow, shrink and stop; KSM regions
/// register and unregister, break CoW and merge; daemon ticks run with
/// faults armed on every memory-manager and daemon site. Every tick and
/// every allocation stall checks the memory, KSM, hysteresis, group and
/// quarantine invariants, so each check crosses the point where the
/// manager settles KSM's deferred frame releases.
fn stress_epoch_sim(seed: u64, steps: u32, cov: &mut StressCoverage) {
    const SELECTORS: [SelectorPolicy; 3] = [
        SelectorPolicy::FreeRemovableFirst,
        SelectorPolicy::RemovableFirst,
        SelectorPolicy::Random,
    ];
    let mut rng = component_rng(seed, "epoch-sim-stress");
    let mm_cfg = MmConfig {
        unmovable_leak_prob: 0.02,
        transient_fail_prob: 0.1,
        ..MmConfig::small_test().with_seed(seed)
    };
    let mut mm = MemoryManager::new(mm_cfg).unwrap();
    let installed = mm.meminfo().installed_pages;
    mm.allocate(installed / 50, PageKind::KernelUnmovable)
        .unwrap();
    let plan = FaultPlan::uniform(0.05);
    mm.set_fault_injector(plan.build(derive_seed(seed, "faults.mm")));
    let gd_cfg = GreenDimmConfig {
        adaptive_off_thr: rng.gen_bool(0.5),
        ..GreenDimmConfig::paper_default()
            .with_seed(seed)
            .with_selector(SELECTORS[rng.gen_range(0..SELECTORS.len())])
    };
    let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
    let mut daemon = Daemon::new(gd_cfg, map);
    daemon.set_fault_injector(plan.build(derive_seed(seed, "faults.daemon")));
    let mut sim = EpochSim::new(mm, daemon, Some(Ksm::new(KsmConfig::default()).unwrap()));
    sim.enable_verification();

    let mut vms: Vec<StressVm> = Vec::new();
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        match rng.gen_range(0u32..12) {
            0 | 1 if vms.len() < 6 => {
                let mut vm = StressVm {
                    fp: FootprintDriver::new(),
                    region: None,
                    scanned: rng.gen_bool(0.7),
                };
                let pages = rng.gen_range(64..installed / 8);
                tolerate_oom(sim.set_footprint(&mut vm.fp, pages), &ctx);
                let Some(owner) = vm.fp.allocation_id() else {
                    continue;
                };
                if vm.scanned {
                    // At least one unique page, so merges never empty the
                    // allocation.
                    let shareable = stress_shareable(&mut rng, pages - 1);
                    let unique = pages - shareable.iter().map(|(_, n)| n).sum::<u64>();
                    let ksm = sim.ksm.as_mut().unwrap();
                    vm.region = Some(ksm.register_region(owner, shareable, unique));
                }
                vms.push(vm);
            }
            2 | 3 if !vms.is_empty() => {
                let at = rng.gen_range(0..vms.len());
                let vm = &mut vms[at];
                let target = if vm.scanned || rng.gen_bool(0.5) {
                    vm.fp.pages() + rng.gen_range(1..installed / 16)
                } else {
                    rng.gen_range(0..vm.fp.pages() + 1)
                };
                tolerate_oom(sim.set_footprint(&mut vm.fp, target), &ctx);
            }
            4 if !vms.is_empty() => {
                let mut vm = vms.swap_remove(rng.gen_range(0..vms.len()));
                if let Some(r) = vm.region {
                    sim.ksm.as_mut().unwrap().unregister_region(r).unwrap();
                }
                vm.fp.clear(&mut sim.mm).unwrap();
            }
            5 if !vms.is_empty() => {
                let at = rng.gen_range(0..vms.len());
                let vm = &mut vms[at];
                if let Some(r) = vm.region {
                    let ksm = sim.ksm.as_mut().unwrap();
                    if rng.gen_bool(0.2) {
                        ksm.unregister_region(r).unwrap();
                        vm.region = None;
                        cov.unregistered += 1;
                    } else {
                        let (k, n) = (rng.gen_range(0u64..10), rng.gen_range(1u64..64));
                        tolerate_oom(ksm.cow_break(r, k, n, &mut sim.mm).map(drop), &ctx);
                    }
                }
            }
            _ => {
                let dt = SimTime::from_millis(rng.gen_range(50u64..4_000));
                if let Err(e) = sim.step(dt) {
                    panic!("{ctx}: {e}");
                }
            }
        }
    }
    let (d, m) = (&sim.daemon.stats, &sim.mm.stats);
    let ksm = sim.ksm.as_ref().unwrap().stats();
    cov.checks += sim.checks_run();
    cov.offlined += d.offline_events;
    cov.onlined += d.online_events;
    cov.stalls += d.allocation_stalls;
    cov.migrated_pages += m.migrated_pages;
    cov.rollbacks += m.rollbacks;
    cov.deep_pd_nacks += d.deep_pd_nacks;
    cov.frames_released += ksm.pages_sharing;
    cov.cow_breaks += ksm.cow_breaks;
}

/// The tier-1 seed corpus of the `EpochSim` stress: every path the
/// invariants guard is crossed, and no check fails.
#[test]
fn seeded_epoch_sim_stress_is_invariant_clean() {
    let mut cov = StressCoverage::default();
    for seed in 0..32 {
        stress_epoch_sim(seed, 300, &mut cov);
    }
    assert!(cov.checks > 50_000, "{cov:?}");
    assert!(cov.offlined > 500 && cov.onlined > 300, "{cov:?}");
    assert!(cov.stalls > 50, "{cov:?}");
    assert!(cov.migrated_pages > 0 && cov.rollbacks > 0, "{cov:?}");
    assert!(cov.deep_pd_nacks > 0, "{cov:?}");
    assert!(cov.frames_released > 0 && cov.cow_breaks > 0, "{cov:?}");
    assert!(cov.unregistered > 0, "{cov:?}");
}

/// The long seed sweep of the same stress (`cargo test -- --ignored`).
#[test]
#[ignore = "long seed sweep"]
fn seeded_epoch_sim_stress_sweep() {
    let mut cov = StressCoverage::default();
    for seed in 0..400 {
        stress_epoch_sim(seed, 400, &mut cov);
    }
    assert!(cov.frames_released > 0, "{cov:?}");
}
