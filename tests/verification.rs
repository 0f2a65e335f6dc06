//! End-to-end runtime verification: the full co-simulation (daemon +
//! memory manager + KSM + footprint churn, including the demand-driven
//! on-lining stall path) must run under the Strict invariant harness with
//! zero violations, and the harness must actually be exercising checks.

use greendimm_suite::bench::{block_size_experiment, managed_region};
use greendimm_suite::core::{
    Daemon, EpochSim, FootprintDriver, GreenDimmConfig, GroupMap, SelectorPolicy,
};
use greendimm_suite::dram::EngineMode;
use greendimm_suite::faults::{FaultPlan, FaultSite, FaultTrigger};
use greendimm_suite::ksm::{Ksm, KsmConfig, RegionId};
use greendimm_suite::mmsim::{MemoryManager, MmConfig, PageKind};
use greendimm_suite::types::ids::SubArrayGroup;
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

/// What the skip twin stress exercised, summed over seeds.
#[derive(Debug, Default)]
struct SkipCoverage {
    /// Long steps in which the event-driven twin skipped ticks.
    skips: u64,
    /// Long steps that skipped ticks with the adaptive threshold on.
    adaptive_skips: u64,
    /// Long steps that started with free memory between the edges but a
    /// deep power-down retry pending, so the twin ran its ticks.
    refused_for_nack: u64,
    /// Off- and on-linings.
    hotplug: u64,
}

/// Asserts that the two sims hold the same daemon and memory state.
fn assert_twins_agree(reference: &EpochSim, twin: &EpochSim, ctx: &str) {
    let (a, b) = (&reference.daemon, &twin.daemon);
    assert_eq!(reference.now(), twin.now(), "{ctx}: time");
    assert_eq!(a.stats, b.stats, "{ctx}: daemon stats");
    assert_eq!(reference.mm.meminfo(), twin.mm.meminfo(), "{ctx}: meminfo");
    assert!(
        reference.mm.offline_flags().eq(twin.mm.offline_flags()),
        "{ctx}: offline flags"
    );
    assert_eq!(
        a.effective_off_thr(),
        b.effective_off_thr(),
        "{ctx}: off threshold"
    );
    let now = reference.now();
    for g in 0..a.group_map().groups() {
        let g = SubArrayGroup::new(g);
        let (ra, rb) = (a.registers(), b.registers());
        assert_eq!(ra.is_down(g), rb.is_down(g), "{ctx}: {g} down");
        assert_eq!(ra.down_since(g), rb.down_since(g), "{ctx}: {g} down since");
        assert_eq!(
            ra.residency(g, now),
            rb.residency(g, now),
            "{ctx}: {g} residency"
        );
        assert_eq!(a.recovery(g), b.recovery(g), "{ctx}: {g} recovery");
    }
}

/// True when free memory lies between the on- and off-lining edges, where
/// a daemon tick neither on- nor off-lines, and the off threshold sits at
/// its configured value.
fn quiet_but_for_retries(sim: &EpochSim) -> bool {
    let info = sim.mm.meminfo();
    let installed = info.installed_pages as f64;
    let cfg = sim.daemon.config();
    let off_floor = (sim.daemon.effective_off_thr() * installed) as u64;
    let on_floor = (cfg.on_thr * installed) as u64;
    (on_floor..=off_floor + sim.mm.block_pages()).contains(&info.free_pages)
        && sim.daemon.effective_off_thr() == cfg.off_thr
}

/// Seeded twins of `EpochSim` without KSM, telemetry or verification, with
/// faults armed: the stepped reference runs every monitor tick in 1 s
/// steps, the event-driven twin takes the same time in one long step and
/// skips the ticks its daemon finds idle. VM footprints start, grow,
/// shrink and stop on both between steps. After every step the two must
/// hold the same daemon counters, memory, register file and recovery
/// state.
fn skip_twin_stress(seed: u64, steps: u32, cov: &mut SkipCoverage) {
    const SELECTORS: [SelectorPolicy; 3] = [
        SelectorPolicy::FreeRemovableFirst,
        SelectorPolicy::RemovableFirst,
        SelectorPolicy::Random,
    ];
    let mut rng = component_rng(seed, "epoch-sim-skip-twins");
    let adaptive = rng.gen_bool(0.5);
    let selector = SELECTORS[rng.gen_range(0..SELECTORS.len())];
    // Frequent entry NACKs leave retries pending at step boundaries.
    let plan = FaultPlan::uniform(0.05).with(FaultSite::DeepPdEntryNack, FaultTrigger::Prob(0.3));
    let build = |engine: EngineMode| {
        let mm_cfg = MmConfig {
            unmovable_leak_prob: 0.02,
            transient_fail_prob: 0.1,
            ..MmConfig::small_test().with_seed(seed)
        };
        let mut mm = MemoryManager::new(mm_cfg).unwrap();
        let installed = mm.meminfo().installed_pages;
        mm.allocate(installed / 50, PageKind::KernelUnmovable)
            .unwrap();
        mm.set_fault_injector(plan.build(derive_seed(seed, "faults.mm")));
        let gd_cfg = GreenDimmConfig {
            adaptive_off_thr: adaptive,
            ..GreenDimmConfig::paper_default()
                .with_seed(seed)
                .with_selector(selector)
        };
        let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
        let mut daemon = Daemon::new(gd_cfg, map);
        daemon.set_fault_injector(plan.build(derive_seed(seed, "faults.daemon")));
        let mut sim = EpochSim::new(mm, daemon, None);
        sim.set_engine(engine);
        sim
    };
    let mut reference = build(EngineMode::Stepped);
    let mut twin = build(EngineMode::EventDriven);
    let installed = reference.mm.meminfo().installed_pages;
    let mut vms: Vec<(FootprintDriver, FootprintDriver)> = Vec::new();
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        match rng.gen_range(0u32..8) {
            0 if vms.len() < 5 => {
                let pages = rng.gen_range(64..installed / 6);
                let (mut a, mut b) = (FootprintDriver::new(), FootprintDriver::new());
                let ra = reference.set_footprint(&mut a, pages);
                let rb = twin.set_footprint(&mut b, pages);
                assert_eq!(ra, rb, "{ctx}: start");
                vms.push((a, b));
            }
            1 if !vms.is_empty() => {
                let at = rng.gen_range(0..vms.len());
                let (a, b) = &mut vms[at];
                let target = rng.gen_range(0..a.pages() * 2 + 64);
                let ra = reference.set_footprint(a, target);
                let rb = twin.set_footprint(b, target);
                assert_eq!(ra, rb, "{ctx}: resize");
            }
            2 if !vms.is_empty() => {
                let (mut a, mut b) = vms.swap_remove(rng.gen_range(0..vms.len()));
                a.clear(&mut reference.mm).unwrap();
                b.clear(&mut twin.mm).unwrap();
            }
            _ => {
                let secs = if rng.gen_bool(0.5) {
                    rng.gen_range(1u64..8)
                } else {
                    rng.gen_range(8u64..400)
                };
                let pending_retry = (0..twin.daemon.group_map().groups()).any(|g| {
                    twin.daemon
                        .recovery(SubArrayGroup::new(g))
                        .is_some_and(|r| r.consecutive_nacks > 0 && !r.degraded)
                });
                let waits_on_retry = pending_retry && quiet_but_for_retries(&twin);
                let bodies = twin.daemon.work().bodies;
                let ticks = twin.daemon.stats.ticks;
                for _ in 0..secs {
                    reference.step(SimTime::from_secs(1)).unwrap();
                }
                twin.step(SimTime::from_secs(secs)).unwrap();
                let ran = twin.daemon.work().bodies - bodies;
                let skipped = twin.daemon.stats.ticks - ticks - ran;
                cov.skips += u64::from(skipped > 0);
                cov.adaptive_skips += u64::from(skipped > 0 && adaptive);
                cov.refused_for_nack += u64::from(waits_on_retry && ran > 0);
            }
        }
        assert_twins_agree(&reference, &twin, &ctx);
    }
    assert_eq!(
        reference.daemon.work().bodies,
        reference.daemon.stats.ticks,
        "seed {seed}: the stepped engine runs every tick"
    );
    cov.hotplug += reference.daemon.stats.hotplug_events();
}

/// The idle-tick skip is exact: the stepped and event-driven engines agree
/// after every step of seeded random churn, across all three selectors,
/// adaptive and fixed thresholds, and armed faults.
#[test]
fn idle_tick_skip_matches_the_stepped_engine() {
    let mut cov = SkipCoverage::default();
    for seed in 0..24 {
        skip_twin_stress(seed, 150, &mut cov);
    }
    assert!(cov.skips > 100, "{cov:?}");
    assert!(cov.adaptive_skips > 0, "{cov:?}");
    assert!(cov.refused_for_nack > 0, "{cov:?}");
    assert!(cov.hotplug > 500, "{cov:?}");
}
