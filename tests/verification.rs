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
use greendimm_suite::types::{Fraction, GdError, SimTime};
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
        transient_fail_prob: Fraction::lit(0.1),
        ..MmConfig::small_test().with_seed(seed)
    };
    let mut mm = MemoryManager::new(mm_cfg).unwrap();
    let installed = mm.meminfo().installed_pages;
    mm.allocate(installed / 50, PageKind::KernelUnmovable)
        .unwrap();
    let plan = FaultPlan::uniform(Fraction::lit(0.05));
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

/// Stepped and event-driven twins for the skip stresses: a faulty memory
/// manager with a kernel reservation and a daemon with the selector and
/// adaptive threshold drawn from `rng`, both with faults armed. Frequent
/// entry NACKs leave retries pending at step boundaries.
fn skip_twins(seed: u64, rng: &mut StdRng, ksm: Option<KsmConfig>) -> (EpochSim, EpochSim) {
    const SELECTORS: [SelectorPolicy; 3] = [
        SelectorPolicy::FreeRemovableFirst,
        SelectorPolicy::RemovableFirst,
        SelectorPolicy::Random,
    ];
    let gd_cfg = GreenDimmConfig {
        adaptive_off_thr: rng.gen_bool(0.5),
        ..GreenDimmConfig::paper_default()
            .with_seed(seed)
            .with_selector(SELECTORS[rng.gen_range(0..SELECTORS.len())])
    };
    let plan = FaultPlan::uniform(Fraction::lit(0.05)).with(
        FaultSite::DeepPdEntryNack,
        FaultTrigger::Prob(Fraction::lit(0.3)),
    );
    let build = |engine: EngineMode| {
        let mm_cfg = MmConfig {
            transient_fail_prob: Fraction::lit(0.1),
            ..MmConfig::small_test().with_seed(seed)
        };
        let mut mm = MemoryManager::new(mm_cfg).unwrap();
        let installed = mm.meminfo().installed_pages;
        mm.allocate(installed / 50, PageKind::KernelUnmovable)
            .unwrap();
        mm.set_fault_injector(plan.build(derive_seed(seed, "faults.mm")));
        let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
        let mut daemon = Daemon::new(gd_cfg, map);
        daemon.set_fault_injector(plan.build(derive_seed(seed, "faults.daemon")));
        let ksm = ksm.map(|cfg| Ksm::new(cfg).unwrap());
        let mut sim = EpochSim::new(mm, daemon, ksm);
        sim.set_engine(engine);
        sim
    };
    (build(EngineMode::Stepped), build(EngineMode::EventDriven))
}

/// Seeded twins of `EpochSim` without KSM, telemetry or verification, with
/// faults armed: the stepped reference runs every monitor tick in 1 s
/// steps, the event-driven twin takes the same time in one long step and
/// skips the ticks its daemon finds idle. VM footprints start, grow,
/// shrink and stop on both between steps. After every step the two must
/// hold the same daemon counters, memory, register file and recovery
/// state.
fn skip_twin_stress(seed: u64, steps: u32, cov: &mut SkipCoverage) {
    let mut rng = component_rng(seed, "epoch-sim-skip-twins");
    let (mut reference, mut twin) = skip_twins(seed, &mut rng, None);
    let adaptive = twin.daemon.config().adaptive_off_thr;
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

/// What the KSM skip twin stress exercised, summed over seeds.
#[derive(Debug, Default)]
struct KsmSkipCoverage {
    /// Steps with no region registered in which the twin skipped ticks.
    empty: u64,
    /// Steps with regions registered in which the twin skipped ticks.
    skips: u64,
    /// Steps with regions registered that began idle, too far below the
    /// off-lining edge for the first second's merges to cross it, and
    /// still ran a body: KSM's frees crossed the edge after skipped ticks.
    crossings: u64,
    /// Frames KSM held released at the end of each run.
    frames_released: u64,
    /// Copy-on-write breaks.
    cow_breaks: u64,
}

/// Asserts that the two sims' KSM daemons hold the same books.
fn assert_ksm_twins_agree(reference: &EpochSim, twin: &EpochSim, ctx: &str) {
    let (a, b) = (reference.ksm.as_ref().unwrap(), twin.ksm.as_ref().unwrap());
    assert_eq!(a.stats(), b.stats(), "{ctx}: ksm stats");
    assert_eq!(
        a.region_accounting(),
        b.region_accounting(),
        "{ctx}: regions"
    );
    assert_eq!(
        a.unstable_candidates(),
        b.unstable_candidates(),
        "{ctx}: unstable tree"
    );
}

/// One VM of the KSM twin stress, held by both twins.
struct TwinVm {
    fps: (FootprintDriver, FootprintDriver),
    region: Option<RegionId>,
    /// Registered with KSM once: merges shrink the allocation behind the
    /// drivers' backs, so such a footprint only grows.
    scanned: bool,
}

/// Stops `vm` on both twins.
fn stop_twin_vm(reference: &mut EpochSim, twin: &mut EpochSim, vm: TwinVm) {
    let (mut a, mut b) = vm.fps;
    if let Some(r) = vm.region {
        reference
            .ksm
            .as_mut()
            .unwrap()
            .unregister_region(r)
            .unwrap();
        twin.ksm.as_mut().unwrap().unregister_region(r).unwrap();
    }
    a.clear(&mut reference.mm).unwrap();
    b.clear(&mut twin.mm).unwrap();
}

/// Seeded twins of `EpochSim` with KSM on and telemetry and verification
/// off, faults armed and the scan rate drawn from below one page to
/// thousands of pages a second. VMs start (most registering a region),
/// grow, shrink, break copy-on-write and stop, all of them at times, so
/// stretches with no region registered come and go. Both twins take the
/// same steps, whole seconds or fractional ones: the stepped reference
/// runs every body, the event-driven twin skips the ticks its daemon finds
/// idle. After every step the two must hold the same daemon counters,
/// memory, register file, recovery state and KSM books.
fn ksm_skip_twin_stress(seed: u64, steps: u32, cov: &mut KsmSkipCoverage) {
    let mut rng = component_rng(seed, "epoch-sim-ksm-skip-twins");
    // At one page a scan or a few, merges cross the off-lining edge by a
    // page or two; at a period that does not divide a second, the scan
    // budget carries a fraction between slices.
    let ksm_cfg = KsmConfig {
        pages_to_scan: 1 << rng.gen_range(0u32..9),
        scan_period: SimTime::from_millis(rng.gen_range(20u64..1_500)),
    };
    // Pages one second of scanning can release, rounded up.
    let per_second = ksm_cfg.pages_to_scan * 1_000 / ksm_cfg.scan_period.as_millis().max(1) + 2;
    let (mut reference, mut twin) = skip_twins(seed, &mut rng, Some(ksm_cfg));
    let installed = reference.mm.meminfo().installed_pages;
    let mut vms: Vec<TwinVm> = Vec::new();
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        match rng.gen_range(0u32..12) {
            0 | 1 if vms.len() < 5 => {
                let mut vm = TwinVm {
                    fps: (FootprintDriver::new(), FootprintDriver::new()),
                    region: None,
                    scanned: rng.gen_bool(0.7),
                };
                let pages = rng.gen_range(64..installed / 8);
                let ra = reference.set_footprint(&mut vm.fps.0, pages);
                let rb = twin.set_footprint(&mut vm.fps.1, pages);
                assert_eq!(ra, rb, "{ctx}: start");
                let (Some(a), Some(b)) = (vm.fps.0.allocation_id(), vm.fps.1.allocation_id())
                else {
                    continue;
                };
                if vm.scanned {
                    // At least one unique page, so merges never empty the
                    // allocation, and half the rest one bulk content, so
                    // merges run long enough to cross the edge.
                    let mut shareable = stress_shareable(&mut rng, pages - 1);
                    let left = pages - 1 - shareable.iter().map(|(_, n)| n).sum::<u64>();
                    shareable.push((rng.gen_range(0u64..10), left / 2));
                    let unique = pages - shareable.iter().map(|(_, n)| n).sum::<u64>();
                    let ksm = reference.ksm.as_mut().unwrap();
                    let r = ksm.register_region(a, shareable.clone(), unique);
                    let ksm = twin.ksm.as_mut().unwrap();
                    assert_eq!(ksm.register_region(b, shareable, unique), r, "{ctx}");
                    vm.region = Some(r);
                }
                vms.push(vm);
            }
            2 if !vms.is_empty() => {
                let at = rng.gen_range(0..vms.len());
                let vm = &mut vms[at];
                let target = if vm.scanned || rng.gen_bool(0.5) {
                    vm.fps.0.pages() + rng.gen_range(1..installed / 16)
                } else {
                    rng.gen_range(0..vm.fps.0.pages() + 1)
                };
                let ra = reference.set_footprint(&mut vm.fps.0, target);
                let rb = twin.set_footprint(&mut vm.fps.1, target);
                assert_eq!(ra, rb, "{ctx}: resize");
            }
            3 if !vms.is_empty() => {
                let vm = vms.swap_remove(rng.gen_range(0..vms.len()));
                stop_twin_vm(&mut reference, &mut twin, vm);
            }
            4 if !vms.is_empty() => {
                let at = rng.gen_range(0..vms.len());
                if let Some(r) = vms[at].region {
                    let (k, n) = (rng.gen_range(0u64..10), rng.gen_range(1u64..64));
                    let ra = reference
                        .ksm
                        .as_mut()
                        .unwrap()
                        .cow_break(r, k, n, &mut reference.mm);
                    let rb = twin.ksm.as_mut().unwrap().cow_break(r, k, n, &mut twin.mm);
                    assert_eq!(ra, rb, "{ctx}: cow break");
                }
            }
            5 if rng.gen_bool(0.3) => {
                for vm in vms.drain(..) {
                    stop_twin_vm(&mut reference, &mut twin, vm);
                }
            }
            _ => {
                let dt = match rng.gen_range(0u32..3) {
                    0 => SimTime::from_millis(rng.gen_range(50u64..4_000)),
                    1 => SimTime::from_secs(rng.gen_range(1u64..8)),
                    _ => SimTime::from_secs(rng.gen_range(8u64..400)),
                };
                let regions = twin.ksm.as_ref().unwrap().region_accounting().len();
                let free = twin.mm.meminfo().free_pages;
                let far_below_edge = twin
                    .daemon
                    .idle_edge(&twin.mm)
                    .is_some_and(|edge| free + per_second <= edge);
                let bodies = twin.daemon.work().bodies;
                let ticks = twin.daemon.stats.ticks;
                reference.step(dt).unwrap();
                twin.step(dt).unwrap();
                let ran = twin.daemon.work().bodies - bodies;
                let skipped = twin.daemon.stats.ticks - ticks - ran;
                cov.empty += u64::from(regions == 0 && skipped > 0);
                cov.skips += u64::from(regions > 0 && skipped > 0);
                cov.crossings += u64::from(regions > 0 && far_below_edge && ran > 0);
            }
        }
        assert_twins_agree(&reference, &twin, &ctx);
        assert_ksm_twins_agree(&reference, &twin, &ctx);
    }
    assert_eq!(
        reference.daemon.work().bodies,
        reference.daemon.stats.ticks,
        "seed {seed}: the stepped engine runs every tick"
    );
    let ksm = reference.ksm.as_ref().unwrap().stats();
    cov.frames_released += ksm.pages_sharing;
    cov.cow_breaks += ksm.cow_breaks;
}

/// The idle-tick skip stays exact with KSM on: the event-driven twin skips
/// ticks, with or without a region registered, until KSM's frees cross the
/// off-lining edge, and the twins agree with the stepped reference after
/// every step.
#[test]
fn idle_tick_skip_with_ksm_matches_the_stepped_engine() {
    let mut cov = KsmSkipCoverage::default();
    for seed in 0..32 {
        ksm_skip_twin_stress(seed, 200, &mut cov);
    }
    assert!(cov.empty > 50, "{cov:?}");
    assert!(cov.skips > 100, "{cov:?}");
    assert!(cov.crossings > 20, "{cov:?}");
    assert!(cov.frames_released > 0 && cov.cow_breaks > 0, "{cov:?}");
}
