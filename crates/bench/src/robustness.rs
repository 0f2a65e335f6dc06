//! Robustness under injected faults (the `fig_faults` experiment): how
//! GreenDIMM's energy savings and stall overhead degrade as the
//! deterministic fault rate rises across the daemon/mmsim/dram layers.
//!
//! Each point co-simulates the managed region with [`gd_faults`] injectors
//! wired into the memory manager (pinned-page rejections, mid-migration
//! aborts with rollback, slow migrations) and the daemon (deep power-down
//! entry NACKs, delayed MRS acks, transient buddy-wake failures), then
//! probes the cycle-level DRAM model — with wake latencies stretched when
//! the bench-level injector fires — and evaluates the governor with the
//! observed offline-failure breakdown charged ([`gd_baselines::sanity`]).
//!
//! Determinism contract: every injector stream derives from
//! `derive_seed(seed, layer)`, so a row is a pure function of
//! `(profile, rate, engine, seed)` — byte-identical for any `--jobs` and
//! either time-advance engine — and a rate-0 row is byte-identical to a
//! run with no injectors installed at all.

use gd_baselines::{
    checked_evaluate, sanity_checker, GovernorContext, GovernorOutcome, GreenDimmGovernor,
    OfflineFailureBreakdown, SrfOnly,
};
use gd_dram::{EngineMode, LowPowerPolicy, MemorySystem};
use gd_faults::{FaultPlan, FaultSite, WAKE_STRETCH};
use gd_mmsim::{MemoryManager, MmConfig, PageKind, PAGE_BYTES};
use gd_obs::Telemetry;
use gd_power::{ActivityProfile, DramPowerModel};
use gd_types::config::{DramConfig, InterleaveMode};
use gd_types::rng::derive_seed;
use gd_types::{Result, SimTime};
use gd_verify::Mode;
use gd_workloads::{AppProfile, TraceGenerator};
use greendimm::{Daemon, DaemonStats, EpochSim, FootprintDriver, GreenDimmConfig, GroupMap};

use crate::blocks::{nominal_runtime_s, MANAGED_BYTES};

/// The fault rates swept by `fig_faults` (probability per injection site).
pub const FAULT_RATES: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4];

/// Requests in the cycle-level DRAM probe of each point.
const PROBE_REQUESTS: usize = 6_000;

/// One point of the robustness curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Benchmark name.
    pub app: String,
    /// Per-site fault probability this row ran with.
    pub fault_rate: f64,
    /// Time-averaged off-lined capacity in GiB.
    pub offlined_gib_avg: f64,
    /// Execution-time increase caused by GreenDIMM under faults (stall
    /// overhead: hotplug time inflated by retries/aborts, interference,
    /// and the failure-time lower bound).
    pub overhead_fraction: f64,
    /// DRAM energy saved vs `srf_only` on the same measurement.
    pub energy_savings: f64,
    /// Faults the mm + daemon + bench injectors fired during the run.
    pub faults_injected: u64,
    /// Daemon retry attempts (quarantine re-entries + buddy-wake retries).
    pub retries: u64,
    /// Mid-migration aborts rolled back transactionally.
    pub rollbacks: u64,
    /// Groups permanently degraded to shallow power-down.
    pub degraded_groups: u64,
    /// Mean read latency of the DRAM probe, in memory cycles (stretched
    /// when the wake-stretch fault fired).
    pub probe_latency_cycles: f64,
    /// Offline-failure breakdown charged to the governor.
    pub offline_failures: OfflineFailureBreakdown,
    /// Full daemon counters after the run.
    pub daemon: DaemonStats,
}

/// Runs one robustness point at `fault_rate` (see [`FAULT_RATES`]).
///
/// # Errors
///
/// Propagates simulator-setup errors; with `Some(Mode::Strict)`, also any
/// co-simulation invariant or governor-sanity violation.
pub fn robustness_experiment(
    profile: &AppProfile,
    fault_rate: f64,
    engine: EngineMode,
    seed: u64,
    verify: Option<Mode>,
    with_telemetry: bool,
) -> Result<(RobustnessRow, Option<Telemetry>)> {
    let plan = (fault_rate > 0.0).then(|| FaultPlan::uniform(fault_rate));
    robustness_experiment_with_plan(
        profile,
        plan.as_ref(),
        fault_rate,
        engine,
        seed,
        verify,
        with_telemetry,
    )
}

/// [`robustness_experiment`] with an explicit fault plan. `None` installs
/// no injectors anywhere; `Some(plan)` installs per-layer injectors even
/// when the plan is inactive — the rate-0 byte-identity test relies on an
/// installed-but-inactive injector being indistinguishable from none.
///
/// # Errors
///
/// Same as [`robustness_experiment`].
#[allow(clippy::too_many_lines)]
pub fn robustness_experiment_with_plan(
    profile: &AppProfile,
    plan: Option<&FaultPlan>,
    fault_rate: f64,
    engine: EngineMode,
    seed: u64,
    verify: Option<Mode>,
    with_telemetry: bool,
) -> Result<(RobustnessRow, Option<Telemetry>)> {
    // --- Managed-region co-simulation with mm + daemon injectors. ---
    let mm_cfg = MmConfig {
        capacity_bytes: MANAGED_BYTES,
        block_bytes: 128 << 20,
        movablecore_bytes: None,
        unmovable_leak_prob: 0.0,
        transient_fail_prob: 0.0,
        seed,
    };
    let mut mm = MemoryManager::new(mm_cfg)?;
    let kernel_pages = mm.meminfo().installed_pages / 100;
    mm.allocate(kernel_pages.max(1), PageKind::KernelUnmovable)?;
    let map = GroupMap::new(MANAGED_BYTES, 64, mm_cfg.block_bytes)?;
    let mut daemon = Daemon::new(GreenDimmConfig::paper_default().with_seed(seed), map);
    if let Some(p) = plan {
        mm.set_fault_injector(p.build(derive_seed(seed, "faults.mm")));
        daemon.set_fault_injector(p.build(derive_seed(seed, "faults.daemon")));
    }
    let mut sim = EpochSim::new(mm, daemon, None);
    if let Some(mode) = verify {
        sim.enable_verification(mode);
    }
    if with_telemetry {
        sim.enable_telemetry();
    }
    sim.settle(120)?;
    let settle_stats = sim.daemon.stats;
    let settle_mm = sim.mm.stats.clone();
    let settle_fired = injector_fired(&sim);

    let runtime_s = nominal_runtime_s(profile);
    let epochs = runtime_s.ceil().clamp(10.0, 1_800.0) as u64;
    let peak_pages = profile.footprint_bytes().min(MANAGED_BYTES * 8 / 10) / PAGE_BYTES;
    let cache_max_pages = (2u64 << 30) / PAGE_BYTES;
    let cache_rate_pages = (24u64 << 20) / PAGE_BYTES;
    let reclaim_period_s = 60;
    let mut fp = FootprintDriver::new();
    let mut cache = FootprintDriver::new();
    let mut offline_gib_sum = 0.0;
    let mut down_groups_sum = 0.0;
    let groups = sim.daemon.group_map().groups() as f64;
    for t in 0..epochs {
        let frac = profile.footprint_fraction_at(t as f64 * runtime_s / epochs as f64);
        let _ = sim.set_footprint(&mut fp, (peak_pages as f64 * frac) as u64);
        let cache_phase = t % reclaim_period_s;
        let cache_target = if cache_phase == 0 && t > 0 {
            cache.pages() / 4
        } else {
            (cache.pages() + cache_rate_pages).min(cache_max_pages)
        };
        let _ = sim.set_footprint(&mut cache, cache_target);
        sim.step(SimTime::from_secs(1))?;
        let info = sim.mm.meminfo();
        offline_gib_sum += (info.offline_pages * PAGE_BYTES) as f64 / (1u64 << 30) as f64;
        down_groups_sum += sim.daemon.registers().down_count() as f64;
    }
    let d = sim.daemon.stats;
    let run_events = d.hotplug_events() - settle_stats.hotplug_events();
    let run_hotplug_time = d.hotplug_time - settle_stats.hotplug_time;
    let failures = OfflineFailureBreakdown {
        pinned: sim.mm.stats.offline_pinned - settle_mm.offline_pinned,
        kernel_block: sim.mm.stats.offline_kernel - settle_mm.offline_kernel,
        migration_aborted: sim.mm.stats.offline_eagain - settle_mm.offline_eagain,
    };
    let rollbacks = sim.mm.stats.rollbacks - settle_mm.rollbacks;
    let offlined_gib_avg = offline_gib_sum / epochs as f64;

    // --- Cycle-level DRAM probe, wake latencies stretched on fault. ---
    let mut bench_inj = plan.map(|p| p.build(derive_seed(seed, "faults.bench")));
    let stretched = bench_inj
        .as_mut()
        .is_some_and(|f| f.should_fire(FaultSite::WakeStretch));
    let dram_cfg = DramConfig::small_test().with_interleave(InterleaveMode::Interleaved);
    let mut probe = if stretched {
        MemorySystem::with_wake_stretch(dram_cfg, LowPowerPolicy::srf_default(), WAKE_STRETCH)?
    } else {
        MemorySystem::new(dram_cfg, LowPowerPolicy::srf_default())?
    };
    probe.set_engine_mode(engine);
    let cap = dram_cfg.total_capacity_bytes();
    let mut gen = TraceGenerator::new(profile.clone(), seed);
    let trace: Vec<_> = gen
        .take(PROBE_REQUESTS)
        .into_iter()
        .map(|mut r| {
            r.addr %= cap;
            r
        })
        .collect();
    let probe_stats = probe.run_trace(trace)?;
    let probe_latency = probe_stats.read_latency.mean().unwrap_or(0.0);

    // --- Governor evaluation with the failure breakdown charged. ---
    let interference_s = greendimm::system::INTERFERENCE_COEFF
        * run_events as f64
        * profile.mpki.max(0.1)
        * (profile.footprint_bytes() as f64 / (1u64 << 30) as f64);
    let cosim_overhead_s = run_hotplug_time.as_secs_f64() + interference_s + 0.001 * epochs as f64;
    let ctx = GovernorContext {
        interleaved: true,
        footprint_bytes: profile.footprint_bytes(),
        capacity_bytes: MANAGED_BYTES,
        ranks: dram_cfg.org.total_ranks(),
        banks_per_rank: dram_cfg.org.banks_per_rank(),
        measured_sr_fraction: probe_stats.mean_self_refresh_fraction(),
        runtime_s,
        // Energy is gated by what actually sits in deep power-down — the
        // time-averaged register down-fraction, not the off-lined capacity.
        // NACK quarantines and degraded (shallow-PD) groups show up here.
        offline_fraction: (down_groups_sum / epochs as f64 / groups).clamp(0.0, 1.0),
        offline_failures: failures,
    };
    let gd = GreenDimmGovernor {
        overhead_fraction: (cosim_overhead_s / runtime_s).max(0.0),
    };
    let mut sanity = sanity_checker(verify.unwrap_or(Mode::Record));
    let gd_out = checked_evaluate(&gd, &ctx, &mut sanity)?;
    // The baseline never off-lines memory, so its context carries neither
    // an offline fraction nor the failures off-lining caused.
    let srf_ctx = GovernorContext {
        offline_fraction: 0.0,
        offline_failures: OfflineFailureBreakdown::default(),
        ..ctx
    };
    let srf_out = checked_evaluate(&SrfOnly, &srf_ctx, &mut sanity)?;
    let model = DramPowerModel::new(dram_cfg)?;
    let gd_j = dram_energy_j(&model, profile, &ctx, &gd_out);
    let srf_j = dram_energy_j(&model, profile, &ctx, &srf_out);

    let faults_injected = injector_fired(&sim) - settle_fired
        + bench_inj
            .as_ref()
            .map_or(0, gd_faults::FaultInjector::total_fired);
    sim.export_telemetry("faults");
    let mut tele = sim.telemetry.take();
    if let (Some(t), Some(f)) = (tele.as_mut(), bench_inj.as_ref()) {
        f.export_telemetry(t, "faults.bench");
    }
    Ok((
        RobustnessRow {
            app: profile.name.to_string(),
            fault_rate,
            offlined_gib_avg,
            overhead_fraction: gd_out.overhead_s / runtime_s,
            energy_savings: 1.0 - gd_j / srf_j,
            faults_injected,
            retries: d.retries - settle_stats.retries,
            rollbacks,
            degraded_groups: sim.daemon.degraded_groups(),
            probe_latency_cycles: probe_latency,
            offline_failures: failures,
            daemon: d,
        },
        tele,
    ))
}

/// Total faults fired across the co-simulation's mm + daemon injectors.
fn injector_fired(sim: &EpochSim) -> u64 {
    sim.mm
        .fault_injector()
        .map_or(0, gd_faults::FaultInjector::total_fired)
        + sim
            .daemon
            .fault_injector()
            .map_or(0, gd_faults::FaultInjector::total_fired)
}

/// DRAM energy for one governor outcome (the `energy_cell` model, reduced
/// to the pieces the robustness curve needs).
fn dram_energy_j(
    model: &DramPowerModel,
    profile: &AppProfile,
    ctx: &GovernorContext,
    out: &GovernorOutcome,
) -> f64 {
    let runtime = ctx.runtime_s + out.overhead_s;
    let lp = (out.sr_fraction + out.pd_fraction).clamp(0.0, 1.0);
    let awake = 1.0 - lp;
    let activity = ActivityProfile {
        bandwidth_util: 0.2,
        read_fraction: profile.read_fraction,
        act_per_access: 1.0 - profile.row_locality,
        active_standby: awake * 0.6,
        precharge_standby: awake * 0.4,
        power_down: out.pd_fraction,
        self_refresh: out.sr_fraction,
    };
    model.analytic_power_w(&activity, &out.gating) * runtime
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_workloads::by_name;

    #[test]
    fn rate_zero_is_byte_identical_to_no_injectors() {
        let mcf = by_name("mcf").unwrap();
        let inactive = FaultPlan::uniform(0.0);
        let (with_plan, t1) = robustness_experiment_with_plan(
            &mcf,
            Some(&inactive),
            0.0,
            EngineMode::EventDriven,
            7,
            None,
            true,
        )
        .unwrap();
        let (without, t2) = robustness_experiment_with_plan(
            &mcf,
            None,
            0.0,
            EngineMode::EventDriven,
            7,
            None,
            true,
        )
        .unwrap();
        assert_eq!(with_plan, without);
        assert_eq!(t1.unwrap().render_jsonl("p"), t2.unwrap().render_jsonl("p"));
    }

    #[test]
    fn faulted_rows_agree_across_engine_modes() {
        let mcf = by_name("mcf").unwrap();
        let run = |engine| {
            robustness_experiment(&mcf, 0.2, engine, 11, Some(Mode::Strict), true).unwrap()
        };
        let (stepped, ts) = run(EngineMode::Stepped);
        let (event, te) = run(EngineMode::EventDriven);
        assert!(stepped.faults_injected > 0, "the plan must bite");
        assert_eq!(stepped, event);
        assert_eq!(ts.unwrap().render_jsonl("p"), te.unwrap().render_jsonl("p"));
    }

    #[test]
    fn rising_fault_rate_raises_overhead() {
        let mcf = by_name("mcf").unwrap();
        let run = |rate| {
            robustness_experiment(&mcf, rate, EngineMode::EventDriven, 3, None, false)
                .unwrap()
                .0
        };
        let clean = run(0.0);
        let faulty = run(0.4);
        assert!(faulty.faults_injected > 0);
        assert!(
            faulty.overhead_fraction >= clean.overhead_fraction,
            "faulty {} vs clean {}",
            faulty.overhead_fraction,
            clean.overhead_fraction
        );
        assert!(clean.energy_savings > 0.0);
    }
}
