//! Robustness under injected faults (the `fig_faults` experiment): how
//! GreenDIMM's energy savings and stall overhead degrade as the
//! deterministic fault rate rises across the daemon/mmsim/dram layers.
//!
//! Each point runs the managed region ([`block_size_experiment`]) with
//! [`gd_faults`] injectors wired into the memory manager (pinned-page
//! rejections, mid-migration aborts with rollback, slow migrations) and the
//! daemon (deep power-down entry NACKs, delayed MRS acks, transient
//! buddy-wake failures), then probes the cycle-level DRAM model — with wake
//! latencies stretched when the bench-level injector fires — and evaluates
//! the governor with the observed offline-failure breakdown charged
//! ([`gd_baselines::sanity`]).
//!
//! Determinism contract: every injector stream derives from
//! `derive_seed(seed, layer)`, so a row is a pure function of
//! `(profile, plan, engine, seed)` — byte-identical for any `--jobs` and
//! either time-advance engine — and a rate-0 row is byte-identical to a
//! run with no injectors installed at all.

use gd_baselines::{
    sanity, GovernorContext, GovernorOutcome, GreenDimmGovernor, OfflineFailureBreakdown,
    PowerGovernor, SrfOnly,
};
use gd_dram::{EngineMode, LowPowerPolicy, MemorySystem};
use gd_faults::{FaultPlan, FaultSite, WAKE_STRETCH};
use gd_obs::Telemetry;
use gd_power::DramPowerModel;
use gd_types::config::{DramConfig, InterleaveMode};
use gd_types::rng::derive_seed;
use gd_types::{Fraction, Result};
use gd_verify::Mode;
use gd_workloads::{AppProfile, TraceGenerator};
use greendimm::{DaemonStats, GreenDimmConfig};

use crate::blocks::{block_size_experiment, managed_region, nominal_runtime_s, MANAGED_BYTES};
use crate::energy::energy_cell;

/// The fault rates swept by `fig_faults` (probability per injection site).
pub const FAULT_RATES: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4];

/// Requests in the cycle-level DRAM probe of each point.
const PROBE_REQUESTS: usize = 6_000;

/// One point of the robustness curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Benchmark name.
    pub app: String,
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

/// Runs one robustness point of `profile` on 128 MB blocks under `plan`
/// (`fig_faults` uses [`FaultPlan::uniform`] at each of [`FAULT_RATES`]).
/// `None` installs no injectors anywhere; `Some(plan)` installs per-layer
/// injectors even when the plan is inactive — the rate-0 byte-identity
/// test relies on an installed-but-inactive injector being
/// indistinguishable from none.
///
/// # Errors
///
/// Propagates simulator-setup errors; with `Some(Mode::Strict)`, also any
/// co-simulation invariant or governor-sanity violation.
pub fn robustness_experiment(
    profile: &AppProfile,
    plan: Option<&FaultPlan>,
    engine: EngineMode,
    seed: u64,
    verify: Option<Mode>,
    with_telemetry: bool,
) -> Result<(RobustnessRow, Option<Telemetry>)> {
    let (run, mut tele) = block_size_experiment(
        profile,
        managed_region(128, seed),
        GreenDimmConfig::paper_default(),
        plan,
        verify,
        with_telemetry.then_some("faults"),
    )?;

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
    }
    .with_engine_mode(engine);
    let trace = TraceGenerator::new(profile.clone(), seed)
        .take_wrapped(PROBE_REQUESTS, dram_cfg.total_capacity_bytes());
    let probe_stats = probe.run_trace(trace)?;

    // --- Governor evaluation with the failure breakdown charged. ---
    let runtime_s = nominal_runtime_s(profile)?;
    let ctx = GovernorContext {
        interleaved: true,
        footprint_bytes: profile.footprint_bytes(),
        capacity_bytes: MANAGED_BYTES,
        ranks: dram_cfg.org.total_ranks(),
        banks_per_rank: dram_cfg.org.banks_per_rank(),
        measured_sr_fraction: Fraction::new(probe_stats.mean_self_refresh_fraction())?,
        runtime_s,
        // Energy is gated by what actually sits in deep power-down — the
        // time-averaged register down-fraction, not the off-lined capacity.
        // NACK quarantines and degraded (shallow-PD) groups show up here.
        offline_fraction: Fraction::new(run.down_fraction_avg)?,
        offline_failures: run.mm_failures,
    };
    let gd = GreenDimmGovernor {
        overhead_fraction: run.overhead_fraction.max(0.0),
    };
    let gd_out = gd.evaluate(&ctx);
    // The baseline never off-lines memory, so its context carries neither
    // an offline fraction nor the failures off-lining caused.
    let srf_ctx = GovernorContext {
        offline_fraction: Fraction::ZERO,
        offline_failures: OfflineFailureBreakdown::default(),
        ..ctx
    };
    let srf_out = SrfOnly.evaluate(&srf_ctx);
    if verify.is_some() {
        gd_verify::strict(sanity::check(&ctx, &gd_out))?;
        gd_verify::strict(sanity::check(&srf_ctx, &srf_out))?;
    }
    let model = DramPowerModel::new(dram_cfg)?;
    let energy_j = |out: &GovernorOutcome| -> Result<f64> {
        let (runtime, dram_w) = energy_cell(&model, profile, runtime_s, Fraction::lit(0.2), out)?;
        Ok(dram_w * runtime)
    };
    let energy_savings = 1.0 - energy_j(&gd_out)? / energy_j(&srf_out)?;

    let bench_fired = bench_inj
        .as_ref()
        .map_or(0, gd_faults::FaultInjector::total_fired);
    if let (Some(t), Some(f)) = (tele.as_mut(), bench_inj.as_ref()) {
        f.export_telemetry(t, "faults.bench");
    }
    Ok((
        RobustnessRow {
            app: run.app,
            offlined_gib_avg: run.offlined_gib_avg,
            overhead_fraction: gd_out.overhead_s / runtime_s,
            energy_savings,
            faults_injected: run.faults_fired + bench_fired,
            retries: run.retries,
            rollbacks: run.rollbacks,
            degraded_groups: run.degraded_groups,
            probe_latency_cycles: probe_stats.read_latency.mean().unwrap_or(0.0),
            offline_failures: run.mm_failures,
            daemon: run.daemon,
        },
        tele,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_workloads::by_name;

    #[test]
    fn rate_zero_is_byte_identical_to_no_injectors() {
        let mcf = by_name("mcf").unwrap();
        let inactive = FaultPlan::uniform(Fraction::ZERO);
        let (with_plan, t1) = robustness_experiment(
            &mcf,
            Some(&inactive),
            EngineMode::EventDriven,
            7,
            None,
            true,
        )
        .unwrap();
        let (without, t2) =
            robustness_experiment(&mcf, None, EngineMode::EventDriven, 7, None, true).unwrap();
        assert_eq!(with_plan, without);
        assert_eq!(t1.unwrap().render_jsonl("p"), t2.unwrap().render_jsonl("p"));
    }

    #[test]
    fn faulted_rows_agree_across_engine_modes() {
        let mcf = by_name("mcf").unwrap();
        let run = |engine| {
            let plan = FaultPlan::uniform(Fraction::lit(0.2));
            robustness_experiment(&mcf, Some(&plan), engine, 11, Some(Mode::Strict), true).unwrap()
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
        let run = |plan: Option<&FaultPlan>| {
            robustness_experiment(&mcf, plan, EngineMode::EventDriven, 3, None, false)
                .unwrap()
                .0
        };
        let clean = run(None);
        let faulty = run(Some(&FaultPlan::uniform(Fraction::lit(0.4))));
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
