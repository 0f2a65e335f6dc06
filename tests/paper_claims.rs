//! End-to-end checks of the paper's qualitative claims, spanning every
//! crate in the workspace.

use greendimm_suite::baselines::{
    GovernorContext, GreenDimmGovernor, Pasr, PowerGovernor, RamZzz, SrfOnly,
};
use greendimm_suite::bench::energy::{evaluate_app_opts, MeasureOpts};
use greendimm_suite::bench::{block_size_experiment, find_row, managed_region, run_vm_trace};
use greendimm_suite::core::GreenDimmConfig;
use greendimm_suite::dram::{LowPowerPolicy, MemorySystem};
use greendimm_suite::fleet::HostSimConfig;
use greendimm_suite::power::{ActivityProfile, DramPowerModel, PowerGating};
use greendimm_suite::types::config::{DramConfig, InterleaveMode};
use greendimm_suite::types::Fraction;
use greendimm_suite::workloads::{by_name, AppProfile, TraceGenerator};

fn small_profile() -> AppProfile {
    AppProfile {
        footprint_mib: 4,
        ..by_name("libquantum").expect("profile")
    }
}

/// §3.3: interleaving eliminates the self-refresh opportunity even for a
/// tiny footprint, while disabling it frees most ranks to sleep.
#[test]
fn interleaving_defeats_rank_granularity_power_management() {
    let cfg = DramConfig::small_test();
    let p = small_profile();
    let run = |mode| {
        let mut sys = MemorySystem::new(cfg.with_interleave(mode), LowPowerPolicy::srf_default())
            .expect("config");
        let mut gen = TraceGenerator::new(p.clone(), 3);
        sys.run_trace(gen.take(6_000)).expect("trace")
    };
    let with = run(InterleaveMode::Interleaved);
    let without = run(InterleaveMode::Linear);
    assert!(with.mean_self_refresh_fraction() < 0.15);
    assert!(without.mean_self_refresh_fraction() > 0.35);
}

/// §6.2: with interleaving on, only GreenDIMM reduces DRAM energy; the
/// rank/bank-granularity baselines are stuck at (or above) srf_only.
#[test]
fn only_greendimm_saves_energy_under_interleaving() {
    let rows = evaluate_app_opts(
        &small_profile(),
        DramConfig::small_test(),
        6_000,
        1,
        MeasureOpts::default(),
    )
    .expect("energy");
    let srf = find_row(&rows, "srf_only", true).expect("cell").dram_norm;
    let rz = find_row(&rows, "RAMZzz", true).expect("cell").dram_norm;
    let pasr = find_row(&rows, "PASR", true).expect("cell").dram_norm;
    let gd = find_row(&rows, "GreenDIMM", true).expect("cell").dram_norm;
    assert!(gd < srf * 0.85, "GreenDIMM {gd} vs srf {srf}");
    assert!(
        rz >= srf * 0.98,
        "RAMZzz cannot beat srf_only w/ interleaving"
    );
    assert!(
        pasr >= srf * 0.98,
        "PASR cannot beat srf_only w/ interleaving"
    );
    assert!(gd < rz && gd < pasr);
}

/// Governors agree with the paper's ordering when interleaving is off:
/// everything with idle ranks saves energy, and deep power-down (gating
/// static power too) saves the most at equal residency.
#[test]
fn governor_ordering_without_interleaving() {
    let ctx = GovernorContext {
        interleaved: false,
        footprint_bytes: 1 << 30,
        capacity_bytes: 64 << 30,
        ranks: 16,
        banks_per_rank: 16,
        measured_sr_fraction: Fraction::lit(0.5),
        runtime_s: 100.0,
        offline_fraction: Fraction::lit(0.85),
        offline_failures: Default::default(),
    };
    let model = DramPowerModel::new(DramConfig::ddr4_2133_64gb()).expect("paper preset");
    let power = |g: &dyn PowerGovernor| {
        let out = g.evaluate(&ctx);
        let awake = out.sr_fraction.complement();
        let act = ActivityProfile {
            bandwidth_util: Fraction::lit(0.1),
            read_fraction: Fraction::lit(0.7),
            act_per_access: 0.5,
            active_standby: awake * Fraction::lit(0.5),
            precharge_standby: awake * Fraction::lit(0.5),
            power_down: Fraction::ZERO,
            self_refresh: out.sr_fraction,
        };
        model.analytic_power_w(&act, &out.gating)
    };
    let srf = power(&SrfOnly);
    let rz = power(&RamZzz);
    let pasr = power(&Pasr);
    let gd = power(&GreenDimmGovernor::default());
    assert!(rz < srf, "RAMZzz consolidates more ranks into SR");
    assert!(pasr < srf, "PASR stops refresh of empty banks");
    assert!(gd < srf, "GreenDIMM gates background power");
}

/// §6.2: GreenDIMM's performance overhead stays small (paper: ~1-3 %,
/// Fig. 7), mcf included: it is Fig. 7's worst case.
#[test]
fn overhead_stays_within_a_few_percent() {
    for (name, seed) in [("libquantum", 1u64), ("povray", 2), ("mcf", 1)] {
        let profile = by_name(name).expect("profile");
        let (r, _) = block_size_experiment(
            &profile,
            managed_region(128, seed),
            GreenDimmConfig::paper_default(),
            None,
            None,
            None,
        )
        .expect("co-sim");
        assert!(
            r.overhead_fraction < 0.05,
            "{name} overhead {}",
            r.overhead_fraction
        );
    }
}

/// §6.3: KSM lets GreenDIMM off-line more blocks (Fig. 12) and never
/// breaks the co-simulation's accounting.
#[test]
fn ksm_increases_offlined_blocks_in_vm_trace() {
    let cfg = HostSimConfig {
        duration_s: 2 * 3600,
        ..HostSimConfig::paper_256gb()
    };
    let (base, _) = run_vm_trace(&cfg, false).expect("co-sim");
    let (ksm, _) = run_vm_trace(&HostSimConfig { ksm: true, ..cfg }, false).expect("co-sim");
    assert!(ksm.mean_offline_blocks() >= base.mean_offline_blocks());
    assert!(ksm.ksm_released_pages > 0);
}

/// §4.3: the deep power-down state eliminates most background power for
/// off-lined capacity — the end-to-end power chain agrees.
#[test]
fn deep_power_down_gates_background_power_end_to_end() {
    let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb()).expect("paper preset");
    let idle = ActivityProfile::idle_standby();
    let full = model.analytic_power_w(&idle, &PowerGating::none());
    // 45% of capacity off-lined, as the paper's Fig. 12 average.
    let gated = model.analytic_power_w(&idle, &PowerGating::deep_pd(Fraction::lit(0.45)));
    let saved = 1.0 - gated / full;
    assert!(
        (0.25..0.50).contains(&saved),
        "saved {saved:.2}, paper reports 32% DRAM power at 256 GB"
    );
}
