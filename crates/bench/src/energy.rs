//! Cycle-level measurement + governor evaluation behind Figs. 3, 9, 10,
//! and the one table Figs. 9 and 10 print.

use crate::report::{f2, header, row};
use crate::sweep::ShardSink;
use crate::BenchArgs;
use gd_baselines::{
    GovernorContext, GovernorOutcome, GreenDimmGovernor, Pasr, PowerGovernor, RamZzz, SrfOnly,
};
use gd_dram::{EngineMode, LowPowerPolicy, MemorySystem, PollCounts};
use gd_power::{ActivityProfile, DramPowerModel, SystemPowerModel};
use gd_types::config::{DramConfig, InterleaveMode, MemSpecKind};
use gd_types::stats::geomean;
use gd_types::{Cycles, Fraction, GdError, Result};
use gd_workloads::{energy_figure_set, estimate_runtime, AppProfile, TraceGenerator};

/// Options for the measurement/evaluation pipeline behind Figs. 3/9/10.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasureOpts {
    /// Replay-validate the full command stream of every cycle-level run
    /// against the independent protocol checker ([`gd_dram::validate`]) and
    /// run every governor outcome under the Strict sanity invariant
    /// ([`gd_baselines::sanity`]); any violation aborts the figure.
    /// Enabled by `--strict-validate` on the figure binaries.
    pub strict_validate: bool,
    /// Time-advance engine for the cycle-level runs. Both engines are
    /// exact; the default is event-driven.
    pub engine: EngineMode,
    /// Memory-generation backend for the figure's platform config and power
    /// model (`--memspec ddr4|ddr5|lpddr4-pasr`). Defaults to the paper's
    /// DDR4 platform, whose outputs are bit-identical to the pre-backend
    /// code.
    pub memspec: MemSpecKind,
}

/// Provenance name of a backend's paper-platform speed grade, used in the
/// config descriptions the provenance hash covers. The DDR4 name matches
/// the pre-backend description strings exactly, so default snapshot
/// headers keep their hash.
#[must_use]
pub fn platform_desc(kind: MemSpecKind) -> &'static str {
    match kind {
        MemSpecKind::Ddr4 => "ddr4-2133",
        MemSpecKind::Ddr5 => "ddr5-4800",
        MemSpecKind::Lpddr4Pasr => "lpddr4-3200",
    }
}

/// What one cycle-level run of a benchmark measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppMeasurement {
    /// Interleaving was enabled.
    pub interleaved: bool,
    /// Mean read latency in memory cycles.
    pub avg_latency_cycles: f64,
    /// Mean rank self-refresh residency.
    pub sr_fraction: Fraction,
    /// Predicted execution time, seconds.
    pub runtime_s: f64,
    /// Sustained fraction of peak bus bandwidth.
    pub bandwidth_util: Fraction,
    /// The run's channel polls ([`MemorySystem::poll_counts`]).
    pub polls: PollCounts,
    /// Memory cycles the run simulated.
    pub cycles: u64,
}

/// The sidecar `work` counters of a figure point's cycle-level runs,
/// summed over them: channel polls, the polls that issued a command, the
/// banks they examined, the cycles simulated, and the ACTs that reopened
/// a row a conflict PRE had just closed. They depend only on the inputs
/// and the engine.
fn dram_work(runs: &[AppMeasurement]) -> [(&'static str, u64); 5] {
    let sum = |count: fn(&AppMeasurement) -> u64| runs.iter().map(count).sum();
    [
        ("polls", sum(|m| m.polls.polls)),
        ("issuing", sum(|m| m.polls.issuing)),
        ("bank_visits", sum(|m| m.polls.bank_visits)),
        ("cycles", sum(|m| m.cycles)),
        ("reopened_rows", sum(|m| m.polls.reopened_rows)),
    ]
}

/// Runs the cycle simulator for `profile` under the given interleave mode
/// and derives runtime via the MLP-aware CPU model. When `tele` is `Some`,
/// the run's DRAM books (per-rank power-state residency, per-channel
/// command counters, per-group deep power-down dwell) are exported under a
/// scope named after the interleave mode.
///
/// # Errors
///
/// Propagates simulator configuration errors; with
/// [`MeasureOpts::strict_validate`], also protocol violations in the
/// scheduler's command stream.
pub fn measure_app(
    profile: &AppProfile,
    cfg: DramConfig,
    mode: InterleaveMode,
    requests: usize,
    seed: u64,
    opts: MeasureOpts,
    tele: Option<&mut gd_obs::Telemetry>,
) -> Result<AppMeasurement> {
    let cfg = cfg.with_interleave(mode);
    let mut sys =
        MemorySystem::new(cfg, LowPowerPolicy::srf_default())?.with_engine_mode(opts.engine);
    if opts.strict_validate {
        sys.enable_command_log();
    }
    let trace = TraceGenerator::new(profile.clone(), seed)
        .take_wrapped(requests, cfg.total_capacity_bytes());
    let stats = sys.run_trace(trace)?;
    if opts.strict_validate {
        let violations = sys.validate_command_log(false);
        if let Some(first) = violations.first() {
            return Err(GdError::InvalidState(format!(
                "{} protocol violation(s) in {} under {mode:?}; first: {first}",
                violations.len(),
                profile.name,
            )));
        }
    }
    if let Some(tele) = tele {
        let scope = if mode.is_interleaved() {
            "interleaved"
        } else {
            "linear"
        };
        sys.export_telemetry(tele, scope);
    }
    let avg_latency = stats.read_latency.mean().unwrap_or(60.0);
    let model = DramPowerModel::new(cfg)?;

    // Closed-loop runtime model. The open-loop probe saturates a single
    // channel under linear mapping, growing queueing delay without bound,
    // which a real CPU (with finite MLP) never sees. Combine:
    //   * a latency-bound time using the *unloaded* latency, and
    //   * a bandwidth-bound time using the throughput the probe actually
    //     sustained (requests per cycle), which captures the serialization
    //     that makes interleaving matter (Fig. 3a).
    let t = cfg.timing;
    let unloaded_latency = Cycles::new(t.t_rcd + t.cl + t.burst_cycles() + 8).as_f64();
    let delivered_per_cycle =
        (stats.reads + stats.writes) as f64 / Cycles::new(stats.cycles.max(1)).as_f64();
    // Little's law: a core keeping at most MLP misses outstanding perceives
    // latency no larger than MLP / throughput, however long the open-loop
    // probe's queues grew.
    let little_cap = profile.mlp / delivered_per_cycle.max(1e-9);
    let loaded_latency = avg_latency.clamp(unloaded_latency, little_cap.max(unloaded_latency));
    let est = estimate_runtime(profile, loaded_latency, model.peak_transfers_per_s())?;
    let total_requests =
        profile.giga_instructions * 1e9 * profile.mpki / 1000.0 * profile.prefetch_factor();
    let mem_clock_hz = t.clock_mhz * 1e6;
    let bw_bound_s = total_requests / (delivered_per_cycle.max(1e-9) * mem_clock_hz);
    let runtime_s = est.seconds.max(bw_bound_s);
    Ok(AppMeasurement {
        interleaved: mode.is_interleaved(),
        avg_latency_cycles: avg_latency,
        sr_fraction: Fraction::new(stats.mean_self_refresh_fraction())
            .map_err(|e| e.labelled("measured self-refresh residency"))?,
        runtime_s,
        bandwidth_util: Fraction::new(est.bandwidth_util.get() * est.seconds / runtime_s)
            .map_err(|e| e.labelled("closed-loop bandwidth share"))?,
        polls: sys.poll_counts(),
        cycles: stats.cycles,
    })
}

/// Both [`measure_app`] runs of `profile`, `[with, without]`
/// interleaving; each exports its DRAM books into `tele` under its mode's
/// scope.
///
/// # Errors
///
/// Same as [`measure_app`].
fn measure_modes(
    profile: &AppProfile,
    cfg: DramConfig,
    requests: usize,
    seed: u64,
    opts: MeasureOpts,
    mut tele: Option<&mut gd_obs::Telemetry>,
) -> Result<[AppMeasurement; 2]> {
    let mut measure = |mode| {
        measure_app(
            profile,
            cfg,
            mode,
            requests,
            seed,
            opts,
            tele.as_deref_mut(),
        )
    };
    Ok([
        measure(InterleaveMode::Interleaved)?,
        measure(InterleaveMode::Linear)?,
    ])
}

/// Both [`measure_app`] runs of `profile` at seed 1, `[with, without]`
/// interleaving, as one figure point: the runs' DRAM books go to the
/// point's telemetry shard and their summed polls, issuing polls, bank
/// visits, cycles and reopened rows to its sidecar `work` entry.
///
/// # Errors
///
/// Same as [`measure_app`].
pub fn measure_point(
    profile: &AppProfile,
    cfg: DramConfig,
    requests: usize,
    opts: MeasureOpts,
    sink: &mut ShardSink,
) -> Result<[AppMeasurement; 2]> {
    let runs = sink.fill(|tele| measure_modes(profile, cfg, requests, 1, opts, tele))?;
    sink.record_work(&dram_work(&runs));
    Ok(runs)
}

/// One cell of Figs. 9/10: a (policy, interleave) combination for one app.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Benchmark name.
    pub app: String,
    /// Policy legend name.
    pub policy: &'static str,
    /// Interleaving enabled.
    pub interleaved: bool,
    /// Execution time including policy overhead, seconds.
    pub runtime_s: f64,
    /// DRAM energy, joules.
    pub dram_j: f64,
    /// System energy, joules.
    pub system_j: f64,
    /// DRAM energy normalized to (w/o interleave, srf_only).
    pub dram_norm: f64,
    /// System energy normalized to (w/o interleave, srf_only).
    pub system_norm: f64,
}

/// Runtime and DRAM power of one (app, policy, mode) cell: the governor
/// outcome's low-power residencies and gating applied to a run of
/// `runtime_s` seconds (plus the policy overhead) at `bandwidth_util` of
/// peak bandwidth.
///
/// # Errors
///
/// Returns [`GdError::InvalidConfig`] when the outcome's self-refresh and
/// power-down residencies sum to more than 1.
pub(crate) fn energy_cell(
    model: &DramPowerModel,
    profile: &AppProfile,
    runtime_s: f64,
    bandwidth_util: Fraction,
    out: &GovernorOutcome,
) -> Result<(f64, f64)> {
    let runtime = runtime_s + out.overhead_s;
    let awake = out.awake_fraction()?;
    let activity = ActivityProfile {
        bandwidth_util,
        read_fraction: profile.read_fraction,
        act_per_access: profile.row_locality.complement().get(),
        active_standby: awake * Fraction::lit(0.6),
        precharge_standby: awake * Fraction::lit(0.4),
        power_down: out.pd_fraction,
        self_refresh: out.sr_fraction,
    };
    Ok((runtime, model.analytic_power_w(&activity, &out.gating)))
}

/// Evaluates all four policies × both interleave modes for one benchmark,
/// normalized to (w/o interleave, srf_only) — one group of bars in
/// Figs. 9/10.
///
/// # Errors
///
/// Propagates cycle-simulation errors; with
/// [`MeasureOpts::strict_validate`], also scheduler protocol violations and
/// governor sanity violations.
pub fn evaluate_app_opts(
    profile: &AppProfile,
    cfg: DramConfig,
    requests: usize,
    seed: u64,
    opts: MeasureOpts,
) -> Result<Vec<EnergyRow>> {
    evaluate_app_tele(profile, cfg, requests, seed, opts, None)
}

/// [`evaluate_app_opts`] with an optional telemetry sink: both cycle-level
/// runs (interleaved and linear) export their DRAM books into `tele`,
/// under the `interleaved.*` and `linear.*` scopes respectively.
///
/// # Errors
///
/// Same as [`evaluate_app_opts`].
pub fn evaluate_app_tele(
    profile: &AppProfile,
    cfg: DramConfig,
    requests: usize,
    seed: u64,
    opts: MeasureOpts,
    tele: Option<&mut gd_obs::Telemetry>,
) -> Result<Vec<EnergyRow>> {
    let [with, without] = measure_modes(profile, cfg, requests, seed, opts, tele)?;
    evaluate_measurements(profile, cfg, &with, &without, opts)
}

/// The governor evaluation of [`evaluate_app_opts`] on the two
/// [`measure_app`] runs of `profile` it would make, `with` and `without`
/// interleaving.
///
/// # Errors
///
/// Propagates power-model errors; with [`MeasureOpts::strict_validate`],
/// also governor sanity violations.
pub fn evaluate_measurements(
    profile: &AppProfile,
    cfg: DramConfig,
    with: &AppMeasurement,
    without: &AppMeasurement,
    opts: MeasureOpts,
) -> Result<Vec<EnergyRow>> {
    let model = DramPowerModel::new(cfg)?;
    let system = SystemPowerModel::default();
    let cpu_util = Fraction::lit(0.6);

    let free = 1.0 - profile.footprint_bytes() as f64 / cfg.total_capacity_bytes() as f64;
    let offline_fraction = Fraction::new((free - 0.10).max(0.0))?;
    let make_ctx = |meas: &AppMeasurement| GovernorContext {
        interleaved: meas.interleaved,
        footprint_bytes: profile.footprint_bytes(),
        capacity_bytes: cfg.total_capacity_bytes(),
        ranks: cfg.org.total_ranks(),
        banks_per_rank: cfg.org.banks_per_rank(),
        measured_sr_fraction: meas.sr_fraction,
        runtime_s: meas.runtime_s,
        offline_fraction,
        offline_failures: gd_baselines::OfflineFailureBreakdown::default(),
    };

    let governors: Vec<Box<dyn PowerGovernor>> = vec![
        Box::new(SrfOnly),
        Box::new(RamZzz),
        Box::new(Pasr),
        Box::new(GreenDimmGovernor::default()),
    ];

    let mut rows = Vec::new();
    let mut baseline: Option<(f64, f64)> = None;
    // Baseline first: (w/o interleave, srf_only).
    for meas in [without, with] {
        let ctx = make_ctx(meas);
        for g in &governors {
            let out = g.evaluate(&ctx);
            if opts.strict_validate {
                gd_verify::strict(gd_baselines::sanity::check(&ctx, &out))?;
            }
            let (runtime, dram_w) =
                energy_cell(&model, profile, meas.runtime_s, meas.bandwidth_util, &out)?;
            let dram_j = dram_w * runtime;
            let system_j = system.system_energy_j(dram_w, cpu_util, runtime);
            if g.name() == "srf_only" && !meas.interleaved {
                baseline = Some((dram_j, system_j));
            }
            rows.push(EnergyRow {
                app: profile.name.to_string(),
                policy: g.name(),
                interleaved: meas.interleaved,
                runtime_s: runtime,
                dram_j,
                system_j,
                dram_norm: 0.0,
                system_norm: 0.0,
            });
        }
    }
    let (b_dram, b_sys) = baseline.expect("baseline cell present");
    for r in &mut rows {
        r.dram_norm = r.dram_j / b_dram;
        r.system_norm = r.system_j / b_sys;
    }
    Ok(rows)
}

/// Figs. 9 and 10: every app of the energy-figure set under the four
/// policies and both interleave modes, printed as `metric` (normalized to
/// w/o interleave, srf_only) under `title`, then the GreenDIMM
/// w/ interleaving geomean and the `paper` line.
pub fn energy_table(mut args: BenchArgs, title: &str, metric: fn(&EnergyRow) -> f64, paper: &str) {
    let opts = args.measure();
    let requests = args.requests().unwrap_or(20_000);
    args.finish();
    let cfg = DramConfig::preset_64gb(opts.memspec);
    args.provenance(&format!(
        "{} 64GB energy-figure-set requests={requests} seed=1",
        platform_desc(opts.memspec)
    ));
    if opts.strict_validate {
        println!("[strict-validate: protocol + governor invariants enforced]");
    }
    let profiles = energy_figure_set();
    let results = args.sweep(
        &profiles,
        |p| p.name.to_string(),
        |p, sink| {
            let [with, without] = measure_point(p, cfg, requests, opts, sink)?;
            evaluate_measurements(p, cfg, &with, &without, opts)
        },
    );
    let widths = [16, 9, 9, 9, 9, 9, 9, 9, 9];
    let cols = [
        "app", "srf-", "srf+", "RZ-", "RZ+", "PASR-", "PASR+", "GD-", "GD+",
    ];
    header(title, &cols, &widths);
    println!("('-' = w/o interleaving, '+' = w/ interleaving)");
    let mut gd_norms = Vec::new();
    for (p, rows) in profiles.iter().zip(results) {
        let rows = rows.expect("energy");
        let cell = |policy, intlv| find_row(&rows, policy, intlv).map_or(f64::NAN, metric);
        gd_norms.push(cell("GreenDIMM", true));
        let mut cells = vec![p.name.to_string()];
        for policy in ["srf_only", "RAMZzz", "PASR", "GreenDIMM"] {
            cells.extend([false, true].map(|intlv| f2(cell(policy, intlv))));
        }
        row(&cells, &widths);
    }
    if let Some(g) = geomean(&gd_norms) {
        println!(
            "\nGreenDIMM w/ interleaving geomean: {:.2} of baseline ({}% reduction)",
            g,
            ((1.0 - g) * 100.0).round()
        );
    }
    println!("{paper}");
}

/// Picks a row out of [`evaluate_app_opts`] output.
pub fn find_row<'a>(
    rows: &'a [EnergyRow],
    policy: &str,
    interleaved: bool,
) -> Option<&'a EnergyRow> {
    rows.iter()
        .find(|r| r.policy == policy && r.interleaved == interleaved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_workloads::by_name;

    fn small() -> DramConfig {
        DramConfig::small_test()
    }

    /// libquantum scaled to the small test config: its 64 MB footprint
    /// exceeds the 16 MB capacity, so shrink it for unit tests.
    fn small_profile() -> AppProfile {
        AppProfile {
            footprint_mib: 4,
            // Intense enough to saturate the single channel the linear
            // mapping serializes onto.
            mpki: 80.0,
            ..by_name("libquantum").unwrap()
        }
    }

    #[test]
    fn interleaving_speeds_up_memory_intensive() {
        let p = small_profile();
        let run = |mode| measure_app(&p, small(), mode, 8_000, 1, MeasureOpts::default(), None);
        let with = run(InterleaveMode::Interleaved).unwrap();
        let without = run(InterleaveMode::Linear).unwrap();
        assert!(
            without.runtime_s > with.runtime_s * 1.3,
            "w/o {} vs w/ {}",
            without.runtime_s,
            with.runtime_s
        );
        // Fig. 3b: self-refresh residency only without interleaving.
        assert!(without.sr_fraction.get() > with.sr_fraction.get() + 0.2);
    }

    #[test]
    fn greendimm_beats_baselines_under_interleaving() {
        let p = small_profile();
        let rows = evaluate_app_opts(&p, small(), 8_000, 1, MeasureOpts::default()).unwrap();
        assert_eq!(rows.len(), 8);
        let gd = find_row(&rows, "GreenDIMM", true).unwrap();
        let srf = find_row(&rows, "srf_only", true).unwrap();
        let ramzzz = find_row(&rows, "RAMZzz", true).unwrap();
        let pasr = find_row(&rows, "PASR", true).unwrap();
        assert!(
            gd.dram_norm < srf.dram_norm * 0.9,
            "gd {} srf {}",
            gd.dram_norm,
            srf.dram_norm
        );
        assert!(gd.dram_norm < ramzzz.dram_norm);
        assert!(gd.dram_norm < pasr.dram_norm);
    }

    #[test]
    fn baseline_cell_is_normalized_to_one() {
        let p = small_profile();
        let rows = evaluate_app_opts(&p, small(), 6_000, 2, MeasureOpts::default()).unwrap();
        let base = find_row(&rows, "srf_only", false).unwrap();
        assert!((base.dram_norm - 1.0).abs() < 1e-9);
        assert!((base.system_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strict_validation_passes_on_clean_runs() {
        let p = small_profile();
        let opts = MeasureOpts {
            strict_validate: true,
            ..Default::default()
        };
        // Protocol replay + governor sanity both enabled: any scheduler or
        // governor defect turns this into an Err.
        let rows = evaluate_app_opts(&p, small(), 4_000, 4, opts).unwrap();
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn telemetry_export_is_deterministic_and_accounts_all_time() {
        let p = small_profile();
        let run = || {
            let mut tele = gd_obs::Telemetry::new();
            evaluate_app_tele(
                &p,
                small(),
                4_000,
                1,
                MeasureOpts::default(),
                Some(&mut tele),
            )
            .unwrap();
            tele
        };
        let tele = run();
        // Both interleave scopes exported their DRAM books.
        assert!(tele.registry.counter("interleaved.dram.cycles") > 0);
        assert!(tele.registry.counter("linear.dram.cycles") > 0);
        // Every rank's residency histogram sums to that run's cycle count.
        for scope in ["interleaved", "linear"] {
            let elapsed = tele.registry.counter(&format!("{scope}.dram.cycles"));
            let v = gd_verify::telemetry::check_residencies(
                &tele.registry,
                &format!("{scope}.dram."),
                elapsed,
            );
            assert_eq!(v, vec![]);
        }
        // Bit-identical across repeat runs.
        assert_eq!(tele.render_jsonl("p"), run().render_jsonl("p"));
    }

    #[test]
    fn rank_baselines_save_only_without_interleaving() {
        let p = small_profile();
        let rows = evaluate_app_opts(&p, small(), 6_000, 3, MeasureOpts::default()).unwrap();
        let rz_with = find_row(&rows, "RAMZzz", true).unwrap();
        let rz_without = find_row(&rows, "RAMZzz", false).unwrap();
        // Without interleaving RAMZzz parks ranks in self-refresh: lower
        // DRAM power. With interleaving it cannot.
        let srf_with = find_row(&rows, "srf_only", true).unwrap();
        assert!(rz_without.dram_norm < 1.0);
        assert!(rz_with.dram_norm >= srf_with.dram_norm * 0.99);
    }
}
