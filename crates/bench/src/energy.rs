//! Cycle-level measurement + governor evaluation behind Figs. 3, 9, 10.

use gd_baselines::{
    GovernorContext, GovernorOutcome, GreenDimmGovernor, Pasr, PowerGovernor, RamZzz, SrfOnly,
};
use gd_dram::{EngineMode, LowPowerPolicy, MemorySystem, TimingChecker};
use gd_power::{memspec_for, ActivityProfile, MemSpec, SystemPowerModel};
use gd_types::config::{DramConfig, InterleaveMode, MemSpecKind};
use gd_types::{Cycles, GdError, Result};
use gd_workloads::{estimate_runtime, AppProfile, TraceGenerator};

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

impl MeasureOpts {
    /// Parses the figure binaries' shared command line: `--strict-validate`
    /// (or a `GD_STRICT_VALIDATE=1` environment) turns the verification
    /// gate on; `--engine stepped|event` selects the time-advance engine;
    /// `--memspec ddr4|ddr5|lpddr4-pasr` selects the memory-generation
    /// backend. An unknown `--engine` or `--memspec` value exits 2 rather
    /// than silently running a default.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let strict = args.iter().any(|a| a == "--strict-validate")
            || std::env::var("GD_STRICT_VALIDATE")
                .map(|v| v == "1")
                .unwrap_or(false);
        let engine = args
            .iter()
            .position(|a| a == "--engine")
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                parse_engine(v).unwrap_or_else(|| {
                    eprintln!("error: unknown --engine {v:?} (expected stepped, event)");
                    std::process::exit(2);
                })
            });
        let memspec = args
            .iter()
            .position(|a| a == "--memspec")
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                MemSpecKind::parse(v).unwrap_or_else(|| {
                    eprintln!("error: unknown --memspec {v:?} (expected ddr4, ddr5, lpddr4-pasr)");
                    std::process::exit(2);
                })
            });
        MeasureOpts {
            strict_validate: strict,
            engine: engine.unwrap_or_default(),
            memspec: memspec.unwrap_or_default(),
        }
    }
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

/// Provenance fragment naming a non-default backend, e.g. ` memspec=ddr5`.
/// Empty for DDR4 so committed DDR4 snapshot headers stay byte-identical.
#[must_use]
pub fn memspec_suffix(kind: MemSpecKind) -> String {
    match kind {
        MemSpecKind::Ddr4 => String::new(),
        other => format!(" memspec={}", other.name()),
    }
}

/// Maps an `--engine` argument (`stepped` or `event`) to an
/// [`EngineMode`]; `None` for any other value.
pub fn parse_engine(v: &str) -> Option<EngineMode> {
    match v {
        "stepped" => Some(EngineMode::Stepped),
        "event" => Some(EngineMode::EventDriven),
        _ => None,
    }
}

/// Provenance-header name of an engine.
pub fn engine_name(mode: EngineMode) -> &'static str {
    match mode {
        EngineMode::Stepped => "stepped",
        EngineMode::EventDriven => "event-driven",
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
    pub sr_fraction: f64,
    /// Predicted execution time, seconds.
    pub runtime_s: f64,
    /// Sustained fraction of peak bus bandwidth.
    pub bandwidth_util: f64,
}

/// Runs the cycle simulator for `profile` under the given interleave mode
/// and derives runtime via the MLP-aware CPU model.
///
/// # Errors
///
/// Propagates simulator configuration errors.
pub fn measure_app(
    profile: &AppProfile,
    cfg: DramConfig,
    mode: InterleaveMode,
    requests: usize,
    seed: u64,
) -> Result<AppMeasurement> {
    measure_app_opts(profile, cfg, mode, requests, seed, MeasureOpts::default())
}

/// [`measure_app`] with explicit [`MeasureOpts`].
///
/// # Errors
///
/// Propagates simulator configuration errors; with
/// [`MeasureOpts::strict_validate`], also protocol violations in the
/// scheduler's command stream.
pub fn measure_app_opts(
    profile: &AppProfile,
    cfg: DramConfig,
    mode: InterleaveMode,
    requests: usize,
    seed: u64,
    opts: MeasureOpts,
) -> Result<AppMeasurement> {
    measure_app_tele(profile, cfg, mode, requests, seed, opts, None)
}

/// [`measure_app_opts`] with an optional telemetry sink: when `tele` is
/// `Some`, the run's DRAM books (per-rank power-state residency, per-channel
/// command counters, per-group deep power-down dwell) are exported under a
/// scope named after the interleave mode.
///
/// # Errors
///
/// Same as [`measure_app_opts`].
pub fn measure_app_tele(
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
    let cap = cfg.total_capacity_bytes();
    let mut gen = TraceGenerator::new(profile.clone(), seed);
    let trace: Vec<_> = gen
        .take(requests)
        .into_iter()
        .map(|mut r| {
            r.addr %= cap;
            r
        })
        .collect();
    let stats = sys.run_trace(trace)?;
    if opts.strict_validate {
        let log = sys.take_command_log();
        let violations = TimingChecker::for_config(&cfg).check(&log);
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
    let model = memspec_for(cfg)?;

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
    let est = estimate_runtime(profile, loaded_latency, model.peak_transfers_per_s());
    let total_requests =
        profile.giga_instructions * 1e9 * profile.mpki / 1000.0 * profile.prefetch_factor();
    let mem_clock_hz = t.clock_mhz * 1e6;
    let bw_bound_s = total_requests / (delivered_per_cycle.max(1e-9) * mem_clock_hz);
    let runtime_s = est.seconds.max(bw_bound_s);
    Ok(AppMeasurement {
        interleaved: mode.is_interleaved(),
        avg_latency_cycles: avg_latency,
        sr_fraction: stats.mean_self_refresh_fraction(),
        runtime_s,
        bandwidth_util: (est.bandwidth_util * est.seconds / runtime_s).clamp(0.0, 1.0),
    })
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

/// Computes energy for one (app, policy, mode) cell from its measurement
/// and governor outcome.
fn energy_cell(
    model: &dyn MemSpec,
    system: &SystemPowerModel,
    profile: &AppProfile,
    meas: &AppMeasurement,
    out: &GovernorOutcome,
    cpu_util: f64,
) -> (f64, f64, f64) {
    let runtime = meas.runtime_s + out.overhead_s;
    let lp = (out.sr_fraction + out.pd_fraction).clamp(0.0, 1.0);
    let awake = 1.0 - lp;
    let activity = ActivityProfile {
        bandwidth_util: meas.bandwidth_util,
        read_fraction: profile.read_fraction,
        act_per_access: 1.0 - profile.row_locality,
        active_standby: awake * 0.6,
        precharge_standby: awake * 0.4,
        power_down: out.pd_fraction,
        self_refresh: out.sr_fraction,
    };
    let dram_w = model.analytic_power_w(&activity, &out.gating);
    let dram_j = dram_w * runtime;
    let system_j = system.system_energy_j(dram_w, cpu_util, runtime);
    (runtime, dram_j, system_j)
}

/// Evaluates all four policies × both interleave modes for one benchmark,
/// normalized to (w/o interleave, srf_only) — one group of bars in
/// Figs. 9/10.
///
/// # Errors
///
/// Propagates cycle-simulation errors.
pub fn evaluate_app(
    profile: &AppProfile,
    cfg: DramConfig,
    requests: usize,
    seed: u64,
) -> Result<Vec<EnergyRow>> {
    evaluate_app_opts(profile, cfg, requests, seed, MeasureOpts::default())
}

/// [`evaluate_app`] with explicit [`MeasureOpts`].
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
    mut tele: Option<&mut gd_obs::Telemetry>,
) -> Result<Vec<EnergyRow>> {
    let with = measure_app_tele(
        profile,
        cfg,
        InterleaveMode::Interleaved,
        requests,
        seed,
        opts,
        tele.as_deref_mut(),
    )?;
    let without = measure_app_tele(
        profile,
        cfg,
        InterleaveMode::Linear,
        requests,
        seed,
        opts,
        tele,
    )?;
    let model = memspec_for(cfg)?;
    let system = SystemPowerModel::default();
    let cpu_util = 0.6;

    let offline_fraction =
        (1.0 - profile.footprint_bytes() as f64 / cfg.total_capacity_bytes() as f64 - 0.10)
            .max(0.0);
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
        Box::new(RamZzz::default()),
        Box::new(Pasr),
        Box::new(GreenDimmGovernor::default()),
    ];

    let mut sanity = opts
        .strict_validate
        .then(|| gd_baselines::sanity_checker(gd_verify::Mode::Strict));
    let mut rows = Vec::new();
    let mut baseline: Option<(f64, f64)> = None;
    // Baseline first: (w/o interleave, srf_only).
    for meas in [&without, &with] {
        let ctx = make_ctx(meas);
        for g in &governors {
            let out = match &mut sanity {
                Some(checker) => gd_baselines::checked_evaluate(g.as_ref(), &ctx, checker)?,
                None => g.evaluate(&ctx),
            };
            let (runtime, dram_j, system_j) =
                energy_cell(model.as_ref(), &system, profile, meas, &out, cpu_util);
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

/// Picks a row out of [`evaluate_app`] output.
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

    #[test]
    fn parse_engine_accepts_only_the_two_exact_engines() {
        assert_eq!(parse_engine("stepped"), Some(EngineMode::Stepped));
        assert_eq!(parse_engine("event"), Some(EngineMode::EventDriven));
        for bad in ["epoch-replay", "bogus", ""] {
            assert_eq!(parse_engine(bad), None, "{bad:?}");
        }
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
        let with = measure_app(&p, small(), InterleaveMode::Interleaved, 8_000, 1).unwrap();
        let without = measure_app(&p, small(), InterleaveMode::Linear, 8_000, 1).unwrap();
        assert!(
            without.runtime_s > with.runtime_s * 1.3,
            "w/o {} vs w/ {}",
            without.runtime_s,
            with.runtime_s
        );
        // Fig. 3b: self-refresh residency only without interleaving.
        assert!(without.sr_fraction > with.sr_fraction + 0.2);
    }

    #[test]
    fn greendimm_beats_baselines_under_interleaving() {
        let p = small_profile();
        let rows = evaluate_app(&p, small(), 8_000, 1).unwrap();
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
        let rows = evaluate_app(&p, small(), 6_000, 2).unwrap();
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
                gd_verify::Mode::Strict,
            )
            .unwrap();
            assert_eq!(v, 0);
        }
        // Bit-identical across repeat runs.
        assert_eq!(tele.render_jsonl("p"), run().render_jsonl("p"));
    }

    #[test]
    fn rank_baselines_save_only_without_interleaving() {
        let p = small_profile();
        let rows = evaluate_app(&p, small(), 6_000, 3).unwrap();
        let rz_with = find_row(&rows, "RAMZzz", true).unwrap();
        let rz_without = find_row(&rows, "RAMZzz", false).unwrap();
        // Without interleaving RAMZzz parks ranks in self-refresh: lower
        // DRAM power. With interleaving it cannot.
        let srf_with = find_row(&rows, "srf_only", true).unwrap();
        assert!(rz_without.dram_norm < 1.0);
        assert!(rz_with.dram_norm >= srf_with.dram_norm * 0.99);
    }
}
