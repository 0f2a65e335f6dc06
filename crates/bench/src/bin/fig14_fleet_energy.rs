//! Fig. 14 (extension): fleet-level energy vs. consolidation
//! aggressiveness — N hosts driven from the synthesized Azure cluster
//! stream through the placement scheduler, with and without GreenDIMM and
//! KSM-aware co-location. The paper motivates GreenDIMM with datacenter
//! utilization (§1: 40–60 % average across fleets); this figure closes the
//! loop by aggregating per-host savings into cluster power curves.
//!
//! Hosts shard across the deterministic worker pool (`--jobs N` fans hosts
//! out *inside* each point; the outer sweep over points runs serially, so
//! the pool is never oversubscribed). `--stride N` (default 16) samples the
//! fleet: every N-th host is co-simulated exactly on the `--engine`
//! (`stepped|event`, default event) and the rest use a surrogate
//! calibrated against those anchors; `--stride 1` co-simulates every host.
//! Output is byte-identical for any `--jobs`. `--hosts N` sets the fleet size
//! (default 1000), `--requests N` trims the simulated day to N scheduler
//! periods, `--telemetry PATH` dumps the exact hosts' daemon/mm/ksm books
//! as JSONL, and timing lands in `results/BENCH_fig14_fleet_energy.json`.

use gd_bench::energy::{engine_name, MeasureOpts};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{provenance_line_with_engine, timed_sweep_jobs, SweepOpts, TelemetryOpts};
use gd_fleet::{run_fleet, FleetOutcome};
use gd_power::{ActivityProfile, DramPowerModel, PowerGating, SystemPowerModel};
use gd_types::config::DramConfig;
use gd_types::fleet::{FleetConfig, FleetPlacement};

const UTILS: [f64; 4] = [0.50, 0.65, 0.80, 0.95];

/// One fleet variant at each consolidation cap.
struct Variant {
    tag: &'static str,
    greendimm: bool,
    ksm: bool,
    placement: FleetPlacement,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        tag: "base",
        greendimm: false,
        ksm: false,
        placement: FleetPlacement::BestFit,
    },
    Variant {
        tag: "gd",
        greendimm: true,
        ksm: false,
        placement: FleetPlacement::BestFit,
    },
    Variant {
        tag: "gd+ksm",
        greendimm: true,
        ksm: true,
        placement: FleetPlacement::KsmAware,
    },
];

fn hosts_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args.iter()
        .position(|a| a == "--hosts")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .map(|h| h.clamp(1, 10_000))
        .unwrap_or(1_000)
}

/// `--stride N` (default 16): a whole number ≥ 1, or the error to report.
fn stride_from_args() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(i) = args.iter().position(|a| a == "--stride") else {
        return Ok(16);
    };
    let v = args.get(i + 1).map_or("", String::as_str);
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--stride {v:?} must be a whole number >= 1")),
    }
}

fn main() {
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    let mopts = MeasureOpts::from_args();
    let hosts = hosts_from_args();
    let stride = stride_from_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let duration_s = sw
        .requests
        .map(|n| (n as u64 * 300).clamp(3_600, 86_400))
        .unwrap_or(86_400);
    let verify = mopts.strict_validate.then_some(gd_verify::Mode::Strict);
    println!(
        "{}",
        provenance_line_with_engine(
            "fig14_fleet_energy",
            &format!(
                "azure-cluster hosts={hosts} 256GB/host block=1GB seed=42 \
                 duration_s={duration_s} stride={stride} utils=0.50..0.95 x base/gd/gd+ksm"
            ),
            engine_name(mopts.engine),
            &sw,
        )
    );
    if verify.is_some() {
        println!("[strict-validate: fleet + co-simulation invariants enforced]");
    }

    let points: Vec<(f64, &Variant)> = UTILS
        .iter()
        .flat_map(|&u| VARIANTS.iter().map(move |v| (u, v)))
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|(u, v)| format!("u{u:.2}/{}", v.tag))
        .collect();
    // Outer sweep serial (pool_jobs = 1): each point parallelizes over its
    // hosts with `sw.jobs` workers, which the timing sidecar records.
    let mut runs: Vec<FleetOutcome> = timed_sweep_jobs(
        "fig14_fleet_energy",
        &points,
        &labels,
        1,
        sw.jobs,
        |_ctx, (max_util, v)| {
            let cfg = FleetConfig {
                hosts,
                duration_s,
                max_util: *max_util,
                placement: v.placement,
                ksm: v.ksm,
                greendimm: v.greendimm,
                sample_stride: stride,
                ..FleetConfig::paper_1k()
            };
            run_fleet(&cfg, mopts.engine, sw.jobs, verify, topts.enabled()).expect("fleet run")
        },
    );
    if topts.enabled() {
        let shards: Vec<(String, Option<gd_obs::Telemetry>)> = labels
            .iter()
            .zip(&mut runs)
            .flat_map(|(label, run)| {
                run.telemetry
                    .take()
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(host, tele)| (format!("{label}/{host}"), Some(tele)))
                    .collect::<Vec<_>>()
            })
            .collect();
        topts.write(&shards);
    }

    // Per-host DRAM power from the same model Fig. 13 fits to the paper's
    // 256 GB measurement; deep power-down gates each host individually.
    let sys_model = SystemPowerModel::default();
    let cpu_util = 0.3; // consolidated VM server, modest CPU activity
    let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb());
    let activity = ActivityProfile::busy(0.15);
    let fleet_kw = |run: &FleetOutcome| -> (f64, f64) {
        let mut dram_w = 0.0;
        let mut sys_w = 0.0;
        for h in &run.hosts {
            let w =
                model.analytic_power_w(&activity, &PowerGating::deep_pd(h.mean_deep_pd_fraction));
            dram_w += w;
            sys_w += sys_model.system_power_w(w, cpu_util);
        }
        (dram_w / 1_000.0, sys_w / 1_000.0)
    };

    let widths = [6, 10, 10, 9, 10, 9, 9, 9, 9, 10];
    header(
        &format!("Fig. 14: fleet DRAM/system power vs. consolidation cap ({hosts} hosts, 24 h)"),
        &[
            "cap",
            "base kW",
            "gd kW",
            "gd red",
            "ksm kW",
            "ksm red",
            "sys red",
            "ksm sred",
            "placed",
            "peak used",
        ],
        &widths,
    );
    for (i, &u) in UTILS.iter().enumerate() {
        let base = &runs[3 * i];
        let gd = &runs[3 * i + 1];
        let ksm = &runs[3 * i + 2];
        let (base_kw, base_sys) = fleet_kw(base);
        let (gd_kw, gd_sys) = fleet_kw(gd);
        let (ksm_kw, ksm_sys) = fleet_kw(ksm);
        row(
            &[
                pct(u),
                f2(base_kw),
                f2(gd_kw),
                pct(1.0 - gd_kw / base_kw),
                f2(ksm_kw),
                pct(1.0 - ksm_kw / base_kw),
                pct(1.0 - gd_sys / base_sys),
                pct(1.0 - ksm_sys / base_sys),
                pct(gd.stats.placement_rate()),
                gd.stats.peak_hosts_used.to_string(),
            ],
            &widths,
        );
    }
    let exact = runs[0].exact_hosts;
    println!("\n{hosts} hosts/point, {exact} co-simulated exactly per point (stride {stride})");
    println!("mean scheduled utilization at cap 0.80 (gd): {}", {
        let gd = &runs[3 * UTILS.iter().position(|&u| u == 0.80).unwrap() + 1];
        pct(gd.mean_utilization())
    });
    println!(
        "looser caps spread VMs across more hosts -> more idle memory per host -> deeper\n\
         power-down; KSM-aware co-location frees extra frames on top"
    );
}
