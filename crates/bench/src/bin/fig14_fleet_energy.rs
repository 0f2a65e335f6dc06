//! Fig. 14 (extension): fleet-level energy vs. consolidation
//! aggressiveness — N hosts driven from the synthesized Azure cluster
//! stream through the placement scheduler, with and without GreenDIMM and
//! KSM-aware co-location. The paper motivates GreenDIMM with datacenter
//! utilization (§1: 40–60 % average across fleets); this figure closes the
//! loop by aggregating per-host savings into cluster power curves.
//!
//! Only the GreenDIMM variants are simulated. Without GreenDIMM no host
//! ever enters deep power-down, so the baseline column is every host at
//! the model's ungated power, summed host by host like the others.
//!
//! Hosts shard across the deterministic worker pool (`--jobs N` fans hosts
//! out *inside* each point; the outer sweep over points runs serially, so
//! the pool is never oversubscribed). `--stride N` (default 16) samples the
//! fleet: every N-th host is co-simulated exactly and the rest use a
//! surrogate calibrated against those anchors; `--stride 1` co-simulates
//! every host. Output is byte-identical for any `--jobs`. `--hosts N` sets
//! the fleet size (1 to 10 000, default 1000), `--requests N` trims the
//! simulated day to N 5-minute scheduler periods (12 to 288), `--strict-validate` enforces the
//! fleet and co-simulation invariants, `--engine stepped|event` selects
//! how the exact hosts advance through idle monitor ticks (rows are
//! byte-identical; the stepped engine runs every tick), and
//! `--telemetry PATH` dumps the exact hosts' daemon/mm/ksm books as JSONL.
//! Each point's sidecar entry carries the exact hosts' work counters
//! (`gd_fleet::HostWork`) and the placement scans' (`gd_fleet::ScheduleWork`).

use gd_bench::report::{f2, header, pct, row};
use gd_bench::BenchArgs;
use gd_fleet::{run_fleet, FleetOutcome};
use gd_power::{ActivityProfile, DramPowerModel, PowerGating, SystemPowerModel};
use gd_types::config::DramConfig;
use gd_types::fleet::{FleetConfig, FleetPlacement};
use gd_types::Fraction;

const UTILS: [f64; 4] = [0.50, 0.65, 0.80, 0.95];

/// One simulated GreenDIMM fleet variant at each consolidation cap.
struct Variant {
    tag: &'static str,
    ksm: bool,
    placement: FleetPlacement,
}

const VARIANTS: [Variant; 2] = [
    Variant {
        tag: "gd",
        ksm: false,
        placement: FleetPlacement::BestFit,
    },
    Variant {
        tag: "gd+ksm",
        ksm: true,
        placement: FleetPlacement::KsmAware,
    },
];

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let verify = args.strict_validate().then_some(gd_verify::Mode::Strict);
    let hosts = args.count("hosts", 1_000, 10_000);
    let stride = args.count("stride", 16, usize::MAX);
    let duration_s = args.trace_duration_s();
    let engine = args.engine();
    args.finish();
    args.provenance(&format!(
        "azure-cluster hosts={hosts} 256GB/host block=1GB seed=42 \
             duration_s={duration_s} stride={stride} utils=0.50..0.95 x base/gd/gd+ksm"
    ));
    if verify.is_some() {
        println!("[strict-validate: fleet + co-simulation invariants enforced]");
    }

    let points: Vec<(f64, &Variant)> = UTILS
        .iter()
        .flat_map(|&u| VARIANTS.iter().map(move |v| (u, v)))
        .collect();
    // Each point parallelizes over its hosts with `args.jobs` workers.
    let runs = args.sweep_serially(
        &points,
        |(u, v)| format!("u{u:.2}/{}", v.tag),
        |(max_util, v), sink| {
            let cfg = FleetConfig {
                hosts,
                duration_s,
                max_util: *max_util,
                placement: v.placement,
                ksm: v.ksm,
                greendimm: true,
                sample_stride: stride,
                ..FleetConfig::paper_1k()
            };
            let mut run =
                run_fleet(&cfg, engine, args.jobs, verify, sink.enabled()).expect("fleet run");
            for (host, tele) in run.telemetry.take().unwrap_or_default() {
                sink.give(&format!("/{host}"), Some(tele));
            }
            sink.record_work(&run.work.fields());
            sink.record_work(&run.schedule_work.fields());
            run
        },
    );

    // Per-host DRAM power from the same model Fig. 13 fits to the paper's
    // 256 GB measurement; deep power-down gates each host individually.
    let sys_model = SystemPowerModel::default();
    let cpu_util = Fraction::lit(0.3); // consolidated VM server, modest CPU activity
    let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb()).expect("paper preset");
    let activity = ActivityProfile::busy(Fraction::lit(0.15));
    // (DRAM kW, system kW) of hosts at these deep power-down fractions.
    let fleet_kw = |deep_pd: &[f64]| -> (f64, f64) {
        let mut dram_w = 0.0;
        let mut sys_w = 0.0;
        for &f in deep_pd {
            let f = Fraction::new(f).expect("deep-PD share");
            let w = model.analytic_power_w(&activity, &PowerGating::deep_pd(f));
            dram_w += w;
            sys_w += sys_model.system_power_w(w, cpu_util);
        }
        (dram_w / 1_000.0, sys_w / 1_000.0)
    };
    let run_kw = |run: &FleetOutcome| {
        let deep_pd: Vec<f64> = run.hosts.iter().map(|h| h.mean_deep_pd_fraction).collect();
        fleet_kw(&deep_pd)
    };
    let (base_kw, base_sys) = fleet_kw(&vec![0.0; hosts]);

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
        let gd = &runs[2 * i];
        let ksm = &runs[2 * i + 1];
        let (gd_kw, gd_sys) = run_kw(gd);
        let (ksm_kw, ksm_sys) = run_kw(ksm);
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
        let gd = &runs[2 * UTILS.iter().position(|&u| u == 0.80).unwrap()];
        pct(gd.mean_utilization())
    });
    println!(
        "looser caps spread VMs across more hosts -> more idle memory per host -> deeper\n\
         power-down; KSM-aware co-location frees extra frames on top"
    );
}
