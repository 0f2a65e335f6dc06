//! `fig_faults`: robustness curve — GreenDIMM's energy savings and stall
//! overhead as the injected fault rate rises (see `gd-faults` and
//! DESIGN.md §11).
//!
//! Each sweep point is one fault rate (`--jobs N` fans rates out across
//! workers), aggregating `--requests N` seeds. `--fault-rate X` restricts
//! the sweep to a single rate; `--engine stepped|event` selects the DRAM
//! probe's time-advance engine (rows are byte-identical either way — the
//! provenance header records the choice). Output is deterministic for any
//! `--jobs`, and the rate-0 row is byte-identical to a run with no fault
//! injectors installed at all.

use gd_bench::energy::{engine_name, MeasureOpts};
use gd_bench::report::{header, row};
use gd_bench::robustness::{robustness_experiment, RobustnessRow, FAULT_RATES};
use gd_bench::{provenance_line_with_engine, timed_sweep, SweepOpts, TelemetryOpts};
use gd_obs::Telemetry;
use gd_workloads::by_name;

struct Point {
    rows: Vec<RobustnessRow>,
    shards: Vec<(String, Option<Telemetry>)>,
}

fn parse_rate() -> Option<f64> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args.iter()
        .position(|a| a == "--fault-rate")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|r| r.clamp(0.0, 1.0))
}

fn main() {
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    let mopts = MeasureOpts::from_args();
    let verify = mopts.strict_validate.then_some(gd_verify::Mode::Strict);
    let single_rate = parse_rate();
    let engine = mopts.engine;
    let seed_count = sw.requests.unwrap_or(3).clamp(1, 16) as u64;
    let engine_name = engine_name(engine);
    let rates: Vec<f64> = match single_rate {
        Some(r) => vec![r],
        None => FAULT_RATES.to_vec(),
    };
    println!(
        "{}",
        provenance_line_with_engine(
            "fig_faults",
            &format!("app=gcc managed=8GiB blocks=128 uniform-plan seeds=1..{seed_count}"),
            engine_name,
            &sw,
        )
    );
    if verify.is_some() {
        println!("[strict-validate: co-simulation invariants enforced]");
    }
    let profile = by_name("gcc").expect("profile");
    let labels: Vec<String> = rates.iter().map(|r| format!("rate={r}")).collect();
    let results = timed_sweep("fig_faults", &rates, &labels, sw.jobs, |_ctx, rate| {
        let mut rows = Vec::new();
        let mut shards = Vec::new();
        for seed in 1..=seed_count {
            let (r, tele) =
                robustness_experiment(&profile, *rate, engine, seed, verify, topts.enabled())
                    .expect("co-sim");
            shards.push((format!("rate{rate}/s{seed}", rate = *rate), tele));
            rows.push(r);
        }
        Point { rows, shards }
    });

    let widths = [8, 10, 10, 10, 9, 8, 9, 9, 12];
    header(
        "fig_faults: robustness vs injected fault rate (gcc, 128 MB blocks)",
        &[
            "rate",
            "offl GiB",
            "ovh %",
            "save %",
            "injected",
            "retries",
            "rollback",
            "degraded",
            "probe cyc",
        ],
        &widths,
    );
    for (rate, p) in rates.iter().zip(&results) {
        let n = p.rows.len() as f64;
        let mean = |f: &dyn Fn(&RobustnessRow) -> f64| p.rows.iter().map(f).sum::<f64>() / n;
        let sum = |f: &dyn Fn(&RobustnessRow) -> u64| p.rows.iter().map(f).sum::<u64>();
        row(
            &[
                format!("{rate}"),
                format!("{:.3}", mean(&|r| r.offlined_gib_avg)),
                format!("{:.3}", 100.0 * mean(&|r| r.overhead_fraction)),
                format!("{:.2}", 100.0 * mean(&|r| r.energy_savings)),
                sum(&|r| r.faults_injected).to_string(),
                sum(&|r| r.retries).to_string(),
                sum(&|r| r.rollbacks).to_string(),
                sum(&|r| r.degraded_groups).to_string(),
                format!("{:.2}", mean(&|r| r.probe_latency_cycles)),
            ],
            &widths,
        );
    }
    println!("\n(averaged/summed over {seed_count} seeds per rate)");
    println!("expectation: savings degrade gracefully while overhead stays bounded;");
    println!("rollbacks stay 0 under removable-first (free blocks need no migration)");
    topts.write(
        &results
            .into_iter()
            .flat_map(|p| p.shards)
            .collect::<Vec<_>>(),
    );
}
