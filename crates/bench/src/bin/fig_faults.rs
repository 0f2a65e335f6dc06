//! Robustness curve: GreenDIMM's energy savings and stall
//! overhead as the injected fault rate rises (see `gd-faults` and
//! DESIGN.md §11).
//!
//! Each sweep point is one fault rate (`--jobs N` fans rates out across
//! workers), aggregating `--requests N` seeds (at most 16). `--fault-rate
//! X` restricts the sweep to a single rate; `--engine stepped|event`
//! selects the DRAM probe's time-advance engine (rows are byte-identical
//! either way — the provenance header records the choice). Output is
//! deterministic for any `--jobs`, and the rate-0 row is byte-identical to
//! a run with no fault injectors installed at all.

use gd_bench::report::{header, row};
use gd_bench::robustness::{robustness_experiment, RobustnessRow, FAULT_RATES};
use gd_bench::BenchArgs;
use gd_faults::FaultPlan;
use gd_types::Fraction;
use gd_workloads::by_name;

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let mopts = args.measure_ddr4();
    let single_rate = args.fault_rate();
    let seed_count = args.requests_count(3, 16) as u64;
    args.finish();
    let verify = mopts.strict_validate.then_some(gd_verify::Mode::Strict);
    let engine = mopts.engine;
    let mut desc = format!("app=gcc managed=8GiB blocks=128 uniform-plan seeds=1..{seed_count}");
    let rates: Vec<Fraction> = match single_rate {
        Some(r) => {
            desc.push_str(&format!(" rate={r}"));
            vec![r]
        }
        None => FAULT_RATES.map(Fraction::lit).to_vec(),
    };
    args.provenance(&desc);
    if verify.is_some() {
        println!("[strict-validate: co-simulation invariants enforced]");
    }
    let profile = by_name("gcc").expect("profile");
    let results = args.sweep(
        &rates,
        |r| format!("rate{r}"),
        |rate, sink| {
            let plan = (*rate > Fraction::ZERO).then(|| FaultPlan::uniform(*rate));
            (1..=seed_count)
                .map(|seed| {
                    let (r, tele) = robustness_experiment(
                        &profile,
                        plan.as_ref(),
                        engine,
                        seed,
                        verify,
                        sink.enabled(),
                    )
                    .expect("co-sim");
                    sink.give(&format!("/s{seed}"), tele);
                    r
                })
                .collect::<Vec<_>>()
        },
    );

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
    for (rate, rows) in rates.iter().zip(&results) {
        let n = rows.len() as f64;
        let mean = |f: &dyn Fn(&RobustnessRow) -> f64| rows.iter().map(f).sum::<f64>() / n;
        let sum = |f: &dyn Fn(&RobustnessRow) -> u64| rows.iter().map(f).sum::<u64>();
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
}
