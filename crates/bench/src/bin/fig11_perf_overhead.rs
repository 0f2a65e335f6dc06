//! Fig. 11: execution-time increase by GreenDIMM across all workloads
//! (paper: gcc variants worst at <3 %, everything else <2 %, and no
//! visible p95/p99 degradation for the latency-critical services).
//!
//! Co-simulation points fan across the sweep pool (`--jobs N`);
//! `--strict-validate` enforces the co-simulation invariants and
//! `--telemetry PATH` dumps each run's daemon/mm books as JSONL.

use gd_bench::blocks::{block_size_experiment, managed_region, nominal_runtime_s};
use gd_bench::report::{header, pct, row};
use gd_bench::BenchArgs;
use gd_types::stats::percentile;
use gd_workloads::energy_figure_set;
use greendimm::GreenDimmConfig;

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let verify = args.strict_validate().then_some(gd_verify::Mode::Strict);
    args.finish();
    args.provenance("managed=8GiB energy-figure-set blocks=128 seed=1");
    if verify.is_some() {
        println!("[strict-validate: co-simulation invariants enforced]");
    }
    let profiles = energy_figure_set();
    let results = args.sweep(
        &profiles,
        |p| p.name.to_string(),
        |p, sink| {
            let (row, tele) = block_size_experiment(
                p,
                managed_region(128, 1),
                GreenDimmConfig::paper_default(),
                None,
                verify,
                sink.enabled().then_some("blocks"),
            )
            .expect("co-sim");
            sink.give("", tele);
            row
        },
    );

    let widths = [16, 10, 12];
    header(
        "Fig. 11: execution-time increase by GreenDIMM (1 GB-equivalent blocks)",
        &["app", "overhead", "events"],
        &widths,
    );
    let mut lc_reports = Vec::new();
    for (p, r) in profiles.iter().zip(results) {
        row(
            &[
                p.name.to_string(),
                pct(r.overhead_fraction),
                r.hotplug_events.to_string(),
            ],
            &widths,
        );
        if p.latency_critical {
            lc_reports.push((p.clone(), r));
        }
    }

    // Tail-latency check for the latency-critical services: inject the
    // measured hotplug stalls into a synthetic service-time distribution.
    println!("\nTail latency (latency-critical services):");
    for (p, r) in lc_reports {
        let runtime = nominal_runtime_s(&p).expect("CPU model");
        let base_ms = 2.0;
        let n = 100_000usize;
        // Fraction of requests that collide with a hotplug operation.
        let collision = (r.daemon.hotplug_time.as_secs_f64() / runtime).min(1.0);
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let jitter = 1.0 + (i % 17) as f64 / 17.0; // deterministic spread
                let stalled = (i as f64 / n as f64) < collision;
                base_ms * jitter + if stalled { 3.44 } else { 0.0 }
            })
            .collect();
        let baseline: Vec<f64> = (0..n)
            .map(|i| base_ms * (1.0 + (i % 17) as f64 / 17.0))
            .collect();
        let p99 = percentile(&samples, 99.0).expect("samples");
        let p99_base = percentile(&baseline, 99.0).expect("samples");
        println!(
            "  {:<14} p99 {:.3} ms vs baseline {:.3} ms ({:+.2}%)",
            p.name,
            p99,
            p99_base,
            (p99 / p99_base - 1.0) * 100.0
        );
    }
    println!("\npaper: <3% worst case (gcc); tails of data-caching/serving/web unaffected");
}
