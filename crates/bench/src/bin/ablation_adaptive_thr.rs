//! Ablation (extension): adaptive off_thr — back off the reserve after
//! stalls/failures, decay back when quiet. Compare against the fixed 10 %.
//!
//! App points fan across the sweep pool (`--jobs N`); timing lands in
//! `results/BENCH_ablation_adaptive_thr.json` and `--telemetry PATH`
//! dumps every run's daemon/mm books as JSONL.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_workloads::spec2006_offlining_set;
use greendimm::GreenDimmConfig;

fn main() {
    let args = BenchArgs::from_env();
    args.finish();
    args.provenance(
        "ablation_adaptive_thr",
        "managed=8GiB spec2006-offlining blocks=128 seed=1 fixed-vs-adaptive",
    );
    let profiles = spec2006_offlining_set();
    let labels: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let mut results = timed_sweep(
        "ablation_adaptive_thr",
        &profiles,
        &labels,
        args.jobs,
        |_ctx, p| {
            let (fixed, tele_fixed) = block_size_experiment(
                p,
                managed_region(128, 1),
                GreenDimmConfig::paper_default(),
                None,
                None,
                args.telemetry.enabled().then_some("blocks"),
            )
            .expect("co-sim");
            let (adaptive, tele_adaptive) = block_size_experiment(
                p,
                managed_region(128, 1),
                GreenDimmConfig {
                    adaptive_off_thr: true,
                    ..GreenDimmConfig::paper_default()
                },
                None,
                None,
                args.telemetry.enabled().then_some("blocks"),
            )
            .expect("co-sim");
            (fixed, adaptive, tele_fixed, tele_adaptive)
        },
    );
    args.telemetry.write(
        &labels
            .iter()
            .zip(&mut results)
            .flat_map(|(l, (_, _, tf, ta))| {
                [
                    (format!("{l}/fixed"), tf.take()),
                    (format!("{l}/adaptive"), ta.take()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let results: Vec<_> = results.into_iter().map(|(f, a, _, _)| (f, a)).collect();

    let widths = [16, 12, 12, 12, 12];
    header(
        "Ablation: fixed vs adaptive off_thr (128 MB blocks)",
        &["app", "fixed GiB", "fixed ovh", "adapt GiB", "adapt ovh"],
        &widths,
    );
    for (p, (fixed, adaptive)) in profiles.iter().zip(results) {
        row(
            &[
                p.name.to_string(),
                f2(fixed.offlined_gib_avg),
                pct(fixed.overhead_fraction),
                f2(adaptive.offlined_gib_avg),
                pct(adaptive.overhead_fraction),
            ],
            &widths,
        );
    }
    println!("\nadaptive backs the reserve off after stalls, trading a little");
    println!("off-lined capacity for fewer demand-driven on-lining events");
}
