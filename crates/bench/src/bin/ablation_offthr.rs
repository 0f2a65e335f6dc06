//! Ablation: the off-lining threshold `off_thr` — the paper fixes 10 %
//! because lower values cause swapping; sweep it and watch the
//! offline-capacity / on-lining-stall trade-off.
//!
//! Threshold points fan across the sweep pool (`--jobs N`); timing lands
//! in `results/BENCH_ablation_offthr.json`.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_workloads::by_name;
use greendimm::GreenDimmConfig;

fn main() {
    let args = BenchArgs::from_env();
    args.finish();
    args.provenance(
        "ablation_offthr",
        "managed=8GiB gcc blocks=128 seed=1 thresholds=0.05..0.30",
    );
    let thresholds = [0.05, 0.10, 0.15, 0.20, 0.30];
    let labels: Vec<String> = thresholds.iter().map(|t| format!("off_thr={t}")).collect();
    let gcc = by_name("gcc").expect("profile");
    let mut results = timed_sweep(
        "ablation_offthr",
        &thresholds,
        &labels,
        args.jobs,
        |_ctx, &off_thr| {
            let cfg = GreenDimmConfig {
                off_thr,
                on_thr: off_thr / 2.0,
                ..GreenDimmConfig::paper_default()
            };
            block_size_experiment(
                &gcc,
                managed_region(128, 1),
                cfg,
                None,
                None,
                args.telemetry.enabled().then_some("blocks"),
            )
            .expect("co-sim")
        },
    );
    args.telemetry.write(
        &labels
            .iter()
            .zip(&mut results)
            .map(|(l, (_, tele))| (l.clone(), tele.take()))
            .collect::<Vec<_>>(),
    );
    let results: Vec<_> = results.into_iter().map(|(r, _)| r).collect();

    let widths = [8, 14, 12, 10];
    header(
        "Ablation: off_thr sweep (gcc, 128 MB blocks, 8 GiB managed)",
        &["off_thr", "offlined GiB", "overhead", "events"],
        &widths,
    );
    for (off_thr, r) in thresholds.iter().zip(results) {
        row(
            &[
                pct(*off_thr),
                f2(r.offlined_gib_avg),
                pct(r.overhead_fraction),
                r.hotplug_events.to_string(),
            ],
            &widths,
        );
    }
    println!("\nsmaller reserves off-line more but stall allocations more often");
}
