//! Ablation: the off-lining threshold `off_thr` — the paper fixes 10 %
//! because lower values cause swapping; sweep it and watch the
//! offline-capacity / on-lining-stall trade-off.
//!
//! Threshold points fan across the sweep pool (`--jobs N`);
//! `--telemetry PATH` dumps every run's daemon/mm books as JSONL.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::BenchArgs;
use gd_workloads::by_name;
use greendimm::GreenDimmConfig;

fn main() {
    let args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    args.finish();
    args.provenance("managed=8GiB gcc blocks=128 seed=1 thresholds=0.05..0.30");
    let thresholds = [0.05, 0.10, 0.15, 0.20, 0.30];
    let gcc = by_name("gcc").expect("profile");
    let results = args.sweep(
        &thresholds,
        |t| format!("off_thr={t}"),
        |&off_thr, sink| {
            let cfg = GreenDimmConfig {
                off_thr,
                on_thr: off_thr / 2.0,
                ..GreenDimmConfig::paper_default()
            };
            let (row, tele) = block_size_experiment(
                &gcc,
                managed_region(128, 1),
                cfg,
                None,
                None,
                sink.enabled().then_some("blocks"),
            )
            .expect("co-sim");
            sink.give("", tele);
            row
        },
    );

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
