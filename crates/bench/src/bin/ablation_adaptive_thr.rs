//! Ablation (extension): adaptive off_thr — back off the reserve after
//! stalls/failures, decay back when quiet. Compare against the fixed 10 %.
//!
//! App points fan across the sweep pool (`--jobs N`); `--telemetry PATH`
//! dumps every run's daemon/mm books as JSONL.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::BenchArgs;
use gd_workloads::spec2006_offlining_set;
use greendimm::GreenDimmConfig;

fn main() {
    let args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    args.finish();
    args.provenance("managed=8GiB spec2006-offlining blocks=128 seed=1 fixed-vs-adaptive");
    let profiles = spec2006_offlining_set();
    let results = args.sweep(
        &profiles,
        |p| p.name.to_string(),
        |p, sink| {
            [("/fixed", false), ("/adaptive", true)].map(|(suffix, adaptive_off_thr)| {
                let (row, tele) = block_size_experiment(
                    p,
                    managed_region(128, 1),
                    GreenDimmConfig {
                        adaptive_off_thr,
                        ..GreenDimmConfig::paper_default()
                    },
                    None,
                    None,
                    sink.enabled().then_some("blocks"),
                )
                .expect("co-sim");
                sink.give(suffix, tele);
                row
            })
        },
    );

    let widths = [16, 12, 12, 12, 12];
    header(
        "Ablation: fixed vs adaptive off_thr (128 MB blocks)",
        &["app", "fixed GiB", "fixed ovh", "adapt GiB", "adapt ovh"],
        &widths,
    );
    for (p, [fixed, adaptive]) in profiles.iter().zip(results) {
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
