//! Ablation: the shared-sense-amplifier neighbour constraint (§6.1) — how
//! much deep power-down residency does requiring buddy groups cost?
//!
//! App points fan across the sweep pool (`--jobs N`); `--telemetry PATH`
//! dumps every run's daemon/mm books as JSONL.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{header, pct, row};
use gd_bench::{run_vm_trace, BenchArgs};
use gd_fleet::HostSimConfig;
use gd_workloads::spec2006_offlining_set;
use greendimm::GreenDimmConfig;

fn main() {
    let args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    args.finish();
    args.provenance("managed=8GiB spec2006-offlining blocks=128 seed=1 constraint-on-vs-off");
    // The VM-trace runner uses the paper-default daemon (constraint ON).
    // For the ablation we compare against the same run with the constraint
    // relaxed through the block-size machinery at 8 GB scale.
    let profiles = spec2006_offlining_set();
    let results = args.sweep(
        &profiles,
        |p| p.name.to_string(),
        |p, sink| {
            [("/with", true), ("/without", false)].map(|(suffix, neighbor_constraint)| {
                let (row, tele) = block_size_experiment(
                    p,
                    managed_region(128, 1),
                    GreenDimmConfig {
                        neighbor_constraint,
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

    let widths = [16, 16, 16];
    header(
        "Ablation: neighbour (shared sense-amp) constraint",
        &["app", "deepPD w/ cstr", "deepPD w/o"],
        &widths,
    );
    for (p, [with, without]) in profiles.iter().zip(results) {
        // The constraint leaves off-lining alone; it decides which
        // off-lined groups may enter deep power-down.
        row(
            &[
                p.name.to_string(),
                pct(with.down_fraction_avg),
                pct(without.down_fraction_avg),
            ],
            &widths,
        );
    }
    let (vm, _) = run_vm_trace(
        &HostSimConfig {
            duration_s: 4 * 3_600,
            ..HostSimConfig::paper_256gb()
        },
        false,
    )
    .expect("vm trace");
    println!(
        "\nVM trace (4 h): mean deep-PD fraction {} with the constraint on",
        pct(vm.mean_deep_pd_fraction())
    );
}
