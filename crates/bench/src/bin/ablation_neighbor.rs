//! Ablation: the shared-sense-amplifier neighbour constraint (§6.1) — how
//! much deep power-down residency does requiring buddy groups cost?
//!
//! App points fan across the sweep pool (`--jobs N`); timing lands in
//! `results/BENCH_ablation_neighbor.json`.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{header, pct, row};
use gd_bench::{run_vm_trace, timed_sweep, BenchArgs};
use gd_fleet::HostSimConfig;
use gd_workloads::spec2006_offlining_set;
use greendimm::GreenDimmConfig;

fn main() {
    let mut args = BenchArgs::from_env();
    let engine = args.engine();
    args.finish();
    args.provenance(
        "ablation_neighbor",
        "managed=8GiB spec2006-offlining blocks=128 seed=1 constraint-on-vs-off",
    );
    // The VM-trace runner uses the paper-default daemon (constraint ON).
    // For the ablation we compare against the same run with the constraint
    // relaxed through the block-size machinery at 8 GB scale.
    let profiles = spec2006_offlining_set();
    let labels: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let results = timed_sweep(
        "ablation_neighbor",
        &profiles,
        &labels,
        args.jobs,
        |_ctx, p| {
            let (with, tele_with) = block_size_experiment(
                p,
                managed_region(128, 1),
                GreenDimmConfig::paper_default(),
                None,
                None,
                args.telemetry.enabled().then_some("blocks"),
            )
            .expect("co-sim");
            let (without, tele_without) = block_size_experiment(
                p,
                managed_region(128, 1),
                GreenDimmConfig {
                    neighbor_constraint: false,
                    ..GreenDimmConfig::paper_default()
                },
                None,
                None,
                args.telemetry.enabled().then_some("blocks"),
            )
            .expect("co-sim");
            (with, without, tele_with, tele_without)
        },
    );

    let widths = [16, 16, 16];
    header(
        "Ablation: neighbour (shared sense-amp) constraint",
        &["app", "deepPD w/ cstr", "deepPD w/o"],
        &widths,
    );
    let mut results = results;
    args.telemetry.write(
        &labels
            .iter()
            .zip(&mut results)
            .flat_map(|(l, (_, _, tw, two))| {
                [
                    (format!("{l}/with"), tw.take()),
                    (format!("{l}/without"), two.take()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let results: Vec<_> = results.into_iter().map(|(w, wo, _, _)| (w, wo)).collect();
    for (p, (with, without)) in profiles.iter().zip(results) {
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
            engine,
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
