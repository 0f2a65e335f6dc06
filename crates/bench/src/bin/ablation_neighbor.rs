//! Ablation: the shared-sense-amplifier neighbour constraint (§6.1) — how
//! much deep power-down residency does requiring buddy groups cost?
//!
//! App points fan across the sweep pool (`--jobs N`); timing lands in
//! `results/BENCH_ablation_neighbor.json`.

use gd_bench::blocks::block_size_experiment_tele;
use gd_bench::energy::{engine_name, MeasureOpts};
use gd_bench::report::{header, pct, row};
use gd_bench::{
    provenance_line_with_engine, run_vm_trace, timed_sweep, SweepOpts, TelemetryOpts, VmTraceConfig,
};
use gd_workloads::spec2006_offlining_set;
use greendimm::GreenDimmConfig;

fn main() {
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    let mopts = MeasureOpts::from_args();
    println!(
        "{}",
        provenance_line_with_engine(
            "ablation_neighbor",
            "managed=8GiB spec2006-offlining blocks=128 seed=1 constraint-on-vs-off",
            engine_name(mopts.engine),
            &sw,
        )
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
        sw.jobs,
        |_ctx, p| {
            let (with, tele_with) = block_size_experiment_tele(
                p,
                128,
                GreenDimmConfig::paper_default(),
                |c| c,
                1,
                None,
                topts.enabled(),
            )
            .expect("co-sim");
            let (without, tele_without) = block_size_experiment_tele(
                p,
                128,
                GreenDimmConfig {
                    neighbor_constraint: false,
                    ..GreenDimmConfig::paper_default()
                },
                |c| c,
                1,
                None,
                topts.enabled(),
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
    topts.write(
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
        // Deep-PD proxy: off-lined capacity is the same; what changes is
        // how much of it may be power-gated. Use the daemon's register
        // state captured in offline capacity terms.
        row(
            &[
                p.name.to_string(),
                format!("{:.2} GiB", with.offlined_gib_avg),
                format!("{:.2} GiB", without.offlined_gib_avg),
            ],
            &widths,
        );
    }
    let vm = run_vm_trace(&VmTraceConfig {
        engine: mopts.engine,
        ..VmTraceConfig::short_test()
    })
    .expect("vm trace");
    println!(
        "\nVM trace (4 h): mean deep-PD fraction {} with the constraint on",
        pct(vm.mean_deep_pd_fraction())
    );
}
