//! Fig. 6: off-lined capacity as the memory block size changes
//! (paper: gcc off-lines 3.125 GB with 128 MB blocks vs 2 GB with 512 MB).
//!
//! Each {app × block size} co-simulation is one sweep point (`--jobs N`);
//! timing lands in `results/BENCH_fig06_blocksize_capacity.json` and
//! `--telemetry PATH` dumps every run's daemon/mm books as JSONL.

use gd_bench::blocks::block_size_experiment_tele;
use gd_bench::report::{f2, header, row};
use gd_bench::{print_provenance, timed_sweep, SweepOpts, TelemetryOpts};
use gd_workloads::{spec2006_offlining_set, AppProfile};
use greendimm::GreenDimmConfig;

const BLOCKS: [u64; 3] = [128, 256, 512];

fn main() {
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    print_provenance(
        "fig06_blocksize_capacity",
        "managed=8GiB spec2006-offlining blocks=128/256/512 seed=1",
        &sw,
    );
    let profiles = spec2006_offlining_set();
    let points: Vec<(AppProfile, u64)> = profiles
        .iter()
        .flat_map(|p| BLOCKS.iter().map(|&b| (p.clone(), b)))
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|(p, b)| format!("{}/{b}MB", p.name))
        .collect();
    let results = timed_sweep(
        "fig06_blocksize_capacity",
        &points,
        &labels,
        sw.jobs,
        |_ctx, (p, block_mib)| {
            block_size_experiment_tele(
                p,
                *block_mib,
                GreenDimmConfig::paper_default(),
                |c| c,
                1,
                None,
                topts.enabled(),
            )
            .expect("co-sim")
        },
    );

    let widths = [16, 12, 12, 12];
    header(
        "Fig. 6: average off-lined capacity (GiB) in an 8 GiB managed region",
        &["app", "128MB", "256MB", "512MB"],
        &widths,
    );
    for (i, p) in profiles.iter().enumerate() {
        let mut cells = vec![p.name.to_string()];
        for j in 0..BLOCKS.len() {
            cells.push(f2(results[i * BLOCKS.len() + j].0.offlined_gib_avg));
        }
        row(&cells, &widths);
    }
    println!("\npaper: smaller blocks off-line more (gcc: 3.125 GB @128MB vs 2 GB @512MB)");
    topts.write(
        &labels
            .iter()
            .zip(results)
            .map(|(l, (_, tele))| (l.clone(), tele))
            .collect::<Vec<_>>(),
    );
}
