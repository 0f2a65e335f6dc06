//! Fig. 7: execution-time increase vs. block size (paper: all under 3 %;
//! overhead grows slightly as blocks shrink — mcf 2.9 % @128 MB vs 2.2 %
//! @512 MB).
//!
//! Each {app × block size} co-simulation is one sweep point (`--jobs N`);
//! timing lands in `results/BENCH_fig07_blocksize_overhead.json` and
//! `--telemetry PATH` dumps every run's daemon/mm books as JSONL.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{header, pct, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_workloads::{spec2006_offlining_set, AppProfile};
use greendimm::GreenDimmConfig;

const BLOCKS: [u64; 3] = [128, 256, 512];

fn main() {
    let args = BenchArgs::from_env();
    args.finish();
    args.provenance(
        "fig07_blocksize_overhead",
        "managed=8GiB spec2006-offlining blocks=128/256/512 seed=1",
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
        "fig07_blocksize_overhead",
        &points,
        &labels,
        args.jobs,
        |_ctx, (p, block_mib)| {
            block_size_experiment(
                p,
                managed_region(*block_mib, 1),
                GreenDimmConfig::paper_default(),
                None,
                None,
                args.telemetry.enabled().then_some("blocks"),
            )
            .expect("co-sim")
        },
    );

    let widths = [16, 10, 10, 10];
    header(
        "Fig. 7: execution-time increase by GreenDIMM vs. block size",
        &["app", "128MB", "256MB", "512MB"],
        &widths,
    );
    for (i, p) in profiles.iter().enumerate() {
        let mut cells = vec![p.name.to_string()];
        for j in 0..BLOCKS.len() {
            cells.push(pct(results[i * BLOCKS.len() + j].0.overhead_fraction));
        }
        row(&cells, &widths);
    }
    println!("\npaper: <3% everywhere; overhead decreases slightly with larger blocks");
    args.telemetry.write(
        &labels
            .iter()
            .zip(results)
            .map(|(l, (_, tele))| (l.clone(), tele))
            .collect::<Vec<_>>(),
    );
}
