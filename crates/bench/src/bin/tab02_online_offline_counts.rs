//! Table 2: number of on/off-lining events vs. block size
//! (paper: mcf 6/2/1, gcc 47/24/12, soplex 36/18/8, lbm 30/15/6,
//! libquantum 37/17/8, povray 40/20/9 for 128/256/512 MB).
//!
//! Each {app × block size} co-simulation is one sweep point (`--jobs N`);
//! timing lands in `results/BENCH_tab02_online_offline_counts.json` and
//! `--telemetry PATH` dumps every run's daemon/mm books as JSONL.

use gd_bench::blocks::block_size_experiment_tele;
use gd_bench::report::{header, row};
use gd_bench::{print_provenance, timed_sweep, SweepOpts, TelemetryOpts};
use gd_workloads::{spec2006_offlining_set, AppProfile};
use greendimm::GreenDimmConfig;

const BLOCKS: [u64; 3] = [128, 256, 512];

fn main() {
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    print_provenance(
        "tab02_online_offline_counts",
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
        "tab02_online_offline_counts",
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

    let widths = [16, 10, 10, 10];
    header(
        "Table 2: on/off-lining events vs. block size",
        &["app", "128MB", "256MB", "512MB"],
        &widths,
    );
    for (i, p) in profiles.iter().enumerate() {
        let mut cells = vec![p.name.to_string()];
        for j in 0..BLOCKS.len() {
            cells.push(results[i * BLOCKS.len() + j].0.hotplug_events.to_string());
        }
        row(&cells, &widths);
    }
    println!("\npaper: event counts roughly halve with each block-size doubling");
    topts.write(
        &labels
            .iter()
            .zip(results)
            .map(|(l, (_, tele))| (l.clone(), tele))
            .collect::<Vec<_>>(),
    );
}
