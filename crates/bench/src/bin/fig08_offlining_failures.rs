//! Fig. 8: off-lining failures — random block choice vs. checking the
//! sysfs `removable` flag first (paper: removable-first cuts failures
//! ~50 %, and churning apps fail most).
//!
//! Each app is one sweep point (`--jobs N`) aggregating seeds × both
//! selector policies; `--requests N` sets the seed count (at most 64);
//! timing lands in `results/BENCH_fig08_offlining_failures.json` and
//! `--telemetry PATH` dumps every run's daemon/mm books as JSONL (one
//! shard per app/seed/policy).

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{header, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_mmsim::MmConfig;
use gd_obs::Telemetry;
use gd_workloads::spec2006_offlining_set;
use greendimm::{GreenDimmConfig, SelectorPolicy};

struct Point {
    totals: [u64; 4],
    shards: Vec<(String, Option<Telemetry>)>,
}

fn main() {
    let mut args = BenchArgs::from_env();
    let seed_count = args.requests_count(5, 64) as u64;
    args.finish();
    args.provenance(
        "fig08_offlining_failures",
        &format!(
            "managed=8GiB blocks=128 transient_fail=0.5 unmovable_leak=0.30 seeds=1..{seed_count}"
        ),
    );
    let region = |seed| MmConfig {
        transient_fail_prob: 0.5,
        unmovable_leak_prob: 0.30,
        ..managed_region(128, seed)
    };
    let profiles = spec2006_offlining_set();
    let labels: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let results = timed_sweep(
        "fig08_offlining_failures",
        &profiles,
        &labels,
        args.jobs,
        |_ctx, p| {
            let mut totals = [0u64; 4];
            let mut shards = Vec::new();
            for seed in 1..=seed_count {
                for (policy, slot) in [
                    (SelectorPolicy::Random, 0),
                    (SelectorPolicy::RemovableFirst, 2),
                ] {
                    let (r, tele) = block_size_experiment(
                        p,
                        region(seed),
                        GreenDimmConfig::paper_default().with_selector(policy),
                        None,
                        None,
                        args.telemetry.enabled().then_some("blocks"),
                    )
                    .expect("co-sim");
                    totals[slot] += r.failures;
                    totals[slot + 1] += r.failures_eagain;
                    shards.push((format!("{}/s{seed}/{policy:?}", p.name), tele));
                }
            }
            Point { totals, shards }
        },
    );

    let widths = [16, 10, 12, 12, 12];
    header(
        "Fig. 8: off-lining failures by selector policy (128 MB blocks)",
        &["app", "random", "rnd EAGAIN", "removable", "rm EAGAIN"],
        &widths,
    );
    for (p, r) in profiles.iter().zip(&results) {
        row(
            &[
                p.name.to_string(),
                r.totals[0].to_string(),
                r.totals[1].to_string(),
                r.totals[2].to_string(),
                r.totals[3].to_string(),
            ],
            &widths,
        );
    }
    println!("\n(summed over {seed_count} seeds)");
    println!("paper: removable-first reduces failures by ~50%; churny apps fail most");
    args.telemetry.write(
        &results
            .into_iter()
            .flat_map(|r| r.shards)
            .collect::<Vec<_>>(),
    );
}
