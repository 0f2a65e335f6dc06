//! Fig. 8: off-lining failures — random block choice vs. checking the
//! sysfs `removable` flag first (paper: removable-first cuts failures
//! ~50 %, and churning apps fail most).
//!
//! Each app is one sweep point (`--jobs N`) aggregating seeds × both
//! selector policies; `--requests N` sets the seed count (at most 64);
//! `--telemetry PATH` dumps every run's daemon/mm books as JSONL (one
//! shard per app/seed/policy). Each point's sidecar `work` holds its
//! hotplug events, failures, EAGAIN failures and daemon ticks, summed over
//! its seed × policy runs.

use gd_bench::blocks::{block_size_experiment, managed_region};
use gd_bench::report::{header, row};
use gd_bench::BenchArgs;
use gd_mmsim::MmConfig;
use gd_types::Fraction;
use gd_workloads::spec2006_offlining_set;
use greendimm::{GreenDimmConfig, SelectorPolicy};

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let seed_count = args.requests_count(5, 64) as u64;
    args.finish();
    args.provenance(&format!(
        "managed=8GiB blocks=128 transient_fail=0.5 seeds=1..{seed_count}"
    ));
    let region = |seed| MmConfig {
        transient_fail_prob: Fraction::lit(0.5),
        ..managed_region(128, seed)
    };
    let profiles = spec2006_offlining_set();
    let results = args.sweep(
        &profiles,
        |p| p.name.to_string(),
        |p, sink| {
            let mut totals = [0u64; 4];
            let (mut events, mut ticks) = (0u64, 0u64);
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
                        sink.enabled().then_some("blocks"),
                    )
                    .expect("co-sim");
                    totals[slot] += r.failures;
                    totals[slot + 1] += r.failures_eagain;
                    events += r.hotplug_events;
                    ticks += r.daemon.ticks;
                    sink.give(&format!("/s{seed}/{policy:?}"), tele);
                }
            }
            sink.record_work(&[
                ("hotplug_events", events),
                ("failures", totals[0] + totals[2]),
                ("failures_eagain", totals[1] + totals[3]),
                ("daemon_ticks", ticks),
            ]);
            totals
        },
    );

    let widths = [16, 10, 12, 12, 12];
    header(
        "Fig. 8: off-lining failures by selector policy (128 MB blocks)",
        &["app", "random", "rnd EAGAIN", "removable", "rm EAGAIN"],
        &widths,
    );
    for (p, totals) in profiles.iter().zip(results) {
        let mut cells = vec![p.name.to_string()];
        cells.extend(totals.map(|t| t.to_string()));
        row(&cells, &widths);
    }
    println!("\n(summed over {seed_count} seeds)");
    println!("paper: removable-first reduces failures by ~50%; churny apps fail most");
}
