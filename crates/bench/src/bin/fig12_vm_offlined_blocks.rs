//! Fig. 12: off-lined memory blocks over the 24 h VM trace (paper: 116 of
//! 256 blocks on average — 45 % of capacity; 230 at minimum utilization;
//! 4 at peak; KSM off-lines 61 more and cuts background power 70 %).
//!
//! The base and KSM co-simulations are two sweep points (`--jobs N`);
//! `--requests N` trims the trace to N 5-minute scheduler samples (12 to
//! 288);
//! `--telemetry PATH` dumps both runs' daemon/mm books as JSONL.

use gd_bench::report::{header, pct, row};
use gd_bench::{run_vm_trace, BenchArgs};
use gd_fleet::{HostRun, HostSimConfig};
use gd_power::{ActivityProfile, DramPowerModel, PowerGating};
use gd_types::config::DramConfig;
use gd_types::Fraction;

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let duration_s = args.trace_duration_s();
    args.finish();
    args.provenance(&format!(
        "azure-24h capacity=256GB block=1GB seed=42 duration_s={duration_s} greendimm"
    ));

    let runs = args.sweep(
        &[false, true],
        |&ksm| (if ksm { "ksm" } else { "base" }).to_string(),
        |&ksm, sink| {
            let (run, tele) = run_vm_trace(
                &HostSimConfig {
                    ksm,
                    duration_s,
                    ..HostSimConfig::paper_256gb()
                },
                sink.enabled(),
            )
            .expect("vm trace");
            sink.give("", tele);
            run
        },
    );
    let (base, ksm) = (&runs[0], &runs[1]);

    let widths = [8, 14, 14];
    header(
        "Fig. 12: off-lined 1 GB blocks over 24 h (256 GB = 256 blocks)",
        &["hour", "offline", "offline w/ksm"],
        &widths,
    );
    for h in 0..(duration_s / 3_600).max(1) {
        let avg = |o: &HostRun| {
            let v: Vec<_> = o
                .samples
                .iter()
                .filter(|s| s.time_s >= h * 3600 && s.time_s < (h + 1) * 3600)
                .map(|s| s.offline_blocks as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        row(
            &[
                format!("{h:02}"),
                format!("{:.0}", avg(base)),
                format!("{:.0}", avg(ksm)),
            ],
            &widths,
        );
    }
    let (lo, hi) = base.offline_blocks_range();
    println!(
        "\nmean {:.0} blocks offline (paper 116/256), range {lo}..{hi} (paper 4..230)",
        base.mean_offline_blocks()
    );
    println!(
        "w/ KSM: mean {:.0} blocks (+{:.0}; paper +61)",
        ksm.mean_offline_blocks(),
        ksm.mean_offline_blocks() - base.mean_offline_blocks()
    );

    // Background power reduction from the deep power-down residency.
    let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb()).expect("paper preset");
    let idle = ActivityProfile::idle_standby();
    let full = model.analytic_power_w(&idle, &PowerGating::none());
    let share = |run: &HostRun| Fraction::new(run.mean_deep_pd_fraction()).expect("deep-PD share");
    let with = model.analytic_power_w(&idle, &PowerGating::deep_pd(share(base)));
    let with_ksm = model.analytic_power_w(&idle, &PowerGating::deep_pd(share(ksm)));
    println!(
        "\nbackground power reduction: {} (paper 46%), w/ KSM {} (paper 70%)",
        pct(1.0 - with / full),
        pct(1.0 - with_ksm / full)
    );
}
