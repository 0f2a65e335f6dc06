//! Table 1: DRAM power vs. utilization of memory capacity — without power
//! management the power is flat (paper: 25.8–26.0 W at 256 GB).
//!
//! Each utilization is one sweep point (`--jobs N`); timing lands in
//! `results/BENCH_tab01_power_vs_util.json` and `--telemetry PATH` dumps
//! the power gauges as JSONL.

use gd_bench::report::{f2, header, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_obs::Telemetry;
use gd_power::{ActivityProfile, DramPowerModel, PowerGating};
use gd_types::config::DramConfig;

fn main() {
    let args = BenchArgs::from_env();
    args.finish();
    args.provenance(
        "tab01_power_vs_util",
        "analytic ddr4-2133 256GB busy_util=0.40 utils=10..100",
    );
    // A lightly loaded server: capacity utilization does not enter the
    // conventional power equation at all — only traffic does.
    let utils = [0.10, 0.25, 0.50, 0.75, 1.00];
    let labels: Vec<String> = utils.iter().map(|u| format!("{:.0}%", u * 100.0)).collect();
    let results: Vec<(f64, Option<Telemetry>)> = timed_sweep(
        "tab01_power_vs_util",
        &utils,
        &labels,
        args.jobs,
        |_ctx, _util| {
            let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb()).expect("paper preset");
            let p = model.analytic_power_w(&ActivityProfile::busy(0.40), &PowerGating::none());
            let mut tele = args.telemetry.shard();
            if let Some(t) = &mut tele {
                t.registry.gauge_set("power.dram_w", p);
            }
            (p, tele)
        },
    );

    let widths = [12, 10];
    header(
        "Table 1: DRAM power vs. utilization of memory capacity (256 GB)",
        &["utilization", "power (W)"],
        &widths,
    );
    for (label, (p, _)) in labels.iter().zip(&results) {
        row(&[label.clone(), f2(*p)], &widths);
    }
    println!("\npaper: 25.8 W .. 26.0 W — constant regardless of used capacity");
    args.telemetry.write(
        &labels
            .iter()
            .zip(results)
            .map(|(l, (_, tele))| (l.clone(), tele))
            .collect::<Vec<_>>(),
    );
}
