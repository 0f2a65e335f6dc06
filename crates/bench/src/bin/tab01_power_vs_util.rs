//! Table 1: DRAM power vs. utilization of memory capacity — without power
//! management the power is flat (paper: 25.8–26.0 W at 256 GB).
//!
//! Each utilization is one sweep point (`--jobs N`); `--telemetry PATH`
//! dumps the power gauges as JSONL.

use gd_bench::report::{f2, header, row};
use gd_bench::BenchArgs;
use gd_power::{ActivityProfile, DramPowerModel, PowerGating};
use gd_types::config::DramConfig;
use gd_types::Fraction;

fn main() {
    let args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    args.finish();
    args.provenance("analytic ddr4-2133 256GB busy_util=0.40 utils=10..100");
    // A lightly loaded server: capacity utilization does not enter the
    // conventional power equation at all — only traffic does.
    let utils = [0.10, 0.25, 0.50, 0.75, 1.00];
    let label = |u: &f64| format!("{:.0}%", u * 100.0);
    let results = args.sweep(&utils, label, |_util, sink| {
        let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb()).expect("paper preset");
        let busy = ActivityProfile::busy(Fraction::lit(0.40));
        let p = model.analytic_power_w(&busy, &PowerGating::none());
        sink.fill(|tele| {
            if let Some(t) = tele {
                t.registry.gauge_set("power.dram_w", p);
            }
        });
        p
    });

    let widths = [12, 10];
    header(
        "Table 1: DRAM power vs. utilization of memory capacity (256 GB)",
        &["utilization", "power (W)"],
        &widths,
    );
    for (u, p) in utils.iter().zip(results) {
        row(&[label(u), f2(p)], &widths);
    }
    println!("\npaper: 25.8 W .. 26.0 W — constant regardless of used capacity");
}
