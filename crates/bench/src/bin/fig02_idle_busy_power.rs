//! Fig. 2: DRAM idle and busy power as capacity grows (paper: 18 W idle /
//! 26 W busy at 256 GB; 9 W → 91 W from 64 GB to 1 TB with the background
//! share rising 44 % → 78 %).
//!
//! Each capacity is one sweep point (`--jobs N`); timing lands in
//! `results/BENCH_fig02_idle_busy_power.json` and `--telemetry PATH` dumps
//! the per-capacity power gauges as JSONL.

use gd_bench::energy::{memspec_suffix, platform_desc, MeasureOpts};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{provenance_line, timed_sweep, SweepOpts, TelemetryOpts};
use gd_obs::Telemetry;
use gd_power::{memspec_for, ActivityProfile, PowerGating};
use gd_types::config::DramConfig;

fn main() {
    let mopts = MeasureOpts::from_args();
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    println!(
        "{}{}",
        provenance_line(
            "fig02_idle_busy_power",
            &format!(
                "analytic {} base=256GB busy_util=0.45 caps=64..1024",
                platform_desc(mopts.memspec)
            ),
            &sw,
        ),
        memspec_suffix(mopts.memspec)
    );
    let caps = [64u64, 128, 256, 512, 768, 1024];
    let labels: Vec<String> = caps.iter().map(|c| format!("{c}GB")).collect();
    let results: Vec<(f64, f64, Option<Telemetry>)> = timed_sweep(
        "fig02_idle_busy_power",
        &caps,
        &labels,
        sw.jobs,
        |_ctx, &cap_gb| {
            let base = memspec_for(DramConfig::preset_256gb(mopts.memspec)).expect("paper preset");
            let idle_256 =
                base.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
            let busy_256 =
                base.analytic_power_w(&ActivityProfile::busy(0.45), &PowerGating::none());
            // Activity power is set by the workload (16 copies of mcf), not
            // by the installed capacity: only the background term scales
            // with DIMM count.
            let activity_w = busy_256 - idle_256;
            let idle = if cap_gb == 64 {
                let m64 =
                    memspec_for(DramConfig::preset_64gb(mopts.memspec)).expect("paper preset");
                m64.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none())
            } else {
                // Capacity past the preset scales linearly in installed
                // DIMMs (the paper fits the same linear model).
                idle_256 * cap_gb as f64 / 256.0
            };
            let busy = idle + activity_w;
            let mut tele = topts.shard();
            if let Some(t) = &mut tele {
                t.registry.gauge_set("power.idle_w", idle);
                t.registry.gauge_set("power.busy_w", busy);
            }
            (idle, busy, tele)
        },
    );

    let widths = [10, 10, 10, 14];
    header(
        "Fig. 2: DRAM idle/busy power vs. capacity",
        &["capacity", "idle (W)", "busy (W)", "bg fraction"],
        &widths,
    );
    for (&cap_gb, (idle, busy, _)) in caps.iter().zip(&results) {
        row(
            &[
                format!("{cap_gb} GB"),
                f2(*idle),
                f2(*busy),
                pct(idle / busy),
            ],
            &widths,
        );
    }
    println!("\npaper: 18/26 W at 256 GB; 9→91 W busy from 64 GB→1 TB; bg 44%→78%");
    topts.write(
        &labels
            .iter()
            .zip(results)
            .map(|(l, (_, _, tele))| (l.clone(), tele))
            .collect::<Vec<_>>(),
    );
}
