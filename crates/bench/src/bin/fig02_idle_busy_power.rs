//! Fig. 2: DRAM idle and busy power as capacity grows (paper: 18 W idle /
//! 26 W busy at 256 GB; 9 W → 91 W from 64 GB to 1 TB with the background
//! share rising 44 % → 78 %).
//!
//! Each capacity is one sweep point (`--jobs N`); `--telemetry PATH` dumps
//! the per-capacity power gauges as JSONL.

use gd_bench::energy::platform_desc;
use gd_bench::report::{f2, header, pct, row};
use gd_bench::BenchArgs;
use gd_power::{ActivityProfile, DramPowerModel, PowerGating};
use gd_types::config::DramConfig;
use gd_types::Fraction;

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let memspec = args.memspec();
    args.finish();
    args.provenance(&format!(
        "analytic {} base=256GB busy_util=0.45 caps=64..1024",
        platform_desc(memspec)
    ));
    let caps = [64u64, 128, 256, 512, 768, 1024];
    let results = args.sweep(
        &caps,
        |c| format!("{c}GB"),
        |&cap_gb, sink| {
            let base =
                DramPowerModel::new(DramConfig::preset_256gb(memspec)).expect("paper preset");
            let idle_256 =
                base.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
            let busy = ActivityProfile::busy(Fraction::lit(0.45));
            let busy_256 = base.analytic_power_w(&busy, &PowerGating::none());
            // Activity power is set by the workload (16 copies of mcf), not
            // by the installed capacity: only the background term scales
            // with DIMM count.
            let activity_w = busy_256 - idle_256;
            let idle = if cap_gb == 64 {
                let m64 =
                    DramPowerModel::new(DramConfig::preset_64gb(memspec)).expect("paper preset");
                m64.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none())
            } else {
                // Capacity past the preset scales linearly in installed
                // DIMMs (the paper fits the same linear model).
                idle_256 * cap_gb as f64 / 256.0
            };
            let busy = idle + activity_w;
            sink.fill(|tele| {
                if let Some(t) = tele {
                    t.registry.gauge_set("power.idle_w", idle);
                    t.registry.gauge_set("power.busy_w", busy);
                }
            });
            (idle, busy)
        },
    );

    let widths = [10, 10, 10, 14];
    header(
        "Fig. 2: DRAM idle/busy power vs. capacity",
        &["capacity", "idle (W)", "busy (W)", "bg fraction"],
        &widths,
    );
    for (&cap_gb, (idle, busy)) in caps.iter().zip(&results) {
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
}
