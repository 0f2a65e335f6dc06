//! Fig. 1: memory capacity used by the server over 24 hours, with and
//! without KSM (paper: 48 % average, 7–92 % range; KSM −24 % on average).
//!
//! Two sweep points — the synthesized trace and the KSM co-simulation —
//! fan across the pool (`--jobs N`); `--requests N` trims the trace to N
//! 5-minute scheduler samples (12 to 288) for smoke runs; `--telemetry PATH` dumps the
//! co-simulation's daemon/mm/ksm books as JSONL.

use gd_bench::report::{header, pct, row};
use gd_bench::{run_vm_trace, BenchArgs};
use gd_fleet::HostSimConfig;
use gd_workloads::azure::{synthesize, AzureConfig};

struct Point {
    /// Mean used fraction per displayed hour.
    hourly: Vec<f64>,
    mean: f64,
    range: (f64, f64),
}

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let duration_s = args.trace_duration_s();
    args.finish();
    let azure = AzureConfig::paper_24h();
    args.provenance(&format!(
        "azure-24h capacity=256GB block=1GB seed=42 duration_s={duration_s} ksm"
    ));

    let kinds = ["trace", "ksm"];
    let hours = (duration_s / 3_600).max(1);
    let results = args.sweep(
        &kinds,
        |k| (*k).to_string(),
        |kind, sink| match *kind {
            "trace" => {
                let trace = synthesize(&AzureConfig {
                    duration_s,
                    ..azure
                });
                let hourly = (0..hours)
                    .map(|h| {
                        let t = h * 3600;
                        trace
                            .utilization
                            .iter()
                            .filter(|(ts, _)| *ts >= t && *ts < t + 3600)
                            .map(|(_, u)| u)
                            .sum::<f64>()
                            / 12.0
                    })
                    .collect();
                sink.fill(|tele| {
                    if let Some(t) = tele {
                        t.registry
                            .gauge_set("trace.mean_utilization", trace.mean_utilization());
                    }
                });
                Point {
                    hourly,
                    mean: trace.mean_utilization(),
                    range: trace.utilization_range(),
                }
            }
            _ => {
                let (out, tele) = run_vm_trace(
                    &HostSimConfig {
                        ksm: true,
                        greendimm: false,
                        duration_s,
                        ..HostSimConfig::paper_256gb()
                    },
                    sink.enabled(),
                )
                .expect("vm trace");
                sink.give("", tele);
                let hourly = (0..hours)
                    .map(|h| {
                        let t = h * 3600;
                        out.samples
                            .iter()
                            .filter(|s| s.time_s >= t && s.time_s < t + 3600)
                            .map(|s| s.used_fraction)
                            .sum::<f64>()
                            / 12.0
                    })
                    .collect();
                Point {
                    hourly,
                    mean: out.mean_used_fraction(),
                    range: (0.0, 0.0),
                }
            }
        },
    );

    let widths = [6, 12, 12];
    header(
        "Fig. 1: VM-trace memory utilization over 24 h (256 GB host)",
        &["hour", "used", "used w/ksm"],
        &widths,
    );
    let (trace, ksm) = (&results[0], &results[1]);
    for h in 0..hours as usize {
        row(
            &[format!("{h:02}"), pct(trace.hourly[h]), pct(ksm.hourly[h])],
            &widths,
        );
    }
    let (lo, hi) = trace.range;
    println!(
        "\nmean {} (paper 48%), range {}..{} (paper 7%..92%)",
        pct(trace.mean),
        pct(lo),
        pct(hi)
    );
    println!(
        "mean w/ KSM {} (paper: KSM saves 24% of used capacity on average)",
        pct(ksm.mean)
    );
}
