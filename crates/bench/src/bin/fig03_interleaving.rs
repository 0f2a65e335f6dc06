//! Fig. 3: the impact of memory interleaving on performance, self-refresh
//! residency, and energy for high-MPKI SPEC CPU2006 benchmarks
//! (paper: up to 3.8x speedup; 0 % vs ~54 % SR cycles; −26 % energy w/o
//! interleaving).
//!
//! Each app is one sweep point (`--jobs N`, `--requests N` for smoke runs);
//! timing lands in `results/BENCH_fig03_interleaving.json` and
//! `--telemetry PATH` dumps each run's DRAM books as JSONL.

use gd_bench::energy::{evaluate_app_tele, find_row, measure_app};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_obs::Telemetry;
use gd_types::config::{DramConfig, InterleaveMode};
use gd_workloads::by_name;

struct Point {
    app: String,
    speedup: f64,
    sr_with: f64,
    sr_without: f64,
    energy_ratio: f64,
    tele: Option<Telemetry>,
}

fn main() {
    let mut args = BenchArgs::from_env();
    let mopts = args.measure_ddr4();
    args.finish();
    let cfg = DramConfig::ddr4_2133_64gb();
    let apps = ["mcf", "soplex", "lbm", "libquantum"];
    let requests = args.requests.unwrap_or(25_000);
    args.provenance(
        "fig03_interleaving",
        &format!("ddr4-2133 64GB apps=mcf/soplex/lbm/libquantum requests={requests} seed=1"),
    );
    let labels: Vec<String> = apps.iter().map(|a| (*a).to_string()).collect();
    let points = timed_sweep(
        "fig03_interleaving",
        &apps,
        &labels,
        args.jobs,
        |_ctx, name| {
            let p = by_name(name).expect("profile");
            let with = measure_app(
                &p,
                cfg,
                InterleaveMode::Interleaved,
                requests,
                1,
                mopts,
                None,
            )
            .expect("cycle sim");
            let without = measure_app(&p, cfg, InterleaveMode::Linear, requests, 1, mopts, None)
                .expect("cycle sim");
            let mut tele = args.telemetry.shard();
            let rows =
                evaluate_app_tele(&p, cfg, requests, 1, mopts, tele.as_mut()).expect("energy");
            let e_with = find_row(&rows, "srf_only", true).expect("cell").system_j;
            let e_without = find_row(&rows, "srf_only", false).expect("cell").system_j;
            Point {
                app: p.name.to_string(),
                speedup: without.runtime_s / with.runtime_s,
                sr_with: with.sr_fraction,
                sr_without: without.sr_fraction,
                energy_ratio: e_without / e_with,
                tele,
            }
        },
    );

    let widths = [16, 9, 11, 11, 13];
    header(
        "Fig. 3: impact of memory interleaving (64 GB, 4ch x 4rank)",
        &["app", "speedup", "SR w/intlv", "SR w/o", "E w/o / E w/"],
        &widths,
    );
    let mut shards = Vec::new();
    for mut p in points {
        shards.push((p.app.clone(), p.tele.take()));
        row(
            &[
                p.app,
                format!("{:.2}x", p.speedup),
                pct(p.sr_with),
                pct(p.sr_without),
                f2(p.energy_ratio),
            ],
            &widths,
        );
    }
    println!("\npaper: speedup up to 3.8x (lbm); SR 0% w/ intlv vs ~54% w/o;");
    println!("w/o interleaving saves ~26% energy for these apps when SR is usable");
    args.telemetry.write(&shards);
}
