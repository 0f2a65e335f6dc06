//! Fig. 10: system energy, same matrix as Fig. 9 (paper: GreenDIMM reduces
//! system energy by 26 % for SPEC and 30 % for data-center workloads; only
//! GreenDIMM helps when interleaving is on).
//!
//! Apps fan across the sweep pool (`--jobs N`); timing lands in
//! `results/BENCH_fig10_system_energy.json` and `--telemetry PATH` dumps
//! each run's DRAM books as JSONL.

use gd_bench::energy::{evaluate_app_tele, platform_desc};
use gd_bench::report::{f2, header, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_types::config::DramConfig;
use gd_types::stats::geomean;
use gd_workloads::energy_figure_set;

fn main() {
    let mut args = BenchArgs::from_env();
    let opts = args.measure();
    args.finish();
    let cfg = DramConfig::preset_64gb(opts.memspec);
    let requests = args.requests.unwrap_or(20_000);
    args.provenance(
        "fig10_system_energy",
        &format!(
            "{} 64GB energy-figure-set requests={requests} seed=1",
            platform_desc(opts.memspec)
        ),
    );
    if opts.strict_validate {
        println!("[strict-validate: protocol + governor invariants enforced]");
    }
    let profiles = energy_figure_set();
    let labels: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let mut results = timed_sweep(
        "fig10_system_energy",
        &profiles,
        &labels,
        args.jobs,
        |_ctx, p| {
            let mut tele = args.telemetry.shard();
            let rows = evaluate_app_tele(p, cfg, requests, 1, opts, tele.as_mut());
            (rows, tele)
        },
    );
    args.telemetry.write(
        &labels
            .iter()
            .zip(&mut results)
            .map(|(l, (_, tele))| (l.clone(), tele.take()))
            .collect::<Vec<_>>(),
    );
    let results: Vec<_> = results.into_iter().map(|(rows, _)| rows).collect();

    let widths = [16, 9, 9, 9, 9, 9, 9, 9, 9];
    header(
        "Fig. 10: normalized system energy (baseline = w/o intlv, srf_only)",
        &[
            "app", "srf-", "srf+", "RZ-", "RZ+", "PASR-", "PASR+", "GD-", "GD+",
        ],
        &widths,
    );
    println!("('-' = w/o interleaving, '+' = w/ interleaving)");
    let mut gd_norms = Vec::new();
    for (p, rows) in profiles.iter().zip(results) {
        let rows = rows.expect("energy");
        let cell = |policy: &str, intlv: bool| {
            gd_bench::find_row(&rows, policy, intlv)
                .map(|r| r.system_norm)
                .unwrap_or(f64::NAN)
        };
        gd_norms.push(cell("GreenDIMM", true));
        row(
            &[
                p.name.to_string(),
                f2(cell("srf_only", false)),
                f2(cell("srf_only", true)),
                f2(cell("RAMZzz", false)),
                f2(cell("RAMZzz", true)),
                f2(cell("PASR", false)),
                f2(cell("PASR", true)),
                f2(cell("GreenDIMM", false)),
                f2(cell("GreenDIMM", true)),
            ],
            &widths,
        );
    }
    if let Some(g) = geomean(&gd_norms) {
        println!(
            "\nGreenDIMM w/ interleaving geomean: {:.2} of baseline ({}% reduction)",
            g,
            ((1.0 - g) * 100.0).round()
        );
    }
    println!("paper: GreenDIMM -26% (SPEC) / -30% (data-center) vs baseline");
}
