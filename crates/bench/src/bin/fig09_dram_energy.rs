//! Fig. 9: DRAM energy, normalized to (w/o interleave, srf_only), for four
//! policies under both interleave modes (paper: GreenDIMM reduces DRAM
//! energy 38 % for SPEC and 60 % for data-center workloads on average,
//! and beats RAMZzz/PASR by ~49 pp when interleaving is on).
//!
//! Every app is an independent sweep point; `--jobs N` fans them across a
//! worker pool (`--jobs 1` reproduces the serial path bit-for-bit), the
//! wall-clock profile lands in `results/BENCH_fig09_dram_energy.json`, and
//! `--telemetry PATH` dumps each run's DRAM books as JSONL.

use gd_bench::energy::{
    engine_name, evaluate_app_tele, memspec_suffix, platform_desc, MeasureOpts,
};
use gd_bench::report::{f2, header, row};
use gd_bench::{provenance_line_with_engine, timed_sweep, SweepOpts, TelemetryOpts};
use gd_types::config::DramConfig;
use gd_types::stats::geomean;
use gd_workloads::energy_figure_set;

fn main() {
    let opts = MeasureOpts::from_args();
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    let cfg = DramConfig::preset_64gb(opts.memspec);
    let requests = sw.requests.unwrap_or(20_000);
    println!(
        "{}{}",
        provenance_line_with_engine(
            "fig09_dram_energy",
            &format!(
                "{} 64GB energy-figure-set requests={requests} seed=1",
                platform_desc(opts.memspec)
            ),
            engine_name(opts.engine),
            &sw,
        ),
        memspec_suffix(opts.memspec)
    );
    if opts.strict_validate {
        println!("[strict-validate: protocol + governor invariants enforced]");
    }
    let profiles = energy_figure_set();
    let labels: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let mut results = timed_sweep(
        "fig09_dram_energy",
        &profiles,
        &labels,
        sw.jobs,
        |_ctx, p| {
            let mut tele = topts.shard();
            let rows = evaluate_app_tele(p, cfg, requests, 1, opts, tele.as_mut());
            (rows, tele)
        },
    );
    topts.write(
        &labels
            .iter()
            .zip(&mut results)
            .map(|(l, (_, tele))| (l.clone(), tele.take()))
            .collect::<Vec<_>>(),
    );
    let results: Vec<_> = results.into_iter().map(|(rows, _)| rows).collect();

    let widths = [16, 9, 9, 9, 9, 9, 9, 9, 9];
    header(
        "Fig. 9: normalized DRAM energy (baseline = w/o intlv, srf_only)",
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
                .map(|r| r.dram_norm)
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
    println!("paper: GreenDIMM -38% (SPEC) / -60% (data-center) vs baseline");
}
