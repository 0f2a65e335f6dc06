//! Fig. 15 (extension): GreenDIMM vs. rank power-down (RAMZzz) vs. PASR
//! across memory generations — the same energy-figure workload set run on
//! the DDR4, DDR5 (same-bank refresh), and LPDDR4-PASR backends of the
//! [`gd_power::MemSpec`] power/timing layer.
//!
//! Each {backend × app} pair is one sweep point (`--jobs N`); the
//! wall-clock profile lands in `results/BENCH_fig15_cross_generation.json`
//! and `--telemetry PATH` dumps each run's DRAM books as JSONL.

use gd_bench::energy::{engine_name, evaluate_app_tele, platform_desc, EnergyRow, MeasureOpts};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{provenance_line_with_engine, timed_sweep, SweepOpts, TelemetryOpts};
use gd_types::config::{DramConfig, MemSpecKind};
use gd_types::stats::geomean;
use gd_workloads::energy_figure_set;

fn main() {
    let opts = MeasureOpts::from_args();
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    let requests = sw.requests.unwrap_or(20_000);
    println!(
        "{}",
        provenance_line_with_engine(
            "fig15_cross_generation",
            &format!(
                "cross-generation ddr4-2133/ddr5-4800/lpddr4-3200 64GB \
                 energy-figure-set requests={requests} seed=1"
            ),
            engine_name(opts.engine),
            &sw,
        )
    );
    if opts.strict_validate {
        println!("[strict-validate: protocol + governor invariants enforced]");
    }
    let profiles = energy_figure_set();
    // One point per {backend, app}; the point order (backend-major, fixed
    // MemSpecKind::all order) is part of the snapshot contract.
    let points: Vec<(MemSpecKind, &gd_workloads::AppProfile)> = MemSpecKind::all()
        .into_iter()
        .flat_map(|kind| profiles.iter().map(move |p| (kind, p)))
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|(kind, p)| format!("{}/{}", kind.name(), p.name))
        .collect();
    let mut results = timed_sweep(
        "fig15_cross_generation",
        &points,
        &labels,
        sw.jobs,
        |_ctx, &(kind, p)| {
            let cfg = DramConfig::preset_64gb(kind);
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
    let results: Vec<Vec<EnergyRow>> = results
        .into_iter()
        .map(|(rows, _)| rows.expect("energy"))
        .collect();

    let widths = [14, 9, 9, 9, 9, 12];
    header(
        "Fig. 15: normalized DRAM energy by generation (baseline = w/o intlv, srf_only)",
        &["backend", "srf+", "RZ+", "PASR+", "GD+", "GD saving"],
        &widths,
    );
    println!("(w/ interleaving; geomean over the energy-figure workload set)");
    let apps = profiles.len();
    for (b, kind) in MemSpecKind::all().into_iter().enumerate() {
        let backend_rows = &results[b * apps..(b + 1) * apps];
        let col = |policy: &str| {
            let norms: Vec<f64> = backend_rows
                .iter()
                .filter_map(|rows| gd_bench::find_row(rows, policy, true).map(|r| r.dram_norm))
                .collect();
            geomean(&norms).unwrap_or(f64::NAN)
        };
        let gd = col("GreenDIMM");
        row(
            &[
                platform_desc(kind).to_string(),
                f2(col("srf_only")),
                f2(col("RAMZzz")),
                f2(col("PASR")),
                f2(gd),
                pct(1.0 - gd),
            ],
            &widths,
        );
    }
    println!(
        "\nGreenDIMM's sub-array deep power-down survives interleaving on every \
         generation; rank power-down (RAMZzz) and PASR only help where the \
         generation's refresh/self-refresh granularity lets them."
    );
}
