//! Fig. 3: the impact of memory interleaving on performance, self-refresh
//! residency, and energy for high-MPKI SPEC CPU2006 benchmarks
//! (paper: up to 3.8x speedup; 0 % vs ~54 % SR cycles; −26 % energy w/o
//! interleaving).
//!
//! Each app is one sweep point (`--jobs N`, `--requests N` for smoke runs);
//! `--telemetry PATH` dumps each run's DRAM books as JSONL.

use gd_bench::energy::{evaluate_measurements, find_row, measure_point};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::BenchArgs;
use gd_types::config::DramConfig;
use gd_workloads::by_name;

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let mopts = args.measure_ddr4();
    let requests = args.requests().unwrap_or(25_000);
    args.finish();
    let cfg = DramConfig::ddr4_2133_64gb();
    let profiles = ["mcf", "soplex", "lbm", "libquantum"].map(|a| by_name(a).expect("profile"));
    args.provenance(&format!(
        "ddr4-2133 64GB apps=mcf/soplex/lbm/libquantum requests={requests} seed=1"
    ));
    if mopts.strict_validate {
        println!("[strict-validate: protocol + governor invariants enforced]");
    }
    let rows = args.sweep(
        &profiles,
        |p| p.name.to_string(),
        |p, sink| {
            let [with, without] = measure_point(p, cfg, requests, mopts, sink).expect("cycle sim");
            let rows = evaluate_measurements(p, cfg, &with, &without, mopts).expect("energy");
            let e_with = find_row(&rows, "srf_only", true).expect("cell").system_j;
            let e_without = find_row(&rows, "srf_only", false).expect("cell").system_j;
            [
                p.name.to_string(),
                format!("{:.2}x", without.runtime_s / with.runtime_s),
                pct(with.sr_fraction.get()),
                pct(without.sr_fraction.get()),
                f2(e_without / e_with),
            ]
        },
    );

    let widths = [16, 9, 11, 11, 13];
    header(
        "Fig. 3: impact of memory interleaving (64 GB, 4ch x 4rank)",
        &["app", "speedup", "SR w/intlv", "SR w/o", "E w/o / E w/"],
        &widths,
    );
    for cells in rows {
        row(&cells, &widths);
    }
    println!("\npaper: speedup up to 3.8x (lbm); SR 0% w/ intlv vs ~54% w/o;");
    println!("w/o interleaving saves ~26% energy for these apps when SR is usable");
}
