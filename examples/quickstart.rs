//! Quickstart: run libquantum under GreenDIMM through the same two
//! experiments the figures publish, and print what each measured.
//!
//! * The managed-region run (Figs. 6–7, Table 2): the daemon off-lines
//!   128 MB blocks of an 8 GiB region while the app's footprint and a page
//!   cache move through it.
//! * The energy cells (Fig. 9): a cycle-level run on the paper's 64 GB
//!   DDR4 platform, priced under each power-management policy and
//!   normalized to self-refresh only without interleaving.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use greendimm_suite::bench::energy::{evaluate_app_opts, MeasureOpts};
use greendimm_suite::bench::{block_size_experiment, find_row, managed_region, MANAGED_BYTES};
use greendimm_suite::core::GreenDimmConfig;
use greendimm_suite::types::config::{DramConfig, MemSpecKind};
use greendimm_suite::workloads::by_name;

fn main() {
    let app = by_name("libquantum").expect("built-in profile");
    println!(
        "running {} ({} MB footprint, {} MPKI) under GreenDIMM...\n",
        app.name, app.footprint_mib, app.mpki
    );

    let (r, _) = block_size_experiment(
        &app,
        managed_region(128, 42),
        GreenDimmConfig::paper_default(),
        None,
        None,
        None,
    )
    .expect("co-simulation");
    println!("managed region, 128 MB blocks (Figs. 6-7, Table 2)");
    println!(
        "  off-lined capacity : {:.2} of {} GiB (time-averaged)",
        r.offlined_gib_avg,
        MANAGED_BYTES >> 30
    );
    println!(
        "  overhead           : {:.1}% execution time",
        r.overhead_fraction * 100.0
    );
    println!(
        "  hotplug events     : {} ({} off-lining failures)",
        r.hotplug_events, r.failures
    );

    let rows = evaluate_app_opts(
        &app,
        DramConfig::preset_64gb(MemSpecKind::Ddr4),
        20_000,
        1,
        MeasureOpts::default(),
    )
    .expect("cycle-level run");
    let norm = |policy: &str| {
        find_row(&rows, policy, true)
            .expect("energy cell")
            .dram_norm
    };
    let (srf, gd) = (norm("srf_only"), norm("GreenDIMM"));
    println!(
        "\nDRAM energy, 64 GB DDR4 with interleaving (Fig. 9; 1.00 = srf_only w/o interleaving)"
    );
    println!("  srf_only           : {srf:.2}");
    println!("  GreenDIMM          : {gd:.2}");
    println!(
        "  GreenDIMM saves {:.0}% of the DRAM energy self-refresh alone leaves",
        (1.0 - gd / srf) * 100.0
    );
}
