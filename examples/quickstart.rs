//! Quickstart: run one benchmark under GreenDIMM and print its report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use greendimm_suite::core::{GreenDimmSystem, SystemConfig};
use greendimm_suite::power::{ActivityProfile, DramPowerModel, PowerGating};

fn main() {
    // The paper's 64 GB SPEC platform, managed in 1 GB blocks (one
    // sub-array group each).
    let cfg = SystemConfig::spec_64gb();
    let mut sys = GreenDimmSystem::new(cfg);

    println!("running libquantum (64 MB footprint, high MPKI) under GreenDIMM...\n");
    let report = sys.run_app("libquantum", 42);

    println!("benchmark            : {}", report.name);
    println!("baseline runtime     : {:.1} s", report.baseline_runtime_s);
    println!(
        "runtime w/ GreenDIMM : {:.1} s  (+{:.2}%)",
        report.runtime_s,
        report.overhead_fraction * 100.0
    );
    println!(
        "avg read latency     : {:.0} memory cycles",
        report.avg_read_latency_cycles
    );
    println!(
        "off-lined capacity   : {:.0}% of managed memory (time-averaged)",
        report.avg_offline_fraction * 100.0
    );
    println!("DRAM power           : {:.1} W", report.dram_power_w);
    println!("DRAM energy          : {:.0} J", report.dram_energy_joules);
    println!(
        "system energy        : {:.0} J",
        report.system_energy_joules
    );
    println!(
        "hotplug events       : {} off-line, {} on-line, {} failures",
        report.daemon.offline_events,
        report.daemon.online_events,
        report.daemon.failures()
    );

    // What the same platform would burn without GreenDIMM: a tiny footprint
    // still keeps every sub-array powered and refreshing.
    let model = DramPowerModel::new(sys.config().dram).expect("valid DRAM config");
    let conventional = model.analytic_power_w(&ActivityProfile::busy(0.2), &PowerGating::none());
    println!(
        "\nconventional DRAM power for the same run: {:.1} W -> GreenDIMM saves {:.0}%",
        conventional,
        (1.0 - report.dram_power_w / conventional) * 100.0
    );
}
