//! Data-center scenario: a consolidated VM server (the paper's §6.3
//! motivation). Synthesizes an Azure-style VM schedule, runs the GreenDIMM
//! daemon against it with KSM on, and prints the hour-by-hour picture.
//!
//! ```text
//! cargo run --release --example vm_consolidation
//! ```

use greendimm_suite::bench::run_vm_trace;
use greendimm_suite::dram::EngineMode;
use greendimm_suite::fleet::HostSimConfig;
use greendimm_suite::power::{ActivityProfile, DramPowerModel, PowerGating};
use greendimm_suite::types::config::DramConfig;
use greendimm_suite::types::Fraction;

fn main() {
    let cfg = HostSimConfig {
        capacity_gb: 256,
        block_gb: 1,
        ksm: true,
        greendimm: true,
        duration_s: 8 * 3600, // an 8-hour shift for a quick demo
        schedule_period_s: 300,
        seed: 7,
        engine: EngineMode::EventDriven,
    };
    println!("simulating an 8 h VM consolidation trace on a 256 GB host (KSM on)...\n");
    let (out, _) = run_vm_trace(&cfg, false).expect("co-simulation");

    println!("hour  used%  offline-blocks  deep-PD%");
    for h in 0..8u64 {
        let window: Vec<_> = out
            .samples
            .iter()
            .filter(|s| s.time_s >= h * 3600 && s.time_s < (h + 1) * 3600)
            .collect();
        let n = window.len().max(1) as f64;
        let used: f64 = window.iter().map(|s| s.used_fraction).sum::<f64>() / n;
        let off: f64 = window.iter().map(|s| s.offline_blocks as f64).sum::<f64>() / n;
        let pd: f64 = window.iter().map(|s| s.deep_pd_fraction).sum::<f64>() / n;
        println!(
            "  {h:02}   {:4.0}   {:9.0}       {:5.1}",
            used * 100.0,
            off,
            pd * 100.0
        );
    }

    let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb()).expect("paper preset");
    let light = ActivityProfile::busy(Fraction::lit(0.15));
    let before = model.analytic_power_w(&light, &PowerGating::none());
    let deep_pd = Fraction::new(out.mean_deep_pd_fraction()).expect("deep-PD share");
    let after = model.analytic_power_w(&light, &PowerGating::deep_pd(deep_pd));
    println!(
        "\nmean off-line blocks : {:.0} / 256",
        out.mean_offline_blocks()
    );
    println!("KSM frames released  : {}", out.ksm_released_pages);
    println!(
        "DRAM power           : {before:.1} W -> {after:.1} W ({:.0}% saved)",
        (1.0 - after / before) * 100.0
    );
    println!(
        "hotplug              : {} offline / {} online events, {} failures",
        out.daemon.offline_events,
        out.daemon.online_events,
        out.daemon.failures()
    );
}
