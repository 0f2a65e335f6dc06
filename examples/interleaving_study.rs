//! Why rank-granularity power management fails on modern servers: replay a
//! small-footprint, memory-intensive workload with and without channel/rank
//! interleaving and watch the self-refresh opportunity vanish (paper §3.3,
//! Fig. 3).
//!
//! ```text
//! cargo run --release --example interleaving_study
//! ```

use greendimm_suite::bench::energy::{measure_app, MeasureOpts};
use greendimm_suite::types::config::{DramConfig, InterleaveMode};
use greendimm_suite::workloads::by_name;

fn main() {
    let profile = by_name("libquantum").expect("built-in profile");
    println!(
        "workload: {} ({} MB footprint, MPKI {:.0})\n",
        profile.name, profile.footprint_mib, profile.mpki
    );

    let cfg = DramConfig::ddr4_2133_64gb();
    let mut runtimes = Vec::new();
    for (label, mode) in [
        ("with interleaving   ", InterleaveMode::Interleaved),
        ("without interleaving", InterleaveMode::Linear),
    ] {
        let m = measure_app(&profile, cfg, mode, 20_000, 1, MeasureOpts::default(), None)
            .expect("cycle sim");
        println!("{label}:");
        println!(
            "  runtime {:.0} s (bus utilization {:.0}%)",
            m.runtime_s,
            m.bandwidth_util.get() * 100.0
        );
        println!(
            "  rank self-refresh residency {:.1}% of cycles\n",
            m.sr_fraction.get() * 100.0
        );
        runtimes.push(m.runtime_s);
    }
    println!(
        "interleaving speeds this workload up {:.2}x but starves self-refresh —",
        runtimes[1] / runtimes[0]
    );
    println!("exactly the gap GreenDIMM's interleaving-agnostic power-down closes.");
}
