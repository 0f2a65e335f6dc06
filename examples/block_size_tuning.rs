//! Tuning the memory-block size (paper §5.1): smaller blocks off-line more
//! capacity but cause more hotplug events; larger blocks are cheaper but
//! coarser. Sweep the three sizes the paper evaluates for a churning app.
//!
//! ```text
//! cargo run --release --example block_size_tuning
//! ```

use greendimm_suite::bench::{block_size_experiment, managed_region};
use greendimm_suite::core::GreenDimmConfig;
use greendimm_suite::workloads::by_name;

fn main() {
    let app = by_name("gcc").expect("built-in profile");
    println!(
        "workload: {} (peak footprint {} MB, churning)\n",
        app.name, app.footprint_mib
    );
    println!("block   offlined   overhead   on/off events");
    for block_mib in [128u64, 256, 512] {
        let (r, _) = block_size_experiment(
            &app,
            managed_region(block_mib, 1),
            GreenDimmConfig::paper_default(),
            None,
            None,
            None,
        )
        .expect("co-simulation");
        println!(
            "{:>4}MB  {:6.2}GiB  {:7.2}%   {:>6}",
            block_mib,
            r.offlined_gib_avg,
            r.overhead_fraction * 100.0,
            r.hotplug_events
        );
    }
    println!("\nthe paper picks the block size that maps to one sub-array group");
    println!("(most off-lined capacity) since the overhead difference is small.");
}
