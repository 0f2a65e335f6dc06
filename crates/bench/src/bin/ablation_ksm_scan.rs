//! Ablation: KSM scan-rate sweep (§5.3) — pages_to_scan controls how fast
//! merging converges, trading CPU for reclaimed frames.
//!
//! Scan-rate points fan across the sweep pool (`--jobs N`);
//! `--telemetry PATH` dumps each point's ksm/mm books as JSONL.

use gd_bench::report::{header, row};
use gd_bench::BenchArgs;
use gd_ksm::{Ksm, KsmConfig};
use gd_mmsim::{MemoryManager, MmConfig, PageKind};
use gd_types::SimTime;

fn main() {
    let args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    args.finish();
    args.provenance("mm-small-test 2x4096-page-vms rates=100..5000");
    let rates = [100u64, 500, 1000, 5000];
    let results = args.sweep(
        &rates,
        |r| format!("pages_to_scan={r}"),
        |&pages_to_scan, sink| {
            let mut mm = MemoryManager::new(MmConfig::small_test()).expect("mm");
            let mut ksm = Ksm::new(KsmConfig {
                pages_to_scan,
                ..KsmConfig::default()
            })
            .expect("ksm config");
            let a = mm.allocate(4096, PageKind::UserMovable).expect("alloc");
            let b = mm.allocate(4096, PageKind::UserMovable).expect("alloc");
            ksm.register_region(a, vec![(7, 4096)], 0);
            ksm.register_region(b, vec![(7, 4096)], 0);
            let at60 = ksm.advance(SimTime::from_secs(60), &mut mm).expect("scan");
            let more = ksm.advance(SimTime::from_secs(540), &mut mm).expect("scan");
            sink.fill(|tele| {
                if let Some(t) = tele {
                    ksm.export_telemetry(t, "ablation", SimTime::from_secs(600));
                    mm.export_telemetry(t, "ablation");
                }
            });
            (at60, at60 + more)
        },
    );

    let widths = [14, 14, 16];
    header(
        "Ablation: KSM pages_to_scan sweep (two 4k-page VMs, 60 s)",
        &["pages/scan", "freed @60s", "freed @600s"],
        &widths,
    );
    for (rate, (at60, at600)) in rates.iter().zip(results) {
        row(
            &[rate.to_string(), at60.to_string(), at600.to_string()],
            &widths,
        );
    }
    println!("\nthe paper's 1000 pages / 50 ms costs ~10% of a core and converges in seconds");
}
