//! Ablation: KSM scan-rate sweep (§5.3) — pages_to_scan controls how fast
//! merging converges, trading CPU for reclaimed frames.
//!
//! Scan-rate points fan across the sweep pool (`--jobs N`); timing lands
//! in `results/BENCH_ablation_ksm_scan.json`.

use gd_bench::report::{header, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_ksm::{Ksm, KsmConfig};
use gd_mmsim::{MemoryManager, MmConfig, PageKind};
use gd_types::SimTime;

fn main() {
    let args = BenchArgs::from_env();
    args.finish();
    args.provenance(
        "ablation_ksm_scan",
        "mm-small-test 2x4096-page-vms rates=100..5000",
    );
    let rates = [100u64, 500, 1000, 5000];
    let labels: Vec<String> = rates.iter().map(|r| format!("pages_to_scan={r}")).collect();
    let mut results = timed_sweep(
        "ablation_ksm_scan",
        &rates,
        &labels,
        args.jobs,
        |_ctx, &pages_to_scan| {
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
            let mut tele = args.telemetry.shard();
            if let Some(t) = &mut tele {
                ksm.export_telemetry(t, "ablation", SimTime::from_secs(600));
                mm.export_telemetry(t, "ablation");
            }
            (at60, at60 + more, tele)
        },
    );
    args.telemetry.write(
        &labels
            .iter()
            .zip(&mut results)
            .map(|(l, (_, _, tele))| (l.clone(), tele.take()))
            .collect::<Vec<_>>(),
    );
    let results: Vec<_> = results.into_iter().map(|(a, b, _)| (a, b)).collect();

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
