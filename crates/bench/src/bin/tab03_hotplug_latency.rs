//! Table 3: average latencies of off-lining, on-lining, and the two
//! failure modes (paper: 1.58 ms / 3.44 ms / EAGAIN 4.37 ms / EBUSY 6 µs),
//! measured by forcing each path through the hotplug machinery.
//!
//! One sweep point (`--jobs N` accepted for interface uniformity);
//! `--requests N` sets the iterations per path; timing lands in
//! `results/BENCH_tab03_hotplug_latency.json` and `--telemetry PATH`
//! dumps the mm books as JSONL.

use gd_bench::report::{header, row};
use gd_bench::{timed_sweep, BenchArgs};
use gd_mmsim::{HotplugStats, MemoryManager, MmConfig, PageKind};
use gd_obs::Telemetry;

fn measure(iters: usize, tele: &mut Option<Telemetry>) -> HotplugStats {
    let mut mm = MemoryManager::new(MmConfig {
        transient_fail_prob: 1.0, // force EAGAIN on migration paths
        ..MmConfig::small_test()
    })
    .expect("config");

    // Success + online: free block.
    for _ in 0..iters {
        mm.offline_block(15).unwrap().unwrap();
        mm.online_block(15).unwrap();
    }
    // EBUSY: kernel pages in block 0.
    let kernel = mm.allocate(64, PageKind::KernelUnmovable).unwrap();
    for _ in 0..iters {
        mm.offline_block(0).unwrap().unwrap_err();
    }
    mm.free(kernel).unwrap();
    // EAGAIN: movable pages, but migration always transiently fails.
    let app = mm.allocate(1000, PageKind::UserMovable).unwrap();
    for _ in 0..iters {
        mm.offline_block(0).unwrap().unwrap_err();
    }
    mm.free(app).unwrap();
    if let Some(t) = tele {
        mm.export_telemetry(t, "tab03");
    }
    mm.stats
}

fn main() {
    let args = BenchArgs::from_env();
    args.finish();
    let iters = args.requests.unwrap_or(50);
    args.provenance(
        "tab03_hotplug_latency",
        &format!("mm-small-test transient_fail=1.0 iters={iters}"),
    );
    let points = ["latency"];
    let labels = vec!["latency".to_string()];
    let mut results = timed_sweep(
        "tab03_hotplug_latency",
        &points,
        &labels,
        args.jobs,
        |_ctx, _| {
            let mut tele = args.telemetry.shard();
            let stats = measure(iters, &mut tele);
            (stats, tele)
        },
    );
    let s = &results[0].0;

    let widths = [22, 18, 14];
    header(
        "Table 3: hotplug operation latencies (while running mcf)",
        &["event", "avg latency", "paper"],
        &widths,
    );
    let fmt_us = |v: Option<f64>| match v {
        Some(us) if us >= 1000.0 => format!("{:.2} ms", us / 1000.0),
        Some(us) => format!("{us:.0} us"),
        None => "-".into(),
    };
    row(
        &[
            "off-lining".into(),
            fmt_us(s.offline_latency_us.mean()),
            "1.58 ms".into(),
        ],
        &widths,
    );
    row(
        &[
            "on-lining".into(),
            fmt_us(s.online_latency_us.mean()),
            "3.44 ms".into(),
        ],
        &widths,
    );
    row(
        &[
            "failure (EAGAIN)".into(),
            fmt_us(s.eagain_latency_us.mean()),
            "4.37 ms".into(),
        ],
        &widths,
    );
    row(
        &[
            "failure (EBUSY)".into(),
            fmt_us(s.ebusy_latency_us.mean()),
            "6 us".into(),
        ],
        &widths,
    );
    println!(
        "\ncounts: {} offline, {} online, {} EAGAIN, {} EBUSY",
        s.offline_success, s.online_count, s.offline_eagain, s.offline_ebusy
    );
    args.telemetry
        .write(&[("latency".to_string(), results[0].1.take())]);
}
