//! Table 3: average latencies of off-lining, on-lining, and the two
//! failure modes (paper: 1.58 ms / 3.44 ms / EAGAIN 4.37 ms / EBUSY 6 µs),
//! measured by forcing each path through the hotplug machinery.
//!
//! One sweep point (`--jobs N` accepted for interface uniformity);
//! `--requests N` sets the iterations per path; `--telemetry PATH` dumps
//! the mm books as JSONL.

use gd_bench::report::{header, row};
use gd_bench::BenchArgs;
use gd_mmsim::{HotplugStats, MemoryManager, MmConfig, PageKind};
use gd_obs::Telemetry;
use gd_types::Fraction;

fn measure(iters: usize, tele: Option<&mut Telemetry>) -> HotplugStats {
    let mut mm = MemoryManager::new(MmConfig {
        transient_fail_prob: Fraction::lit(1.0), // force EAGAIN on migration paths
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
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let iters = args.requests().unwrap_or(50);
    args.finish();
    args.provenance(&format!("mm-small-test transient_fail=1.0 iters={iters}"));
    let results = args.sweep(
        &["latency"],
        |p| (*p).to_string(),
        |_, sink| sink.fill(|tele| measure(iters, tele)),
    );
    let s = &results[0];

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
}
