//! Micro-benchmarks of the substrate hot paths.
//!
//! A self-contained harness (`harness = false`): each benchmark runs its
//! closure in timed batches and reports ns/iter. This is the one place in
//! the workspace allowed to read the wall clock — measuring real elapsed
//! time is the point — so the `Instant` uses carry `gd-lint: allow`
//! annotations and a scoped clippy allow.

use gd_dram::{AddressMapper, EngineMode, LowPowerPolicy, MemRequest, MemorySystem};
use gd_mmsim::{BuddyAllocator, MemoryManager, MmConfig, PageKind};
use gd_types::config::{DramConfig, InterleaveMode};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over enough iterations to fill ~50 ms and prints ns/iter.
#[allow(clippy::disallowed_methods)] // benchmark harness measures wall time
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm-up and calibration.
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now(); // gd-lint: allow(sim-purity)
        for _ in 0..iters {
            f();
        }
        let elapsed = t0.elapsed();
        if elapsed.as_millis() >= 10 || iters >= 1 << 24 {
            break;
        }
        iters *= 4;
    }
    // Measurement: best of three batches.
    let mut best_ns = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now(); // gd-lint: allow(sim-purity)
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        best_ns = best_ns.min(ns);
    }
    println!("{name:<32} {best_ns:>12.1} ns/iter ({iters} iters)");
}

fn bench_addr_decode() {
    let mapper = AddressMapper::new(&DramConfig::ddr4_2133_64gb()).unwrap();
    let mut addr = 0u64;
    bench("addrmap/decode", || {
        addr = (addr.wrapping_add(0x9e37_79b9_7f4a_7c15)) % mapper.capacity_bytes();
        black_box(mapper.decode(black_box(addr & !63)).unwrap());
    });
}

fn bench_buddy() {
    let mut buddy = BuddyAllocator::new(1 << 15);
    bench("buddy/alloc_free_order3", || {
        let off = buddy.alloc(3).unwrap();
        buddy.free(black_box(off), 3);
    });
}

fn bench_controller() {
    bench("dram/run_trace_1k_reads", || {
        let mut sys =
            MemorySystem::new(DramConfig::small_test(), LowPowerPolicy::disabled()).unwrap();
        let reqs: Vec<_> = (0..1000u64)
            .map(|i| MemRequest::read(i * 64, i * 4))
            .collect();
        black_box(sys.run_trace(reqs).unwrap());
    });
}

fn bench_hotplug() {
    let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
    mm.allocate(1000, PageKind::UserMovable).unwrap();
    bench("mmsim/offline_online_cycle", || {
        mm.offline_block(15).unwrap().unwrap();
        mm.online_block(15).unwrap();
    });
}

/// Long idle horizon with the default idle-timeout governor: the
/// event-driven engine should jump between refresh deadlines instead of
/// stepping 1M cycles.
fn bench_fastforward_idle() {
    for (tag, mode) in [
        ("stepped", EngineMode::Stepped),
        ("event", EngineMode::EventDriven),
    ] {
        bench(&format!("dram/idle_1M_{tag}"), || {
            let mut sys =
                MemorySystem::new(DramConfig::small_test(), LowPowerPolicy::srf_default())
                    .unwrap()
                    .with_engine_mode(mode);
            black_box(sys.run_idle(1_000_000));
        });
    }
}

/// Refresh-heavy idle horizon with low-power states disabled: every rank
/// stays in standby, so tREFI deadlines are the only events and the
/// fast-forward path jumps a full refresh interval at a time.
fn bench_fastforward_refresh() {
    for (tag, mode) in [
        ("stepped", EngineMode::Stepped),
        ("event", EngineMode::EventDriven),
    ] {
        bench(&format!("dram/refresh_1M_{tag}"), || {
            let mut sys = MemorySystem::new(DramConfig::small_test(), LowPowerPolicy::disabled())
                .unwrap()
                .with_engine_mode(mode);
            black_box(sys.run_idle(1_000_000));
        });
    }
}

/// Sparse periodic trace with an aggressive governor: ranks keep cycling
/// standby -> power-down -> wake, so the fast-forward path must chase the
/// governor's transition deadlines rather than one long horizon.
fn bench_fastforward_governor() {
    for (tag, mode) in [
        ("stepped", EngineMode::Stepped),
        ("event", EngineMode::EventDriven),
    ] {
        bench(&format!("dram/govcycle_{tag}"), || {
            let mut sys = MemorySystem::new(DramConfig::small_test(), LowPowerPolicy::aggressive())
                .unwrap()
                .with_engine_mode(mode);
            let reqs: Vec<_> = (0..200u64)
                .map(|i| MemRequest::read(i * 4096, i * 2000))
                .collect();
            black_box(sys.run_trace(reqs).unwrap());
        });
    }
}

/// Traffic-dense horizons (~1M cycles, one arrival every 8 cycles): the
/// regime where the batched FR-FCFS arbitration and SoA timing state pay
/// off. Three access patterns stress different arbiter paths:
///
/// * `read` — sequential reads marching through the interleaved space;
///   almost every access is a row hit, so the hot path is the cached
///   column-candidate lookup.
/// * `mixed` — 3:1 read/write with a page-sized stride; exercises the
///   per-kind candidate slots and read/write bus turnarounds.
/// * `conflict` — linear (non-interleaved) mapping with pseudo-random
///   rows, funnelling everything into one bank so nearly every access is
///   a row conflict; stresses candidate invalidation + the per-row
///   membership index that keeps re-scans from going quadratic.
fn bench_traffic_dense() {
    let cap = DramConfig::small_test().total_capacity_bytes();
    let n = 125_000u64; // one arrival per 8 cycles for 1M cycles
    let read_trace: Vec<_> = (0..n)
        .map(|i| MemRequest::read((i * 64) % cap, i * 8))
        .collect();
    let mixed_trace: Vec<_> = (0..n)
        .map(|i| {
            let addr = (i * 4096) % cap;
            if i % 4 == 3 {
                MemRequest::write(addr, i * 8)
            } else {
                MemRequest::read(addr, i * 8)
            }
        })
        .collect();
    let conflict_trace: Vec<_> = (0..n)
        .map(|i| {
            let addr = (i.wrapping_mul(0x9e37_79b9) * 64) % (cap / 8);
            MemRequest::read(addr, i * 8)
        })
        .collect();
    let cases: [(&str, DramConfig, &[MemRequest]); 3] = [
        ("read", DramConfig::small_test(), &read_trace),
        ("mixed", DramConfig::small_test(), &mixed_trace),
        (
            "conflict",
            DramConfig::small_test().with_interleave(InterleaveMode::Linear),
            &conflict_trace,
        ),
    ];
    for (pattern, cfg, trace) in cases {
        for (tag, mode) in [
            ("stepped", EngineMode::Stepped),
            ("event", EngineMode::EventDriven),
        ] {
            bench(&format!("dram/traffic_1M_{pattern}_{tag}"), || {
                let mut sys = MemorySystem::new(cfg, LowPowerPolicy::srf_default())
                    .unwrap()
                    .with_engine_mode(mode);
                black_box(sys.run_trace(trace.to_vec()).unwrap());
            });
        }
    }
}

fn main() {
    bench_addr_decode();
    bench_buddy();
    bench_controller();
    bench_hotplug();
    bench_fastforward_idle();
    bench_fastforward_refresh();
    bench_fastforward_governor();
    bench_traffic_dense();
}
