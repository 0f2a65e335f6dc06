//! Every metric the benchmark reports, with its unit and direction. The
//! names and units here and in `BENCHMARK.json` must agree; a test holds
//! them together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True when `a` is better than `b` in this direction.
    pub fn prefers(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Absolute regression allowance in `unit`, on top of the share of the
    /// parent's median that `BENCHMARK.json` sets; 0 when the share alone
    /// decides.
    pub floor: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off, as a median over a run's repetitions.
/// `norm_wall_s`, `sim_rate` and `setup_s` count host time in
/// reference-machine seconds (see `calib.rs`).
pub const END_TO_END: &[Metric] = &[
    m("norm_wall_s", "s", Lower),
    m("sim_rate", "sim_s/s", Higher),
    Metric {
        floor: 4.0,
        ..m("peak_rss_mib", "MiB", Lower)
    },
    Metric {
        floor: 0.05,
        ..m("setup_s", "s", Lower)
    },
];

/// Per-layer metrics of the traced run. Each workload reports all of
/// them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("scheduler.busy_s", "s", Lower),
    m("scheduler.placement_rate", "ratio", Higher),
    m("scheduler.vm_events", "count", Lower),
    m("host.busy_s", "s", Lower),
    m("host.p50_ms", "ms", Lower),
    m("host.p95_ms", "ms", Lower),
    m("host.max_ms", "ms", Lower),
    m("host.us_per_tick", "us", Lower),
    m("pool.efficiency", "ratio", Higher),
    m("pool.tail_s", "s", Lower),
    m("daemon.ticks", "count", Lower),
    m("daemon.hotplug_events", "count", Lower),
    m("daemon.allocation_stalls", "count", Lower),
    m("daemon.failures", "count", Lower),
    m("daemon.failure_ratio", "ratio", Lower),
    m("mm.offline_success", "count", Higher),
    m("mm.offline_ebusy", "count", Lower),
    m("mm.offline_eagain", "count", Lower),
    m("mm.online_count", "count", Lower),
    m("mm.migrated_pages", "count", Lower),
    m("mm.rollbacks", "count", Lower),
    m("ksm.cost_s", "s", Lower),
    m("ksm.share", "ratio", Lower),
    m("ksm.us_per_tick", "us", Lower),
    m("ksm.pages_scanned", "count", Lower),
    m("ksm.pages_sharing", "count", Higher),
    m("ksm.full_passes", "count", Lower),
    m("ksm.cow_breaks", "count", Lower),
    m("ksm.merge_yield", "ratio", Higher),
    m("ksm.frames_released", "count", Higher),
    m("workloads.synth_s", "s", Lower),
    m("dram.busy_s", "s", Lower),
    m("dram.run_p50_ms", "ms", Lower),
    m("dram.run_max_ms", "ms", Lower),
    m("dram.ns_per_request", "ns", Lower),
    m("dram.ns_per_cycle", "ns", Lower),
    m("dram.cycles", "count", Lower),
    m("dram.requests", "count", Lower),
    m("dram.activates", "count", Lower),
    m("dram.refreshes", "count", Lower),
    m("dram.row_hit_rate", "ratio", Higher),
    m("dram.pd_entries", "count", Lower),
    m("dram.sr_entries", "count", Lower),
    m("energy.residual_s", "s", Lower),
    m("trace.overhead_s", "s", Lower),
    m("verify.violations", "count", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}
