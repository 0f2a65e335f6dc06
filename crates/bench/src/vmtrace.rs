//! The Azure VM-trace co-simulation behind Figs. 1, 12, and 13.
//!
//! The single-host replay loop itself lives in [`gd_fleet::host`] (the
//! fleet drives it once per host); this module keeps the bench-facing
//! configuration, synthesizes the single-host Azure trace, and adapts the
//! host runner's outcome to the shapes the figure binaries consume.

use gd_dram::EngineMode;
use gd_fleet::host::{run_host, HostSimConfig};
use gd_types::Result;
use gd_workloads::azure::{synthesize, AzureConfig};
use greendimm::DaemonStats;

/// Configuration of one VM-trace run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmTraceConfig {
    /// Installed memory capacity in GiB (the paper scales 256 GB → 1 TB in
    /// Fig. 13 while the VM load stays the same).
    pub capacity_gb: u64,
    /// Memory block size in GiB (paper: 1 GB for the VM experiments).
    pub block_gb: u64,
    /// Enable KSM.
    pub ksm: bool,
    /// Enable the GreenDIMM daemon (off = conventional kernel).
    pub greendimm: bool,
    /// Trace duration in seconds.
    pub duration_s: u64,
    /// RNG seed.
    pub seed: u64,
    /// Time-advance engine (`--engine` on the figure binaries). Both
    /// engines agree bit for bit.
    pub engine: EngineMode,
}

impl VmTraceConfig {
    /// The paper's Fig. 12 setup.
    pub fn paper_256gb() -> Self {
        VmTraceConfig {
            capacity_gb: 256,
            block_gb: 1,
            ksm: false,
            greendimm: true,
            duration_s: 86_400,
            seed: 42,
            engine: EngineMode::EventDriven,
        }
    }

    /// A short variant for tests.
    pub fn short_test() -> Self {
        VmTraceConfig {
            duration_s: 4 * 3_600,
            ..Self::paper_256gb()
        }
    }
}

/// One sampled point of the co-simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmTraceSample {
    /// Seconds from trace start.
    pub time_s: u64,
    /// Used fraction of installed capacity (after KSM merging, if on).
    pub used_fraction: f64,
    /// Off-lined memory blocks.
    pub offline_blocks: usize,
    /// Fraction of sub-array groups in deep power-down.
    pub deep_pd_fraction: f64,
}

/// Full outcome of a VM-trace run.
#[derive(Debug, Clone)]
pub struct VmTraceOutcome {
    /// Per-scheduler-tick samples.
    pub samples: Vec<VmTraceSample>,
    /// Daemon counters.
    pub daemon: DaemonStats,
    /// Pages KSM released over the run.
    pub ksm_released_pages: u64,
}

impl VmTraceOutcome {
    /// Mean used fraction over the run.
    pub fn mean_used_fraction(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.used_fraction))
    }

    /// Mean number of off-line blocks.
    pub fn mean_offline_blocks(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.offline_blocks as f64))
    }

    /// Minimum and maximum off-line block counts.
    pub fn offline_blocks_range(&self) -> (usize, usize) {
        self.samples.iter().fold((usize::MAX, 0), |(lo, hi), s| {
            (lo.min(s.offline_blocks), hi.max(s.offline_blocks))
        })
    }

    /// Mean deep power-down fraction (drives the Fig. 12/13 power numbers).
    pub fn mean_deep_pd_fraction(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.deep_pd_fraction))
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = iter.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs the VM-trace co-simulation.
///
/// # Errors
///
/// Propagates simulator-setup and bookkeeping errors (not kernel-level
/// off-lining failures, which are part of the experiment).
pub fn run_vm_trace(cfg: &VmTraceConfig) -> Result<VmTraceOutcome> {
    Ok(run_vm_trace_tele(cfg, false)?.0)
}

/// [`run_vm_trace`] with optional telemetry: when `with_telemetry` is
/// true, the co-simulation records span-scoped daemon ticks and
/// allocation-stall events as they happen, exports the mm/ksm/daemon books
/// under the `vm.*` scope at the end, and returns the filled sink.
///
/// # Errors
///
/// Same as [`run_vm_trace`].
pub fn run_vm_trace_tele(
    cfg: &VmTraceConfig,
    with_telemetry: bool,
) -> Result<(VmTraceOutcome, Option<gd_obs::Telemetry>)> {
    let azure = AzureConfig {
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        ..AzureConfig::paper_24h()
    };
    let trace = synthesize(&azure);
    let host_cfg = HostSimConfig {
        capacity_gb: cfg.capacity_gb,
        block_gb: cfg.block_gb,
        ksm: cfg.ksm,
        greendimm: cfg.greendimm,
        duration_s: cfg.duration_s,
        schedule_period_s: azure.schedule_period_s,
        seed: cfg.seed,
        engine: cfg.engine,
    };
    let (run, tele) = run_host(&host_cfg, &trace.events, with_telemetry)?;
    Ok((
        VmTraceOutcome {
            samples: run
                .samples
                .iter()
                .map(|s| VmTraceSample {
                    time_s: s.time_s,
                    used_fraction: s.used_fraction,
                    offline_blocks: s.offline_blocks,
                    deep_pd_fraction: s.deep_pd_fraction,
                })
                .collect(),
            daemon: run.daemon,
            ksm_released_pages: run.ksm_released_pages,
        },
        tele,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greendimm_offlines_unused_blocks() {
        let out = run_vm_trace(&VmTraceConfig::short_test()).unwrap();
        assert!(
            out.mean_offline_blocks() > 20.0,
            "{}",
            out.mean_offline_blocks()
        );
        assert!(out.mean_deep_pd_fraction() > 0.05);
        assert!(out.daemon.offline_events > 0);
    }

    #[test]
    fn inert_daemon_offlines_nothing() {
        let cfg = VmTraceConfig {
            greendimm: false,
            ..VmTraceConfig::short_test()
        };
        let out = run_vm_trace(&cfg).unwrap();
        assert_eq!(out.mean_offline_blocks(), 0.0);
        assert_eq!(out.daemon.offline_events, 0);
    }

    #[test]
    fn telemetry_traces_every_tick() {
        let cfg = VmTraceConfig {
            ksm: true,
            ..VmTraceConfig::short_test()
        };
        let (out, tele) = run_vm_trace_tele(&cfg, true).unwrap();
        let tele = tele.expect("telemetry was enabled");
        // One span open + close per daemon tick, plus any stall spans. Each
        // scheduler step covers several daemon tick periods, so the daemon
        // ticks at least once per sample.
        let ticks = tele.registry.counter("vm.daemon.ticks");
        assert!(ticks >= out.samples.len() as u64, "{ticks} daemon ticks");
        assert!(tele.trace.events().len() as u64 >= 2 * ticks);
        assert!(tele.registry.counter("vm.ksm.pages_scanned") > 0);
        assert_eq!(
            tele.registry.counter("vm.daemon.offline_events"),
            out.daemon.offline_events
        );
        // Disabled telemetry must leave the outcome untouched.
        let (base, none) = run_vm_trace_tele(&cfg, false).unwrap();
        assert!(none.is_none());
        assert_eq!(base.samples, out.samples);
    }

    #[test]
    fn ksm_frees_pages_and_increases_offlining() {
        let base = run_vm_trace(&VmTraceConfig::short_test()).unwrap();
        let with_ksm = run_vm_trace(&VmTraceConfig {
            ksm: true,
            ..VmTraceConfig::short_test()
        })
        .unwrap();
        assert!(with_ksm.ksm_released_pages > 0);
        assert!(
            with_ksm.mean_offline_blocks() > base.mean_offline_blocks(),
            "ksm {} vs base {}",
            with_ksm.mean_offline_blocks(),
            base.mean_offline_blocks()
        );
        assert!(with_ksm.mean_used_fraction() < base.mean_used_fraction());
    }

    #[test]
    fn engines_agree_on_the_vm_trace() {
        let exact = run_vm_trace(&VmTraceConfig::short_test()).unwrap();
        let stepped = run_vm_trace(&VmTraceConfig {
            engine: EngineMode::Stepped,
            ..VmTraceConfig::short_test()
        })
        .unwrap();
        assert_eq!(exact.samples, stepped.samples);
        assert_eq!(exact.daemon, stepped.daemon);
    }
}
