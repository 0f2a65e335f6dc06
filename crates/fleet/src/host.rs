//! One host's co-simulation: replay a VM lifecycle event stream through
//! the mm/daemon/KSM stack under a selectable engine.
//!
//! This is the one copy of the single-host loop. The fleet drives it once
//! per host with scheduler-produced event streams; `gd_bench::vmtrace`
//! drives it once with a synthesized Azure trace for Figs. 1, 12 and 13,
//! and the figures read its [`HostRun`] directly. The host advances one
//! [`EpochSim::step`] per scheduler period on one of two [`EngineMode`]s
//! (see [`EpochSim::set_engine`]):
//!
//! * [`EngineMode::Stepped`] — the daemon's body runs every second;
//! * [`EngineMode::EventDriven`] — once the daemon is idle, the rest of
//!   the period's ticks are accounted without running. An idle tick
//!   changes nothing but the tick counters, and nothing else moves the
//!   memory manager until the next VM event, so the two engines agree bit
//!   for bit and differ only in [`HostWork::daemon`].

use gd_dram::EngineMode;
use gd_ksm::{Ksm, KsmConfig, RegionId};
use gd_mmsim::{MemoryManager, MmConfig, PageKind};
use gd_types::{Result, SimTime};
use gd_workloads::{VmEvent, VmEventKind};
use greendimm::{
    Daemon, DaemonStats, DaemonWork, EpochSim, FootprintDriver, GreenDimmConfig, GroupMap,
};
use std::collections::HashMap;

/// Configuration of one host co-simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSimConfig {
    /// Installed memory capacity in GiB.
    pub capacity_gb: u64,
    /// Memory block size in GiB.
    pub block_gb: u64,
    /// Enable KSM.
    pub ksm: bool,
    /// Enable the GreenDIMM daemon (off = conventional kernel).
    pub greendimm: bool,
    /// Simulated duration in seconds.
    pub duration_s: u64,
    /// Scheduler period in seconds (sampling granularity).
    pub schedule_period_s: u64,
    /// RNG seed for this host's simulators.
    pub seed: u64,
    /// Simulation engine.
    pub engine: EngineMode,
}

impl HostSimConfig {
    /// The paper's 256 GiB host with 1 GiB blocks.
    pub fn paper_256gb() -> Self {
        HostSimConfig {
            capacity_gb: 256,
            block_gb: 1,
            ksm: false,
            greendimm: true,
            duration_s: 86_400,
            schedule_period_s: 300,
            seed: 42,
            engine: EngineMode::EventDriven,
        }
    }
}

/// One sampled point of a host co-simulation (one per scheduler period).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSample {
    /// Seconds from run start.
    pub time_s: u64,
    /// Used fraction of installed capacity (after KSM merging, if on).
    pub used_fraction: f64,
    /// Off-lined memory blocks.
    pub offline_blocks: usize,
    /// Fraction of sub-array groups in deep power-down.
    pub deep_pd_fraction: f64,
}

/// Deterministic work counters of host co-simulations: they depend on the
/// inputs and the engine, never on the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostWork {
    /// Monitor ticks, run or skipped (`DaemonStats::ticks`).
    pub ticks: u64,
    /// What of the daemon's work actually ran.
    pub daemon: DaemonWork,
    /// VMs started.
    pub vm_starts: u64,
    /// Runs of max-order (4 MiB) chunks placed.
    pub max_order_runs: u64,
    /// Max-order chunks placed.
    pub max_order_chunks: u64,
}

impl HostWork {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &HostWork) {
        self.ticks += other.ticks;
        self.daemon.bodies += other.daemon.bodies;
        self.daemon.offline_passes += other.daemon.offline_passes;
        self.vm_starts += other.vm_starts;
        self.max_order_runs += other.max_order_runs;
        self.max_order_chunks += other.max_order_chunks;
    }

    /// The counters as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("daemon_ticks", self.ticks),
            ("monitor_bodies", self.daemon.bodies),
            ("offline_passes", self.daemon.offline_passes),
            ("vm_starts", self.vm_starts),
            ("max_order_runs", self.max_order_runs),
            ("max_order_chunks", self.max_order_chunks),
        ]
    }
}

/// Full outcome of one host co-simulation.
#[derive(Debug, Clone)]
pub struct HostRun {
    /// Per-scheduler-period samples.
    pub samples: Vec<HostSample>,
    /// Daemon counters.
    pub daemon: DaemonStats,
    /// Pages KSM released over the run.
    pub ksm_released_pages: u64,
    /// Work counters.
    pub work: HostWork,
}

impl HostRun {
    /// Mean used fraction over the run.
    pub fn mean_used_fraction(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.used_fraction))
    }

    /// Mean number of off-line blocks.
    pub fn mean_offline_blocks(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.offline_blocks as f64))
    }

    /// Mean deep power-down fraction (drives the power numbers).
    pub fn mean_deep_pd_fraction(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.deep_pd_fraction))
    }

    /// Minimum and maximum off-line block counts.
    pub fn offline_blocks_range(&self) -> (usize, usize) {
        self.samples.iter().fold((usize::MAX, 0), |(lo, hi), s| {
            (lo.min(s.offline_blocks), hi.max(s.offline_blocks))
        })
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

/// Replays `events` (time-ordered, stops before starts within a tick)
/// through a fresh host stack and samples once per scheduler period.
///
/// When `with_telemetry` is true the run records span-scoped daemon ticks
/// and exports the mm/ksm/daemon books under the `vm.*` scope at the end.
///
/// # Errors
///
/// Propagates simulator-setup and bookkeeping errors (not kernel-level
/// off-lining failures, which are part of the experiment).
pub fn run_host(
    cfg: &HostSimConfig,
    events: &[VmEvent],
    with_telemetry: bool,
) -> Result<(HostRun, Option<gd_obs::Telemetry>)> {
    let mm_cfg = MmConfig {
        capacity_bytes: cfg.capacity_gb << 30,
        block_bytes: cfg.block_gb << 30,
        movablecore_bytes: None,
        unmovable_leak_prob: 0.0,
        transient_fail_prob: 0.0,
        seed: cfg.seed,
    };
    let mut mm = MemoryManager::new(mm_cfg)?;
    // Kernel reservation (unmovable, stays on-line).
    let kernel_pages = mm.meminfo().installed_pages / 50;
    mm.allocate(kernel_pages, PageKind::KernelUnmovable)?;

    let gd_cfg = if cfg.greendimm {
        GreenDimmConfig::paper_default().with_seed(cfg.seed)
    } else {
        // Thresholds that never trigger: the daemon is inert.
        GreenDimmConfig {
            off_thr: 2.0,
            on_thr: 0.0,
            ..GreenDimmConfig::paper_default()
        }
    };
    let map = GroupMap::new(mm_cfg.capacity_bytes, 64, mm_cfg.block_bytes)?;
    let daemon = Daemon::new(gd_cfg, map);
    let ksm = cfg
        .ksm
        .then(|| Ksm::new(KsmConfig::default()))
        .transpose()?;
    let mut sim = EpochSim::new(mm, daemon, ksm);
    sim.set_engine(cfg.engine);
    if with_telemetry {
        sim.enable_telemetry();
    }

    // Keyed lookups only (insert/remove by VM id) — never iterated, so the
    // hash order cannot reach any output.
    let mut footprints: HashMap<u32, (FootprintDriver, Option<RegionId>)> = HashMap::new();
    let mut vm_starts = 0;
    let mut samples = Vec::new();
    let mut event_idx = 0;
    let tick = cfg.schedule_period_s;
    let ticks = cfg.duration_s / tick;
    for t in 0..=ticks {
        let now_s = t * tick;
        // Apply this period's VM lifecycle events.
        while event_idx < events.len() && events[event_idx].time_s <= now_s {
            let ev = &events[event_idx];
            event_idx += 1;
            match ev.kind {
                VmEventKind::Start => {
                    vm_starts += 1;
                    let mut fp = FootprintDriver::new();
                    sim.set_footprint(&mut fp, ev.vm.mem_pages())?;
                    let region = match (&mut sim.ksm, cfg.ksm) {
                        (Some(_), true) => {
                            let (shareable, unique) = ev.vm.ksm_contents();
                            let owner = fp.allocation_id().expect("just allocated");
                            Some(
                                sim.ksm
                                    .as_mut()
                                    .expect("ksm on")
                                    .register_region(owner, shareable, unique),
                            )
                        }
                        _ => None,
                    };
                    footprints.insert(ev.vm.id, (fp, region));
                }
                VmEventKind::Stop => {
                    if let Some((mut fp, region)) = footprints.remove(&ev.vm.id) {
                        if let (Some(r), Some(ksm)) = (region, &mut sim.ksm) {
                            ksm.unregister_region(r)?;
                        }
                        fp.clear(&mut sim.mm)?;
                    }
                }
            }
        }
        sim.step(SimTime::from_secs(tick))?;
        let info = sim.mm.meminfo();
        samples.push(HostSample {
            time_s: now_s,
            used_fraction: info.used_pages as f64 / info.installed_pages as f64,
            offline_blocks: sim.mm.offline_block_count(),
            deep_pd_fraction: sim.deep_pd_fraction(),
        });
    }
    let released = sim.ksm.as_ref().map(|k| k.frames_released()).unwrap_or(0);
    sim.export_telemetry("vm");
    let tele = sim.telemetry.take();
    let placement = sim.mm.placement_work();
    let work = HostWork {
        ticks: sim.daemon.stats.ticks,
        daemon: sim.daemon.work(),
        vm_starts,
        max_order_runs: placement.max_order_runs,
        max_order_chunks: placement.max_order_chunks,
    };
    Ok((
        HostRun {
            samples,
            daemon: sim.daemon.stats,
            ksm_released_pages: released,
            work,
        },
        tele,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_workloads::azure::{synthesize, AzureConfig};

    fn short_events() -> Vec<VmEvent> {
        synthesize(&AzureConfig {
            duration_s: 2 * 3_600,
            ..AzureConfig::paper_24h()
        })
        .events
    }

    fn short_cfg(engine: EngineMode) -> HostSimConfig {
        HostSimConfig {
            duration_s: 2 * 3_600,
            engine,
            ..HostSimConfig::paper_256gb()
        }
    }

    #[test]
    fn stepped_and_event_driven_agree_bit_for_bit() {
        let events = short_events();
        let (stepped, _) = run_host(&short_cfg(EngineMode::Stepped), &events, false).unwrap();
        let (event, _) = run_host(&short_cfg(EngineMode::EventDriven), &events, false).unwrap();
        assert_eq!(stepped.samples, event.samples);
        assert_eq!(stepped.ksm_released_pages, event.ksm_released_pages);
        assert_eq!(stepped.daemon, event.daemon);
    }
}
