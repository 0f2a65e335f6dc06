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
//! * [`EngineMode::EventDriven`] — ticks the daemon finds idle are
//!   accounted without running. An idle tick changes nothing but the tick
//!   counters, and until the next VM event only KSM moves the memory
//!   manager, by releasing frames: free memory only rises, so the daemon
//!   stays idle until it passes the off-lining edge. Without KSM the rest
//!   of the period's ticks are skipped at once. The two engines agree bit
//!   for bit and differ only in [`HostWork::daemon`].

use gd_dram::EngineMode;
use gd_ksm::{Ksm, KsmConfig, RegionId};
use gd_mmsim::{MemoryManager, MmConfig, PageKind};
use gd_types::{Fraction, Result, SimTime};
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
    /// Memory blocks asked for pages by the host's allocations and grows:
    /// the kernel's pages, VM starts and resizes, KSM's COW breaks
    /// ([`gd_mmsim::PlacementWork::place_blocks`]).
    pub place_blocks: u64,
    /// Runs of max-order (4 MiB) chunks placed.
    pub max_order_runs: u64,
    /// Max-order chunks placed.
    pub max_order_chunks: u64,
    /// Runs of max-order chunks freed in one step.
    pub freed_runs: u64,
    /// Max-order chunks those runs held.
    pub freed_max_order_chunks: u64,
    /// Pages KSM scanned ([`gd_ksm::KsmStats::pages_scanned`]).
    pub ksm_pages_scanned: u64,
    /// Full KSM scan passes ([`gd_ksm::KsmStats::full_passes`]).
    pub ksm_full_passes: u64,
    /// KSM region visits ([`gd_ksm::KsmStats::region_visits`]).
    pub ksm_region_visits: u64,
    /// Monitor ticks during which KSM held no region
    /// ([`EpochSim::ksm_regionless_ticks`]).
    pub ksm_regionless_ticks: u64,
}

impl HostWork {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &HostWork) {
        self.ticks += other.ticks;
        self.daemon.bodies += other.daemon.bodies;
        self.daemon.offline_passes += other.daemon.offline_passes;
        self.vm_starts += other.vm_starts;
        self.place_blocks += other.place_blocks;
        self.max_order_runs += other.max_order_runs;
        self.max_order_chunks += other.max_order_chunks;
        self.freed_runs += other.freed_runs;
        self.freed_max_order_chunks += other.freed_max_order_chunks;
        self.ksm_pages_scanned += other.ksm_pages_scanned;
        self.ksm_full_passes += other.ksm_full_passes;
        self.ksm_region_visits += other.ksm_region_visits;
        self.ksm_regionless_ticks += other.ksm_regionless_ticks;
    }

    /// The counters as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("daemon_ticks", self.ticks),
            ("monitor_bodies", self.daemon.bodies),
            ("offline_passes", self.daemon.offline_passes),
            ("vm_starts", self.vm_starts),
            ("place_blocks", self.place_blocks),
            ("max_order_runs", self.max_order_runs),
            ("max_order_chunks", self.max_order_chunks),
            ("freed_runs", self.freed_runs),
            ("freed_max_order_chunks", self.freed_max_order_chunks),
            ("ksm_pages_scanned", self.ksm_pages_scanned),
            ("ksm_full_passes", self.ksm_full_passes),
            ("ksm_region_visits", self.ksm_region_visits),
            ("ksm_regionless_ticks", self.ksm_regionless_ticks),
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
    run_host_with(cfg, KsmConfig::default(), events, with_telemetry)
}

/// [`run_host`] with `ksm_cfg` for the KSM daemon when `cfg.ksm` is set.
fn run_host_with(
    cfg: &HostSimConfig,
    ksm_cfg: KsmConfig,
    events: &[VmEvent],
    with_telemetry: bool,
) -> Result<(HostRun, Option<gd_obs::Telemetry>)> {
    let mm_cfg = MmConfig {
        capacity_bytes: cfg.capacity_gb << 30,
        block_bytes: cfg.block_gb << 30,
        transient_fail_prob: Fraction::ZERO,
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
    let ksm = cfg.ksm.then(|| Ksm::new(ksm_cfg)).transpose()?;
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
                    // `sim.ksm` is `Some` exactly when `cfg.ksm` is set.
                    let region = if let Some(ksm) = sim.ksm.as_mut() {
                        let (shareable, unique) = ev.vm.ksm_contents();
                        let owner = fp.allocation_id().expect("just allocated");
                        Some(ksm.register_region(owner, shareable, unique))
                    } else {
                        None
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
    let ksm = sim.ksm.as_ref().map(Ksm::stats).unwrap_or_default();
    sim.export_telemetry("vm");
    let tele = sim.telemetry.take();
    let placement = sim.mm.placement_work();
    let work = HostWork {
        ticks: sim.daemon.stats.ticks,
        daemon: sim.daemon.work(),
        vm_starts,
        place_blocks: placement.place_blocks,
        max_order_runs: placement.max_order_runs,
        max_order_chunks: placement.max_order_chunks,
        freed_runs: placement.freed_runs,
        freed_max_order_chunks: placement.freed_max_order_chunks,
        ksm_pages_scanned: ksm.pages_scanned,
        ksm_full_passes: ksm.full_passes,
        ksm_region_visits: ksm.region_visits,
        ksm_regionless_ticks: sim.ksm_regionless_ticks(),
    };
    Ok((
        HostRun {
            samples,
            daemon: sim.daemon.stats,
            ksm_released_pages: ksm.pages_sharing,
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

    fn short_cfg(engine: EngineMode, ksm: bool) -> HostSimConfig {
        HostSimConfig {
            duration_s: 2 * 3_600,
            engine,
            ksm,
            ..HostSimConfig::paper_256gb()
        }
    }

    #[test]
    fn stepped_and_event_driven_agree_bit_for_bit() {
        let events = short_events();
        for ksm in [false, true] {
            let run = |engine| run_host(&short_cfg(engine, ksm), &events, false).unwrap().0;
            let (stepped, event) = (run(EngineMode::Stepped), run(EngineMode::EventDriven));
            assert_eq!(stepped.samples, event.samples, "ksm {ksm}");
            assert_eq!(stepped.ksm_released_pages, event.ksm_released_pages);
            assert_eq!(stepped.daemon, event.daemon, "ksm {ksm}");
            let (a, b) = (stepped.work, event.work);
            assert_eq!(
                (a.ksm_pages_scanned, a.ksm_full_passes, a.ksm_region_visits),
                (b.ksm_pages_scanned, b.ksm_full_passes, b.ksm_region_visits),
                "ksm {ksm}"
            );
            assert_eq!(
                (a.freed_runs, a.freed_max_order_chunks),
                (b.freed_runs, b.freed_max_order_chunks),
                "ksm {ksm}"
            );
            assert!(
                a.freed_runs > 0,
                "ksm {ksm}: no VM memory went back a run at a time"
            );
            assert_eq!(
                a.daemon.bodies, a.ticks,
                "ksm {ksm}: stepped runs every body"
            );
            assert!(b.daemon.bodies < b.ticks / 10, "ksm {ksm}: {b:?}");
            assert_eq!(ksm, a.ksm_pages_scanned > 0);
            assert_eq!(a.ksm_regionless_ticks, b.ksm_regionless_ticks, "ksm {ksm}");
        }
    }

    /// The first hour of [`short_events`], then every VM still running
    /// stops at 3 600 s, and two of them start again at 5 400 s.
    fn all_stop_mid_run() -> Vec<VmEvent> {
        let mut events: Vec<VmEvent> = short_events()
            .into_iter()
            .filter(|e| e.time_s < 3_600)
            .collect();
        let mut running: Vec<VmEvent> = Vec::new();
        for e in &events {
            match e.kind {
                VmEventKind::Start => running.push(e.clone()),
                VmEventKind::Stop => running.retain(|r| r.vm.id != e.vm.id),
            }
        }
        assert!(
            running.len() >= 2,
            "{} VMs running at the stop",
            running.len()
        );
        for r in &running {
            events.push(VmEvent {
                time_s: 3_600,
                kind: VmEventKind::Stop,
                ..r.clone()
            });
        }
        for r in running.iter().take(2) {
            events.push(VmEvent {
                time_s: 5_400,
                ..r.clone()
            });
        }
        events
    }

    /// A KSM host whose VMs all stop mid-run gives the same run on both
    /// engines, bit for bit, under `ksm_cfg`; returns the stepped run's
    /// work.
    fn regionless_stretch_agrees(ksm_cfg: KsmConfig) -> HostWork {
        let events = all_stop_mid_run();
        let run = |engine| {
            run_host_with(&short_cfg(engine, true), ksm_cfg, &events, false)
                .unwrap()
                .0
        };
        let (stepped, event) = (run(EngineMode::Stepped), run(EngineMode::EventDriven));
        let ctx = format!("{ksm_cfg:?}");
        assert_eq!(stepped.samples, event.samples, "{ctx}");
        assert_eq!(
            stepped.ksm_released_pages, event.ksm_released_pages,
            "{ctx}"
        );
        assert_eq!(stepped.daemon, event.daemon, "{ctx}");
        let (a, b) = (stepped.work, event.work);
        assert_eq!(
            HostWork {
                daemon: b.daemon,
                ..a
            },
            b,
            "{ctx}"
        );
        assert!(b.daemon.bodies < b.ticks / 10, "{ctx}: {b:?}");
        // Regionless from 3 600 s to 5 400 s at least, scanning before
        // and after.
        assert!(a.ksm_regionless_ticks >= 1_800, "{ctx}: {a:?}");
        assert!(a.ksm_pages_scanned > 0, "{ctx}");
        a
    }

    /// With the default scan rate a monitor period's budget is whole, so
    /// the event engine jumps over the regionless ticks.
    #[test]
    fn all_vms_stopping_mid_run_agrees_across_engines() {
        regionless_stretch_agrees(KsmConfig::default());
    }

    /// A 70 ms scan period leaves a fractional carry in every 1 s slice
    /// (a cycle of 7 s, which no 300 s stretch is a multiple of), so the
    /// regionless ticks must run their slices; the carry they leave shows
    /// in the scan after the restart.
    #[test]
    fn fractional_carry_keeps_regionless_slices_running() {
        let cfg = KsmConfig {
            scan_period: SimTime::from_millis(70),
            ..KsmConfig::default()
        };
        let work = regionless_stretch_agrees(cfg);
        let whole = regionless_stretch_agrees(KsmConfig::default());
        assert_ne!(work.ksm_pages_scanned, whole.ksm_pages_scanned);
    }
}
