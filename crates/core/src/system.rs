//! High-level convenience API: run one benchmark under GreenDIMM and get a
//! full report (runtime, overhead, energy). The figure-generation harness
//! in `gd-bench` composes the lower-level pieces directly; this type is the
//! "five-minute quickstart" entry point.

use crate::config::GreenDimmConfig;
use crate::cosim::{EpochSim, FootprintDriver};
use crate::daemon::{Daemon, DaemonStats};
use crate::groupmap::GroupMap;
use gd_dram::{LowPowerPolicy, MemorySystem};
use gd_mmsim::{MemoryManager, MmConfig, PageKind, PAGE_BYTES};
use gd_power::{ActivityProfile, DramPowerModel, PowerGating, SystemPowerModel};
use gd_types::config::DramConfig;
use gd_types::{Result, SimTime};
use gd_workloads::{by_name, estimate_runtime, AppProfile, TraceGenerator};

/// Calibrated per-event interference cost (seconds per on/off-lining event,
/// per MPKI, per GiB of footprint): covers migration interference and TLB
/// shootdowns that the raw hotplug latencies do not capture. Chosen so that
/// `mcf` with 128 MB blocks degrades by ~2.9 % as the paper measures, at
/// the paper's observed event rate (~0.5 events/s).
pub const INTERFERENCE_COEFF: f64 = 0.0006;

/// GreenDIMM's execution-time overhead for one run of `profile`, seconds:
/// the raw hotplug time, the calibrated interference of `hotplug_events`
/// on/off-linings ([`INTERFERENCE_COEFF`]), and 1 ms of a core per daemon
/// tick over `epochs` one-second ticks.
pub fn hotplug_overhead_s(
    profile: &AppProfile,
    hotplug_events: u64,
    hotplug_time: SimTime,
    epochs: u64,
) -> f64 {
    let interference_s = INTERFERENCE_COEFF
        * hotplug_events as f64
        * profile.mpki.max(0.1)
        * (profile.footprint_bytes() as f64 / (1u64 << 30) as f64);
    hotplug_time.as_secs_f64() + interference_s + 0.001 * epochs as f64
}

/// Fraction of installed capacity pre-allocated to the kernel (unmovable).
const KERNEL_RESERVED_FRACTION: f64 = 0.02;

/// Configuration of a [`GreenDimmSystem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// DRAM organization/timing.
    pub dram: DramConfig,
    /// OS physical-memory configuration. Its capacity is the *managed*
    /// capacity (the paper manages a movablecore region smaller than the
    /// machine for the block-size studies).
    pub mm: MmConfig,
    /// Daemon configuration.
    pub gd: GreenDimmConfig,
    /// Requests to simulate in the cycle-level latency probe.
    pub probe_requests: usize,
    /// CPU utilization assumed for the system-power model while the
    /// benchmark runs.
    pub cpu_util: f64,
    /// When set, the co-simulation runs the standard invariant checkers
    /// ([`crate::verify::VerifyHarness`]) in the given mode;
    /// [`gd_verify::Mode::Strict`] turns any violation into an error.
    pub verify: Option<gd_verify::Mode>,
}

impl SystemConfig {
    /// A fast configuration for tests and the quickstart example: small
    /// DRAM, 256 MB managed memory, short probe.
    pub fn small_test() -> Self {
        SystemConfig {
            dram: DramConfig::small_test(),
            mm: MmConfig::small_test(),
            gd: GreenDimmConfig::paper_default(),
            probe_requests: 5_000,
            cpu_util: 0.5,
            verify: None,
        }
    }

    /// The paper's SPEC platform: 64 GB DDR4-2133, managed in 1 GB blocks
    /// (one sub-array group each).
    pub fn spec_64gb() -> Self {
        SystemConfig {
            dram: DramConfig::ddr4_2133_64gb(),
            mm: MmConfig::spec_64gb().with_block_bytes(1 << 30),
            gd: GreenDimmConfig::paper_default(),
            probe_requests: 30_000,
            cpu_util: 0.5,
            verify: None,
        }
    }

    /// Returns the configuration with invariant verification enabled in
    /// `mode` for the co-simulation phase.
    #[must_use]
    pub fn with_verify(mut self, mode: gd_verify::Mode) -> Self {
        self.verify = Some(mode);
        self
    }

    fn group_map(&self) -> Result<GroupMap> {
        GroupMap::new(
            self.mm.capacity_bytes,
            self.dram.org.subarray_groups(),
            self.mm.block_bytes,
        )
    }
}

/// Everything measured from one benchmark run.
#[derive(Debug, Clone)]
pub struct AppRunReport {
    /// Benchmark name.
    pub name: String,
    /// Execution time without GreenDIMM, seconds.
    pub baseline_runtime_s: f64,
    /// Execution time with GreenDIMM (including its overhead), seconds.
    pub runtime_s: f64,
    /// Relative execution-time increase caused by GreenDIMM (Figs. 7, 11).
    pub overhead_fraction: f64,
    /// DRAM energy over the run, joules.
    pub dram_energy_joules: f64,
    /// Whole-server energy over the run, joules.
    pub system_energy_joules: f64,
    /// Average DRAM power, watts.
    pub dram_power_w: f64,
    /// Time-averaged fraction of capacity off-lined.
    pub avg_offline_fraction: f64,
    /// Average read latency seen by the benchmark, memory cycles.
    pub avg_read_latency_cycles: f64,
    /// Daemon counters.
    pub daemon: DaemonStats,
}

/// The high-level system: DRAM simulator + power models + OS co-simulation
/// under the GreenDIMM daemon.
#[derive(Debug)]
pub struct GreenDimmSystem {
    cfg: SystemConfig,
    /// DRAM power model of the configured generation (`cfg.dram.kind`).
    power: DramPowerModel,
    system_power: SystemPowerModel,
}

impl GreenDimmSystem {
    /// Builds a system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (this is the
    /// convenience API; use the per-crate constructors for fallible setup).
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.dram.validate().expect("valid DRAM config");
        cfg.group_map().expect("valid block/group geometry");
        GreenDimmSystem {
            power: DramPowerModel::new(cfg.dram).expect("valid power-model parameters"),
            system_power: SystemPowerModel::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs one named benchmark (see [`gd_workloads::by_name`]) under
    /// GreenDIMM and reports runtime, overhead, and energy.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark name or on internal simulation errors
    /// (which indicate configuration bugs, not workload conditions).
    pub fn run_app(&mut self, name: &str, seed: u64) -> AppRunReport {
        let profile = by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        self.run_profile(&profile, seed).expect("co-simulation")
    }

    /// Runs an arbitrary profile.
    ///
    /// # Errors
    ///
    /// Returns simulation-setup errors (invalid geometry, address range).
    pub fn run_profile(&mut self, profile: &AppProfile, seed: u64) -> Result<AppRunReport> {
        // 1. Cycle-level latency probe under interleaving.
        let mut probe = MemorySystem::new(self.cfg.dram, LowPowerPolicy::srf_default())?;
        let trace = TraceGenerator::new(profile.clone(), seed).take_wrapped(
            self.cfg.probe_requests,
            self.cfg.dram.total_capacity_bytes(),
        );
        let stats = probe.run_trace(trace)?;
        let avg_latency = stats.read_latency.mean().unwrap_or(60.0);

        // 2. Runtime from the MLP-aware CPU model.
        let est = estimate_runtime(profile, avg_latency, self.power.peak_transfers_per_s());
        let baseline_runtime_s = est.seconds;

        // 3. Epoch co-simulation of the daemon against the footprint.
        let mut mm = MemoryManager::new(self.cfg.mm.with_seed(seed))?;
        let kernel_pages = (mm.meminfo().installed_pages as f64 * KERNEL_RESERVED_FRACTION) as u64;
        mm.allocate(kernel_pages.max(1), PageKind::KernelUnmovable)?;
        let daemon = Daemon::new(self.cfg.gd.with_seed(seed), self.cfg.group_map()?);
        let mut sim = EpochSim::new(mm, daemon, None);
        if let Some(mode) = self.cfg.verify {
            sim.enable_verification(mode);
        }
        sim.settle(120)?;

        let mut fp = FootprintDriver::new();
        let managed_bytes = self.cfg.mm.capacity_bytes;
        let peak_pages = profile.footprint_bytes().min(managed_bytes * 8 / 10) / PAGE_BYTES;
        let epochs = (baseline_runtime_s.ceil() as u64).clamp(10, 3_600);
        let mut offline_sum = 0.0;
        let mut deep_pd_sum = 0.0;
        for t in 0..epochs {
            let frac = profile.footprint_fraction_at(t as f64 * baseline_runtime_s / epochs as f64);
            let target = (peak_pages as f64 * frac) as u64;
            // Growth past on-line capacity stalls on demand-driven
            // on-lining (charged to the overhead model via hotplug_time).
            let _ = sim.set_footprint(&mut fp, target);
            sim.step(SimTime::from_secs(1))?;
            offline_sum += sim.offline_fraction();
            deep_pd_sum += sim.deep_pd_fraction();
        }
        let avg_offline_fraction = offline_sum / epochs as f64;
        let avg_deep_pd_fraction = deep_pd_sum / epochs as f64;
        let daemon_stats = sim.daemon.stats;

        // 4. Overhead: raw hotplug time + calibrated interference + monitor.
        let overhead_s = hotplug_overhead_s(
            profile,
            daemon_stats.hotplug_events(),
            daemon_stats.hotplug_time,
            epochs,
        );
        let runtime_s = baseline_runtime_s + overhead_s;
        let overhead_fraction = overhead_s / baseline_runtime_s;

        // 5. Energy integration with deep power-down gating.
        let activity = ActivityProfile {
            bandwidth_util: est.bandwidth_util,
            read_fraction: profile.read_fraction,
            act_per_access: 1.0 - profile.row_locality,
            active_standby: 0.6,
            precharge_standby: 0.4,
            power_down: 0.0,
            self_refresh: 0.0,
        };
        let gating = PowerGating::deep_pd(avg_deep_pd_fraction);
        let dram_power_w = self.power.analytic_power_w(&activity, &gating);
        let dram_energy_joules = dram_power_w * runtime_s;
        let system_energy_joules =
            self.system_power
                .system_energy_j(dram_power_w, self.cfg.cpu_util, runtime_s);

        Ok(AppRunReport {
            name: profile.name.to_string(),
            baseline_runtime_s,
            runtime_s,
            overhead_fraction,
            dram_energy_joules,
            system_energy_joules,
            dram_power_w,
            avg_offline_fraction,
            avg_read_latency_cycles: avg_latency,
            daemon: daemon_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_runs_mcf() {
        let mut sys = GreenDimmSystem::new(SystemConfig::small_test());
        let report = sys.run_app("libquantum", 42);
        assert!(report.dram_energy_joules > 0.0);
        assert!(report.system_energy_joules > report.dram_energy_joules);
        assert!(report.runtime_s >= report.baseline_runtime_s);
        assert!(report.avg_read_latency_cycles > 0.0);
    }

    #[test]
    fn small_footprint_app_offlines_most_memory() {
        let mut sys = GreenDimmSystem::new(SystemConfig::small_test());
        // povray's 30 MB footprint in 256 MB managed memory: most of the
        // capacity should be off-lined throughout.
        let report = sys.run_app("povray", 1);
        assert!(
            report.avg_offline_fraction > 0.5,
            "offline fraction {}",
            report.avg_offline_fraction
        );
    }

    #[test]
    fn overhead_is_small() {
        let mut sys = GreenDimmSystem::new(SystemConfig::small_test());
        let report = sys.run_app("libquantum", 3);
        assert!(
            report.overhead_fraction < 0.05,
            "overhead {}",
            report.overhead_fraction
        );
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        GreenDimmSystem::new(SystemConfig::small_test()).run_app("not-a-bench", 1);
    }

    #[test]
    fn strict_verification_passes_full_run() {
        let cfg = SystemConfig::small_test().with_verify(gd_verify::Mode::Strict);
        let mut sys = GreenDimmSystem::new(cfg);
        // Any invariant violation would abort run_profile with an error,
        // which run_app escalates to a panic.
        let report = sys.run_app("mcf", 7);
        assert!(report.dram_energy_joules > 0.0);
    }
}
