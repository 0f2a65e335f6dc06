//! Datacenter-scale fleet simulation for the GreenDIMM reproduction.
//!
//! The paper evaluates GreenDIMM on one host; this crate asks the
//! datacenter question: what does sub-array power-down buy across a fleet
//! of 1 000–10 000 hosts whose load is set by a cluster scheduler? A fleet
//! run has two phases:
//!
//! 1. **Schedule** ([`scheduler`]) — the synthesized Azure arrival stream
//!    for the whole cluster is placed onto hosts by a consolidation
//!    scheduler (first-fit, best-fit, or KSM-aware same-OS co-location),
//!    producing one VM lifecycle event stream per host. Scheduling is
//!    serial and cheap; its books are invariant-checked by
//!    [`gd_verify::fleet`].
//! 2. **Simulate** ([`host`]) — each host replays its event stream through
//!    the full mm/daemon/KSM co-simulation. Hosts are independent, so they
//!    fan out across the deterministic shard pool ([`pool`]): results merge
//!    in host order and the outcome is byte-identical for any `--jobs`.
//!
//! Host sampling trades fidelity for wall-clock at the *fleet* level:
//! [`FleetConfig::sample_stride`] co-simulates every `sample_stride`-th
//! host exactly and fills in the rest through an analytic surrogate
//! calibrated against the exact hosts (deep power-down tracks
//! scheduled-memory headroom; the calibration runs serially after the
//! merge, so it is jobs-invariant). A stride of 1 co-simulates every host.

pub mod host;
pub mod pool;
pub mod scheduler;

pub use host::{run_host, HostRun, HostSample, HostSimConfig, HostWork};
pub use pool::shard_map;
pub use scheduler::{schedule_fleet, FleetSchedule};

use gd_dram::EngineMode;
use gd_types::fleet::{FleetConfig, FleetStats};
use gd_types::rng::sweep_point_seed;
use gd_types::Result;

/// Per-host roll-up of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSummary {
    /// Host index within the fleet.
    pub host: usize,
    /// True when this host was co-simulated exactly; false when its numbers
    /// come from the calibrated surrogate.
    pub exact: bool,
    /// Mean used fraction (simulated for exact hosts, scheduled-memory mean
    /// for surrogate hosts).
    pub mean_used_fraction: f64,
    /// Mean fraction of sub-array groups in deep power-down.
    pub mean_deep_pd_fraction: f64,
    /// Hotplug events over the run.
    pub hotplug_events: u64,
    /// Pages KSM released over the run.
    pub ksm_released_pages: u64,
    /// Monitor ticks filled in by the surrogate instead of simulated: 0 for
    /// an exact host, the whole run for a surrogate host.
    pub replayed_ticks: u64,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Scheduler accounting (conservation-checked).
    pub stats: FleetStats,
    /// `(time_s, cluster_used_fraction)` per scheduler tick.
    pub utilization: Vec<(u64, f64)>,
    /// Per-host roll-ups, in host order.
    pub hosts: Vec<HostSummary>,
    /// Hosts that were co-simulated exactly.
    pub exact_hosts: usize,
    /// Work counters summed over the exactly co-simulated hosts.
    pub work: HostWork,
    /// Telemetry shards from the exactly-simulated hosts, labeled
    /// `host<index>`, when telemetry was requested.
    pub telemetry: Option<Vec<(String, gd_obs::Telemetry)>>,
}

impl FleetOutcome {
    /// Mean of the cluster scheduled-utilization series.
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            return 0.0;
        }
        self.utilization.iter().map(|(_, u)| u).sum::<f64>() / self.utilization.len() as f64
    }

    /// Fleet-mean deep power-down fraction (unweighted over hosts; every
    /// host has the same installed capacity).
    pub fn mean_deep_pd_fraction(&self) -> f64 {
        if self.hosts.is_empty() {
            return 0.0;
        }
        self.hosts
            .iter()
            .map(|h| h.mean_deep_pd_fraction)
            .sum::<f64>()
            / self.hosts.len() as f64
    }
}

/// Runs the full fleet: schedule, then per-host co-simulation sharded
/// across `jobs` workers.
///
/// Every `cfg.sample_stride`-th host is co-simulated exactly on `engine`;
/// the remaining hosts get surrogate numbers calibrated against the exact
/// hosts in a serial post-pass, so the outcome is byte-identical for any
/// `jobs`. Both engines give bit-identical outcomes; only
/// [`FleetOutcome::work`] counts the daemon bodies each one ran.
///
/// # Errors
///
/// Propagates configuration and bookkeeping errors from the scheduler and
/// the per-host simulations, and invariant violations when `verify` is
/// [`gd_verify::Mode::Strict`].
pub fn run_fleet(
    cfg: &FleetConfig,
    engine: EngineMode,
    jobs: usize,
    verify: Option<gd_verify::Mode>,
    with_telemetry: bool,
) -> Result<FleetOutcome> {
    let schedule = schedule_fleet(cfg, verify)?;
    let host_cfg = |host: usize| HostSimConfig {
        capacity_gb: cfg.host_capacity_gb,
        block_gb: cfg.block_gb,
        ksm: cfg.ksm,
        greendimm: cfg.greendimm,
        duration_s: cfg.duration_s,
        schedule_period_s: cfg.schedule_period_s,
        seed: sweep_point_seed(cfg.seed, host),
        engine,
    };
    type HostResult = Option<(HostRun, Option<gd_obs::Telemetry>)>;
    let runs: Vec<Result<HostResult>> = shard_map(
        &schedule.host_events,
        jobs,
        |host, events: &Vec<gd_workloads::VmEvent>| {
            if !host.is_multiple_of(cfg.sample_stride) {
                return Ok(None);
            }
            run_host(&host_cfg(host), events, with_telemetry).map(Some)
        },
    );
    let runs: Vec<HostResult> = runs.into_iter().collect::<Result<_>>()?;

    // Calibrate the surrogate against the exact hosts (serial, in host
    // order: the ratios are sums, so they do not depend on worker
    // scheduling). Deep power-down tracks scheduled-memory headroom; KSM
    // release tracks scheduled memory.
    let mut sum_pd = 0.0;
    let mut sum_headroom = 0.0;
    let mut sum_released = 0.0;
    let mut sum_sched_used = 0.0;
    let mut sum_hotplug = 0u64;
    let mut n_exact = 0u64;
    for (host, run) in runs.iter().enumerate() {
        if let Some((run, _)) = run {
            let sched_used = schedule.host_mean_used[host];
            sum_pd += run.mean_deep_pd_fraction();
            sum_headroom += (1.0 - sched_used).max(0.0);
            sum_released += run.ksm_released_pages as f64;
            sum_sched_used += sched_used;
            sum_hotplug += run.daemon.hotplug_events();
            n_exact += 1;
        }
    }
    let alpha_pd = if sum_headroom > 0.0 {
        sum_pd / sum_headroom
    } else {
        0.0
    };
    let alpha_released = if sum_sched_used > 0.0 {
        sum_released / sum_sched_used
    } else {
        0.0
    };
    let mean_hotplug = sum_hotplug.checked_div(n_exact).unwrap_or(0);

    let mut hosts = Vec::with_capacity(runs.len());
    let mut telemetry = with_telemetry.then(Vec::new);
    let mut work = HostWork::default();
    for (host, run) in runs.into_iter().enumerate() {
        match run {
            Some((run, tele)) => {
                work.add(&run.work);
                hosts.push(HostSummary {
                    host,
                    exact: true,
                    mean_used_fraction: run.mean_used_fraction(),
                    mean_deep_pd_fraction: run.mean_deep_pd_fraction(),
                    hotplug_events: run.daemon.hotplug_events(),
                    ksm_released_pages: run.ksm_released_pages,
                    replayed_ticks: 0,
                });
                if let (Some(out), Some(tele)) = (telemetry.as_mut(), tele) {
                    out.push((format!("host{host:04}"), tele));
                }
            }
            None => {
                let sched_used = schedule.host_mean_used[host];
                let headroom = (1.0 - sched_used).max(0.0);
                hosts.push(HostSummary {
                    host,
                    exact: false,
                    mean_used_fraction: sched_used,
                    mean_deep_pd_fraction: (alpha_pd * headroom).clamp(0.0, 1.0),
                    hotplug_events: mean_hotplug,
                    ksm_released_pages: (alpha_released * sched_used).round() as u64,
                    replayed_ticks: cfg.duration_s,
                });
            }
        }
    }
    let exact_hosts = hosts.iter().filter(|h| h.exact).count();
    Ok(FleetOutcome {
        stats: schedule.stats,
        utilization: schedule.utilization,
        hosts,
        exact_hosts,
        work,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_types::fleet::{FleetConfig, FleetPlacement};

    fn tiny() -> FleetConfig {
        FleetConfig {
            hosts: 6,
            duration_s: 2 * 3_600,
            ..FleetConfig::paper_1k()
        }
    }

    #[test]
    fn outcome_is_byte_identical_across_jobs() {
        let a = run_fleet(&tiny(), EngineMode::EventDriven, 1, None, false).unwrap();
        let b = run_fleet(&tiny(), EngineMode::EventDriven, 4, None, false).unwrap();
        assert_eq!(a.hosts, b.hosts);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.utilization, b.utilization);
    }

    #[test]
    fn sampled_fleet_follows_stride_and_stays_jobs_invariant() {
        let cfg = FleetConfig {
            hosts: 8,
            sample_stride: 4,
            ..tiny()
        };
        let engine = EngineMode::EventDriven;
        let a = run_fleet(&cfg, engine, 1, None, false).unwrap();
        assert_eq!(a.exact_hosts, 2, "hosts 0 and 4 are the anchors");
        assert!(a.hosts[0].exact && a.hosts[4].exact);
        assert!(!a.hosts[1].exact);
        for h in &a.hosts {
            assert!((0.0..=1.0).contains(&h.mean_deep_pd_fraction), "{h:?}");
        }
        let b = run_fleet(&cfg, engine, 3, None, false).unwrap();
        assert_eq!(a.hosts, b.hosts);
    }

    #[test]
    fn surrogate_tracks_exact_hosts() {
        // With a homogeneous fleet the surrogate's fleet-mean deep-PD must
        // land near the all-exact fleet's.
        let exact_cfg = FleetConfig { hosts: 8, ..tiny() };
        let sampled_cfg = FleetConfig {
            sample_stride: 2,
            ..exact_cfg
        };
        let exact = run_fleet(&exact_cfg, EngineMode::EventDriven, 2, None, false).unwrap();
        let sampled = run_fleet(&sampled_cfg, EngineMode::EventDriven, 2, None, false).unwrap();
        assert_eq!(exact.exact_hosts, 8);
        assert_eq!(sampled.exact_hosts, 4);
        let d = (exact.mean_deep_pd_fraction() - sampled.mean_deep_pd_fraction()).abs();
        assert!(d < 0.10, "surrogate drifted: {d}");
    }

    #[test]
    fn inert_daemon_never_enters_deep_power_down() {
        // Without GreenDIMM the daemon never off-lines a block, so every
        // exact host reads 0 and the surrogate calibrated on them does too:
        // fig14 computes its baseline column from that fact instead of
        // simulating it.
        for placement in [
            FleetPlacement::FirstFit,
            FleetPlacement::BestFit,
            FleetPlacement::KsmAware,
        ] {
            for ksm in [false, true] {
                for seed in [42, 7, 1234] {
                    let cfg = FleetConfig {
                        hosts: 6,
                        duration_s: 3_600,
                        sample_stride: 2,
                        placement,
                        ksm,
                        greendimm: false,
                        seed,
                        ..FleetConfig::paper_1k()
                    };
                    let out = run_fleet(&cfg, EngineMode::EventDriven, 2, None, false).unwrap();
                    assert_eq!(out.exact_hosts, 3);
                    for h in &out.hosts {
                        assert_eq!(
                            h.mean_deep_pd_fraction, 0.0,
                            "{placement:?} ksm={ksm} {h:?}"
                        );
                    }
                }
            }
        }
        // The same fleet under GreenDIMM does power groups down, so the
        // zeros above come from the inert daemon, not from an idle fleet.
        let cfg = FleetConfig {
            hosts: 6,
            duration_s: 3_600,
            sample_stride: 2,
            ..FleetConfig::paper_1k()
        };
        let gd = run_fleet(&cfg, EngineMode::EventDriven, 2, None, false).unwrap();
        assert!(gd.hosts.iter().all(|h| h.mean_deep_pd_fraction > 0.0));
    }

    #[test]
    fn telemetry_covers_exact_hosts_only() {
        let cfg = FleetConfig {
            hosts: 4,
            sample_stride: 2,
            duration_s: 3_600,
            ..FleetConfig::paper_1k()
        };
        let out = run_fleet(&cfg, EngineMode::EventDriven, 2, None, true).unwrap();
        let tele = out.telemetry.expect("telemetry requested");
        assert_eq!(tele.len(), out.exact_hosts);
        assert_eq!(tele[0].0, "host0000");
        assert!(tele[0].1.registry.counter("vm.daemon.ticks") > 0);
    }
}
