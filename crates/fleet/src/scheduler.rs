//! The cluster placement/consolidation scheduler (phase 1 of a fleet run).
//!
//! Scheduling is inherently sequential (every placement decision depends on
//! the cluster state the previous one left behind), so it runs serially
//! over scheduler ticks and produces, for every host, the exact
//! VM lifecycle event stream that host's co-simulation (phase 2, sharded
//! across workers) will replay. All state lives in index-ordered vectors —
//! no hash maps — so the schedule is a pure function of the configuration.

use gd_types::fleet::{FleetConfig, FleetPlacement, FleetStats};
use gd_types::{GdError, Result};
use gd_verify::fleet::{FleetObs, HostObs};
use gd_workloads::cluster::{synthesize_cluster, ClusterConfig};
use gd_workloads::{VmEvent, VmEventKind, VmSpec};

/// Number of OS families in the Azure VM population (see
/// [`gd_workloads::azure`]: `os_type` is sampled from `0..4`).
const OS_TYPES: usize = 4;

/// Scheduler-side accounting for one host.
#[derive(Debug, Clone, Default)]
struct HostState {
    used_vcpus: u32,
    used_mem_gb: u64,
    /// Running VMs per OS family (drives KSM-aware co-location).
    os_count: [u32; OS_TYPES],
    /// Running VMs: `(stop_deadline_s, vm)`; swept every tick.
    running: Vec<(u64, VmSpec)>,
    /// Sum over ticks of `used_mem_gb` (for the per-host mean).
    used_gb_ticks: u64,
}

/// One queued VM: `(arrival_tick, vm)`.
type Queued = (u64, VmSpec);

/// The fleet schedule: per-host event streams plus cluster accounting.
#[derive(Debug, Clone)]
pub struct FleetSchedule {
    /// Per-host VM lifecycle events, time-ordered (stops before starts
    /// within a tick, matching the single-host synthesizer).
    pub host_events: Vec<Vec<VmEvent>>,
    /// VM accounting, conservation-checked.
    pub stats: FleetStats,
    /// `(time_s, cluster_used_fraction)` per scheduler tick: scheduled
    /// memory over total installed capacity (before KSM).
    pub utilization: Vec<(u64, f64)>,
    /// Per-host mean scheduled-memory fraction over the run (feeds the
    /// sampled fleet's analytic host surrogate).
    pub host_mean_used: Vec<f64>,
}

impl FleetSchedule {
    /// Mean of the cluster utilization series.
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            return 0.0;
        }
        self.utilization.iter().map(|(_, u)| u).sum::<f64>() / self.utilization.len() as f64
    }
}

/// Picks a host for `vm` under `cfg.placement`, or `None` when no host has
/// room. `mem_cap_gb` is the consolidation cap (max_util × capacity).
fn place(
    cfg: &FleetConfig,
    hosts: &[HostState],
    vm: &VmSpec,
    vcpu_cap: u32,
    mem_cap_gb: u64,
) -> Option<usize> {
    let fits = |h: &HostState| {
        h.used_vcpus + vm.vcpus <= vcpu_cap && h.used_mem_gb + vm.mem_gb as u64 <= mem_cap_gb
    };
    match cfg.placement {
        FleetPlacement::FirstFit => hosts.iter().position(fits),
        FleetPlacement::BestFit => hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| fits(h))
            // Tightest fit: least memory headroom after placement. min_by_key
            // takes the first minimum, so ties break toward the lowest index.
            .min_by_key(|(_, h)| mem_cap_gb - h.used_mem_gb - vm.mem_gb as u64)
            .map(|(i, _)| i),
        FleetPlacement::KsmAware => hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| fits(h))
            // Densest same-OS co-location first (more OS-image pages for
            // KSM to merge), then tightest fit, then lowest index.
            .min_by_key(|(_, h)| {
                let same_os = h.os_count[vm.os_type as usize % OS_TYPES];
                (
                    u32::MAX - same_os,
                    mem_cap_gb - h.used_mem_gb - vm.mem_gb as u64,
                )
            })
            .map(|(i, _)| i),
    }
}

/// Runs the scheduler over the synthesized cluster arrival stream.
///
/// # Errors
///
/// Returns [`GdError::InvalidConfig`] for a degenerate configuration, and
/// propagates invariant violations when `verify` is
/// [`gd_verify::Mode::Strict`] (the conservation and capacity invariants
/// are checked after every scheduler tick).
pub fn schedule_fleet(cfg: &FleetConfig, verify: Option<gd_verify::Mode>) -> Result<FleetSchedule> {
    schedule(cfg, verify, true)
}

/// [`schedule_fleet`]; with `skip_unplaceable` off, every queued VM scans
/// the hosts, which is the reference the skip is tested against.
fn schedule(
    cfg: &FleetConfig,
    verify: Option<gd_verify::Mode>,
    skip_unplaceable: bool,
) -> Result<FleetSchedule> {
    if cfg.hosts == 0 || cfg.schedule_period_s == 0 || cfg.sample_stride == 0 {
        return Err(GdError::InvalidConfig(
            "fleet needs hosts >= 1, schedule_period_s >= 1, sample_stride >= 1".into(),
        ));
    }
    if !(0.0..=1.0).contains(&cfg.max_util) {
        return Err(GdError::InvalidConfig(format!(
            "max_util must be in [0, 1], got {}",
            cfg.max_util
        )));
    }
    let arrivals = synthesize_cluster(&ClusterConfig {
        duration_s: cfg.duration_s,
        schedule_period_s: cfg.schedule_period_s,
        arrivals_per_tick: cfg.arrivals_per_tick_per_host * cfg.hosts as f64,
        seed: cfg.seed,
    });
    let vcpu_cap = cfg.host_cores * 2;
    let mem_cap_gb = (cfg.host_capacity_gb as f64 * cfg.max_util).floor() as u64;

    let mut hosts: Vec<HostState> = vec![HostState::default(); cfg.hosts];
    let mut host_events: Vec<Vec<VmEvent>> = vec![Vec::new(); cfg.hosts];
    let mut queue: Vec<Queued> = Vec::new();
    let mut stats = FleetStats::default();
    let mut utilization = Vec::new();
    let mut arrival_idx = 0usize;
    let ticks = cfg.ticks();
    for tick in 0..=ticks {
        let t = tick * cfg.schedule_period_s;
        // 1. Departures: lifetime expired at or before this tick.
        for (hi, host) in hosts.iter_mut().enumerate() {
            let mut still = Vec::with_capacity(host.running.len());
            for (deadline, vm) in host.running.drain(..) {
                if t >= deadline {
                    host.used_vcpus -= vm.vcpus;
                    host.used_mem_gb -= vm.mem_gb as u64;
                    host.os_count[vm.os_type as usize % OS_TYPES] -= 1;
                    stats.retired += 1;
                    host_events[hi].push(VmEvent {
                        time_s: t,
                        kind: VmEventKind::Stop,
                        vm,
                    });
                } else {
                    still.push((deadline, vm));
                }
            }
            host.running = still;
        }
        // 2. New arrivals join the queue.
        while arrival_idx < arrivals.len() && arrivals[arrival_idx].time_s <= t {
            queue.push((tick, arrivals[arrival_idx].vm.clone()));
            stats.arrivals += 1;
            arrival_idx += 1;
        }
        // 3. FIFO placement under the consolidation cap. Host usage only
        // grows during this step, so once a `(vcpus, mem_gb)` class finds
        // no host, no VM at least as large in both finds one later in the
        // tick; those wait without a host scan.
        let mut waiting = Vec::with_capacity(queue.len());
        let mut unplaceable: Vec<(u32, u32)> = Vec::new();
        for (arrived, vm) in queue.drain(..) {
            let dominated = skip_unplaceable
                && unplaceable
                    .iter()
                    .any(|&(vcpus, mem_gb)| vm.vcpus >= vcpus && vm.mem_gb >= mem_gb);
            if dominated {
                waiting.push((arrived, vm));
                continue;
            }
            match place(cfg, &hosts, &vm, vcpu_cap, mem_cap_gb) {
                Some(hi) => {
                    let host = &mut hosts[hi];
                    host.used_vcpus += vm.vcpus;
                    host.used_mem_gb += vm.mem_gb as u64;
                    host.os_count[vm.os_type as usize % OS_TYPES] += 1;
                    host.running.push((t + vm.lifetime_s, vm.clone()));
                    stats.placed += 1;
                    host_events[hi].push(VmEvent {
                        time_s: t,
                        kind: VmEventKind::Start,
                        vm,
                    });
                }
                None => {
                    unplaceable.push((vm.vcpus, vm.mem_gb));
                    waiting.push((arrived, vm));
                }
            }
        }
        // 4. Patience: stale queue entries give up (their request went to
        // another cluster).
        stats.abandoned += waiting
            .extract_if(.., |(arrived, _)| {
                tick - *arrived >= cfg.queue_patience_ticks as u64
            })
            .count() as u64;
        queue = waiting;
        // 5. Accounting + invariants.
        let running: u64 = hosts.iter().map(|h| h.running.len() as u64).sum();
        let hosts_used = hosts.iter().filter(|h| !h.running.is_empty()).count();
        stats.peak_running = stats.peak_running.max(running);
        stats.peak_hosts_used = stats.peak_hosts_used.max(hosts_used);
        let used_gb: u64 = hosts.iter().map(|h| h.used_mem_gb).sum();
        utilization.push((
            t,
            used_gb as f64 / (cfg.host_capacity_gb * cfg.hosts as u64) as f64,
        ));
        for h in &mut hosts {
            h.used_gb_ticks += h.used_mem_gb;
        }
        if verify.is_some() {
            let obs = FleetObs {
                arrivals: stats.arrivals,
                placed: stats.placed,
                retired: stats.retired,
                abandoned: stats.abandoned,
                running,
                queued: queue.len() as u64,
                hosts: hosts
                    .iter()
                    .enumerate()
                    .map(|(i, h)| HostObs {
                        host: i,
                        used_gb: h.used_mem_gb,
                        capacity_gb: cfg.host_capacity_gb,
                        used_vcpus: h.used_vcpus,
                        vcpu_cap,
                    })
                    .collect(),
            };
            gd_verify::strict(gd_verify::fleet::check(&obs))?;
        }
    }
    stats.running_at_end = hosts.iter().map(|h| h.running.len() as u64).sum();
    stats.queued_at_end = queue.len() as u64;
    debug_assert!(stats.conserved(), "scheduler broke VM conservation");
    let samples = (ticks + 1) as f64;
    let host_mean_used = hosts
        .iter()
        .map(|h| h.used_gb_ticks as f64 / samples / cfg.host_capacity_gb as f64)
        .collect();
    Ok(FleetSchedule {
        host_events,
        stats,
        utilization,
        host_mean_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_types::fleet::FleetConfig;

    #[test]
    fn conservation_holds_under_strict_verification() {
        for placement in [
            FleetPlacement::FirstFit,
            FleetPlacement::BestFit,
            FleetPlacement::KsmAware,
        ] {
            let cfg = FleetConfig {
                placement,
                ..FleetConfig::small_test()
            };
            let s = schedule_fleet(&cfg, Some(gd_verify::Mode::Strict)).expect("schedule");
            assert!(s.stats.conserved(), "{placement:?}: {:?}", s.stats);
            assert!(s.stats.placed > 0, "{placement:?} placed nothing");
        }
    }

    #[test]
    fn deterministic_and_independent_of_verification() {
        let cfg = FleetConfig::small_test();
        let a = schedule_fleet(&cfg, None).unwrap();
        let b = schedule_fleet(&cfg, Some(gd_verify::Mode::Strict)).unwrap();
        assert_eq!(a.host_events, b.host_events);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.utilization, b.utilization);
    }

    #[test]
    fn events_per_host_are_time_ordered_and_balanced() {
        let s = schedule_fleet(&FleetConfig::small_test(), None).unwrap();
        for (hi, events) in s.host_events.iter().enumerate() {
            assert!(
                events.windows(2).all(|w| w[0].time_s <= w[1].time_s),
                "host {hi} events out of order"
            );
            let starts = events
                .iter()
                .filter(|e| e.kind == VmEventKind::Start)
                .count();
            let stops = events
                .iter()
                .filter(|e| e.kind == VmEventKind::Stop)
                .count();
            assert!(
                stops <= starts,
                "host {hi}: {stops} stops vs {starts} starts"
            );
        }
    }

    #[test]
    fn lower_max_util_spreads_load_wider() {
        let tight = schedule_fleet(
            &FleetConfig {
                max_util: 0.95,
                hosts: 16,
                ..FleetConfig::small_test()
            },
            None,
        )
        .unwrap();
        let loose = schedule_fleet(
            &FleetConfig {
                max_util: 0.40,
                hosts: 16,
                ..FleetConfig::small_test()
            },
            None,
        )
        .unwrap();
        // A lower cap forces the same arrivals across more hosts.
        assert!(
            loose.stats.peak_hosts_used >= tight.stats.peak_hosts_used,
            "loose {} vs tight {}",
            loose.stats.peak_hosts_used,
            tight.stats.peak_hosts_used
        );
    }

    #[test]
    fn ksm_aware_co_locates_same_os() {
        // Count same-OS adjacency: for each host, sum over OS families of
        // C(n, 2) pairs. KSM-aware placement must produce at least as many
        // same-OS pairs as plain best-fit on the same stream.
        let pairs = |placement: FleetPlacement| -> u64 {
            let cfg = FleetConfig {
                placement,
                hosts: 12,
                ..FleetConfig::small_test()
            };
            let s = schedule_fleet(&cfg, None).unwrap();
            // Reconstruct peak same-OS pair count from the event streams.
            let mut total = 0u64;
            for events in &s.host_events {
                let mut live = [0u64; OS_TYPES];
                let mut best = 0u64;
                for e in events {
                    let os = e.vm.os_type as usize % OS_TYPES;
                    match e.kind {
                        VmEventKind::Start => live[os] += 1,
                        VmEventKind::Stop => live[os] -= 1,
                    }
                    let now: u64 = live.iter().map(|n| n * n.saturating_sub(1) / 2).sum();
                    best = best.max(now);
                }
                total += best;
            }
            total
        };
        let ksm_aware = pairs(FleetPlacement::KsmAware);
        let best_fit = pairs(FleetPlacement::BestFit);
        assert!(
            ksm_aware >= best_fit,
            "ksm-aware {ksm_aware} vs best-fit {best_fit}"
        );
    }

    /// Skipping VMs that a smaller, already failed class dominates must
    /// not change the schedule.
    #[test]
    fn skipping_unplaceable_classes_matches_the_full_scan() {
        for placement in [
            FleetPlacement::FirstFit,
            FleetPlacement::BestFit,
            FleetPlacement::KsmAware,
        ] {
            for seed in 0..4u64 {
                let cfg = FleetConfig {
                    placement,
                    seed,
                    hosts: 6,
                    duration_s: 21_600,
                    arrivals_per_tick_per_host: 8.0,
                    ..FleetConfig::small_test()
                };
                let strict = Some(gd_verify::Mode::Strict);
                let fast = schedule(&cfg, strict, true).expect("schedule");
                let full = schedule(&cfg, strict, false).expect("reference schedule");
                let ctx = format!("{placement:?} seed {seed}");
                assert!(fast.stats.abandoned > 0, "{ctx}: the queue never backed up");
                assert_eq!(fast.host_events, full.host_events, "{ctx}: host events");
                assert_eq!(fast.stats, full.stats, "{ctx}: stats");
                assert_eq!(fast.utilization, full.utilization, "{ctx}: utilization");
            }
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(schedule_fleet(
            &FleetConfig {
                hosts: 0,
                ..FleetConfig::small_test()
            },
            None
        )
        .is_err());
        assert!(schedule_fleet(
            &FleetConfig {
                sample_stride: 0,
                ..FleetConfig::small_test()
            },
            None
        )
        .is_err());
        assert!(schedule_fleet(
            &FleetConfig {
                max_util: 1.5,
                ..FleetConfig::small_test()
            },
            None
        )
        .is_err());
    }
}
