//! The cluster placement/consolidation scheduler (phase 1 of a fleet run).
//!
//! Scheduling is inherently sequential (every placement decision depends on
//! the cluster state the previous one left behind), so it runs serially
//! over scheduler ticks and produces, for every host, the exact
//! VM lifecycle event stream that host's co-simulation (phase 2, sharded
//! across workers) will replay. All state lives in index-ordered vectors —
//! no hash maps — so the schedule is a pure function of the configuration.

use gd_types::fleet::{FleetConfig, FleetPlacement, FleetStats};
use gd_types::{Fraction, GdError, Result};
use gd_verify::fleet::{FleetObs, HostObs};
use gd_workloads::cluster::{synthesize_cluster, ClusterConfig};
use gd_workloads::{VmEvent, VmEventKind, VmSpec};

/// Number of OS families in the Azure VM population (see
/// [`gd_workloads::azure`]: `os_type` is sampled from `0..4`).
const OS_TYPES: usize = 4;

#[cfg(test)]
mod reference;

/// Scheduler-side books for one host: sums over the VMs running on it.
/// Which VMs those are, and when each leaves, lives in the departure
/// calendar.
#[derive(Debug, Clone, Copy, Default)]
struct HostState {
    used_vcpus: u32,
    used_mem_gb: u64,
    /// Running VMs per OS family (drives KSM-aware co-location).
    os_count: [u32; OS_TYPES],
    /// Running VMs.
    vms: u32,
    /// Sum over ticks of `used_mem_gb` (for the per-host mean).
    used_gb_ticks: u64,
}

/// One queued VM: `(arrival_tick, vm)`.
type Queued = (u64, VmSpec);

/// Deterministic work counters of the placement scan: they depend only on
/// the configuration, never on the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleWork {
    /// Placement scans: queued VMs a host was looked for.
    pub place_calls: u64,
    /// Hosts those scans examined.
    pub hosts_examined: u64,
}

impl ScheduleWork {
    /// Counts one scan over `hosts` hosts.
    fn scan(&mut self, hosts: usize) {
        self.place_calls += 1;
        self.hosts_examined += hosts as u64;
    }

    /// The counters as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 2] {
        [
            ("place_calls", self.place_calls),
            ("hosts_examined", self.hosts_examined),
        ]
    }
}

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
    /// What the placement scans cost.
    pub work: ScheduleWork,
}

/// Picks a host for `vm` under `placement`, or `None` when no host has
/// room. `mem_cap_gb` is the consolidation cap (max_util × capacity).
///
/// Among the hosts with room, the smallest key wins: the least memory
/// headroom after placement (best-fit), preceded for KSM-aware placement by
/// the most running VMs of the same OS family (more OS-image pages for KSM
/// to merge). Ties go to the lowest host index. The scan examines every
/// host, and `work` counts it.
fn place(
    placement: FleetPlacement,
    hosts: &[HostState],
    vm: &VmSpec,
    vcpu_cap: u32,
    mem_cap_gb: u64,
    work: &mut ScheduleWork,
) -> Option<usize> {
    work.scan(hosts.len());
    let os = vm.os_type as usize % OS_TYPES;
    let mem_gb = vm.mem_gb as u64;
    let mut best: Option<(usize, (u32, u64))> = None;
    for (i, h) in hosts.iter().enumerate() {
        if h.used_vcpus + vm.vcpus > vcpu_cap || h.used_mem_gb + mem_gb > mem_cap_gb {
            continue;
        }
        let os_key = match placement {
            FleetPlacement::BestFit => 0,
            FleetPlacement::KsmAware => u32::MAX - h.os_count[os],
        };
        let key = (os_key, mem_cap_gb - h.used_mem_gb - mem_gb);
        if best.is_none_or(|(_, best_key)| key < best_key) {
            best = Some((i, key));
        }
    }
    best.map(|(i, _)| i)
}

/// Runs the scheduler over the synthesized cluster arrival stream.
///
/// A placed VM goes into the departure calendar's bucket for the first
/// tick at or after its deadline, or into none when that tick is past the
/// run; each tick drains its own bucket. Buckets fill in placement order,
/// so each host's Stop events within a tick come out in placement order.
///
/// # Errors
///
/// Returns [`GdError::InvalidConfig`] for a degenerate configuration, and
/// propagates invariant violations when `verify` is
/// [`gd_verify::Mode::Strict`] (the conservation and capacity invariants
/// are checked after every scheduler tick).
pub fn schedule_fleet(cfg: &FleetConfig, verify: Option<gd_verify::Mode>) -> Result<FleetSchedule> {
    if cfg.hosts == 0 || cfg.schedule_period_s == 0 || cfg.sample_stride == 0 {
        return Err(GdError::InvalidConfig(
            "fleet needs hosts >= 1, schedule_period_s >= 1, sample_stride >= 1".into(),
        ));
    }
    let max_util = Fraction::new(cfg.max_util).map_err(|e| e.labelled("max_util"))?;
    let arrivals = synthesize_cluster(&ClusterConfig {
        duration_s: cfg.duration_s,
        schedule_period_s: cfg.schedule_period_s,
        arrivals_per_tick: cfg.arrivals_per_tick_per_host * cfg.hosts as f64,
        seed: cfg.seed,
    });
    let vcpu_cap = cfg.host_cores * 2;
    let mem_cap_gb = (cfg.host_capacity_gb as f64 * max_util.get()).floor() as u64;

    let mut hosts = vec![HostState::default(); cfg.hosts];
    let mut host_events: Vec<Vec<VmEvent>> = vec![Vec::new(); cfg.hosts];
    let ticks = cfg.ticks();
    // `calendar[k]`: the `(host, vm)`s that leave at tick `k`.
    let mut calendar: Vec<Vec<(usize, VmSpec)>> = vec![Vec::new(); ticks as usize + 1];
    let mut queue: Vec<Queued> = Vec::new();
    let mut stats = FleetStats::default();
    let mut utilization = Vec::new();
    let (mut running, mut hosts_used, mut used_gb) = (0u64, 0usize, 0u64);
    let mut arrival_idx = 0usize;
    let mut work = ScheduleWork::default();
    for tick in 0..=ticks {
        let t = tick * cfg.schedule_period_s;
        // 1. Departures: lifetime expired at or before this tick.
        let departing = calendar
            .get_mut(tick as usize)
            .map(std::mem::take)
            .unwrap_or_default();
        for (hi, vm) in departing {
            let host = &mut hosts[hi];
            host.used_vcpus -= vm.vcpus;
            host.used_mem_gb -= vm.mem_gb as u64;
            host.os_count[vm.os_type as usize % OS_TYPES] -= 1;
            host.vms -= 1;
            hosts_used -= usize::from(host.vms == 0);
            running -= 1;
            used_gb -= vm.mem_gb as u64;
            stats.retired += 1;
            host_events[hi].push(VmEvent {
                time_s: t,
                kind: VmEventKind::Stop,
                vm,
            });
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
            if unplaceable
                .iter()
                .any(|&(vcpus, mem_gb)| vm.vcpus >= vcpus && vm.mem_gb >= mem_gb)
            {
                waiting.push((arrived, vm));
                continue;
            }
            let Some(hi) = place(cfg.placement, &hosts, &vm, vcpu_cap, mem_cap_gb, &mut work)
            else {
                unplaceable.push((vm.vcpus, vm.mem_gb));
                waiting.push((arrived, vm));
                continue;
            };
            let host = &mut hosts[hi];
            host.used_vcpus += vm.vcpus;
            host.used_mem_gb += vm.mem_gb as u64;
            host.os_count[vm.os_type as usize % OS_TYPES] += 1;
            hosts_used += usize::from(host.vms == 0);
            host.vms += 1;
            running += 1;
            used_gb += vm.mem_gb as u64;
            stats.placed += 1;
            // This tick's bucket is drained already; every lifetime is at
            // least 600 s, so a VM always leaves at a later tick.
            let due = (t + vm.lifetime_s).div_ceil(cfg.schedule_period_s);
            debug_assert!(due > tick, "VM {} departs at its placement tick", vm.id);
            if let Some(bucket) = calendar.get_mut(due as usize) {
                bucket.push((hi, vm.clone()));
            }
            host_events[hi].push(VmEvent {
                time_s: t,
                kind: VmEventKind::Start,
                vm,
            });
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
        stats.peak_running = stats.peak_running.max(running);
        stats.peak_hosts_used = stats.peak_hosts_used.max(hosts_used);
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
    stats.running_at_end = running;
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
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_types::fleet::FleetConfig;

    #[test]
    fn conservation_holds_under_strict_verification() {
        for placement in [FleetPlacement::BestFit, FleetPlacement::KsmAware] {
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
        assert_eq!(a.work, b.work);
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

    /// The flat books, the departure calendar and the dominance skip
    /// produce the schedule of the reference, which keeps every host's
    /// running VMs and scans every host for every queued VM.
    #[test]
    fn calendar_scheduler_matches_the_reference() {
        calendar_differential(0..4);
    }

    /// [`calendar_scheduler_matches_the_reference`] over more seeds;
    /// `tools/ci.sh` runs it in release mode.
    #[test]
    #[ignore = "wide-seed run, 40 seeds per configuration"]
    fn calendar_scheduler_matches_the_reference_wide_seeds() {
        calendar_differential(4..44);
    }

    fn calendar_differential(seeds: std::ops::Range<u64>) {
        let strict = Some(gd_verify::Mode::Strict);
        for placement in [FleetPlacement::BestFit, FleetPlacement::KsmAware] {
            // `(hosts, arrivals per tick per host, max_util, period_s)`:
            // each mix backs the queue up, so VMs abandon and the skip fires.
            for (hosts, rate, max_util, period_s) in [
                (6, 8.0, 0.80, 300),
                (4, 12.0, 0.95, 300),
                (12, 5.0, 0.50, 300),
                (16, 10.0, 0.65, 600),
            ] {
                for seed in seeds.clone() {
                    let cfg = FleetConfig {
                        placement,
                        seed,
                        hosts,
                        max_util,
                        duration_s: 21_600,
                        schedule_period_s: period_s,
                        arrivals_per_tick_per_host: rate,
                        ..FleetConfig::small_test()
                    };
                    let fast = schedule_fleet(&cfg, strict).expect("schedule");
                    let full = reference::schedule(&cfg, strict).expect("reference schedule");
                    let ctx = format!("{placement:?} {hosts} hosts x{rate} cap {max_util} {period_s} s seed {seed}");
                    assert!(fast.stats.abandoned > 0, "{ctx}: the queue never backed up");
                    assert!(fast.stats.retired > 0, "{ctx}: no VM departed");
                    assert_eq!(fast.host_events, full.host_events, "{ctx}: host events");
                    assert_eq!(fast.stats, full.stats, "{ctx}: stats");
                    assert_eq!(fast.utilization, full.utilization, "{ctx}: utilization");
                    assert_eq!(
                        fast.host_mean_used, full.host_mean_used,
                        "{ctx}: host means"
                    );
                    // Every scan examines every host; the dominance skip
                    // only ever saves scans.
                    let scanned = fast.work.place_calls * hosts as u64;
                    assert_eq!(fast.work.hosts_examined, scanned, "{ctx}: hosts examined");
                    assert!(
                        fast.work.place_calls <= full.work.place_calls,
                        "{ctx}: {:?} vs {:?}",
                        fast.work,
                        full.work
                    );
                }
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
        let err = schedule_fleet(
            &FleetConfig {
                max_util: 1.5,
                ..FleetConfig::small_test()
            },
            None,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: max_util: fraction 1.5 outside [0, 1]"
        );
    }
}
