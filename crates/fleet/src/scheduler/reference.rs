//! The scheduler as it was before its flat host books and departure
//! calendar: every host keeps the list of VMs running on it, every tick
//! drains and rebuilds all of those lists to find departures, and every
//! queued VM scans every host. Kept as a reference model; the differential
//! tests in the parent module compare [`schedule_fleet`] against it.

use super::*;

/// Scheduler-side accounting for one host.
#[derive(Debug, Clone, Default)]
struct HostState {
    used_vcpus: u32,
    used_mem_gb: u64,
    /// Running VMs per OS family.
    os_count: [u32; OS_TYPES],
    /// Running VMs: `(stop_deadline_s, vm)`; swept every tick.
    running: Vec<(u64, VmSpec)>,
    /// Sum over ticks of `used_mem_gb`.
    used_gb_ticks: u64,
}

/// Picks a host for `vm` under `cfg.placement`, or `None` when no host has
/// room.
fn place(
    cfg: &FleetConfig,
    hosts: &[HostState],
    vm: &VmSpec,
    vcpu_cap: u32,
    mem_cap_gb: u64,
    work: &mut ScheduleWork,
) -> Option<usize> {
    work.scan(hosts.len());
    let fits = |h: &HostState| {
        h.used_vcpus + vm.vcpus <= vcpu_cap && h.used_mem_gb + vm.mem_gb as u64 <= mem_cap_gb
    };
    match cfg.placement {
        FleetPlacement::BestFit => hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| fits(h))
            .min_by_key(|(_, h)| mem_cap_gb - h.used_mem_gb - vm.mem_gb as u64)
            .map(|(i, _)| i),
        FleetPlacement::KsmAware => hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| fits(h))
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

/// The reference [`schedule_fleet`].
pub(super) fn schedule(
    cfg: &FleetConfig,
    verify: Option<gd_verify::Mode>,
) -> Result<FleetSchedule> {
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
    let mut queue: Vec<(u64, VmSpec)> = Vec::new();
    let mut stats = FleetStats::default();
    let mut utilization = Vec::new();
    let mut arrival_idx = 0usize;
    let mut work = ScheduleWork::default();
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
        // 3. FIFO placement under the consolidation cap, every queued VM
        // scanning every host.
        let mut waiting = Vec::with_capacity(queue.len());
        for (arrived, vm) in queue.drain(..) {
            match place(cfg, &hosts, &vm, vcpu_cap, mem_cap_gb, &mut work) {
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
                None => waiting.push((arrived, vm)),
            }
        }
        // 4. Patience.
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
