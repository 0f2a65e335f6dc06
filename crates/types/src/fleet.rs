//! Fleet-scale simulation configuration and accounting.
//!
//! The paper motivates GreenDIMM with *data-center* memory utilization
//! (§1: 40–60 % average across fleets), but the co-simulation crates model
//! one host. `gd-fleet` lifts them to a cluster: N hosts fed from one
//! synthesized Azure arrival stream through a placement/consolidation
//! scheduler. The plain-data configuration and the conservation-checked
//! accounting live here so every layer (scheduler, verifier, bench
//! binaries) shares one vocabulary without depending on the fleet crate.

/// Cluster placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetPlacement {
    /// Host with the least memory headroom left after placing the VM
    /// (bin-packing; ties break toward the lowest index).
    #[default]
    BestFit,
    /// Best-fit among the hosts already running the most same-OS VMs, so
    /// KSM's OS-image sharing gets the densest co-location; ties break
    /// toward the tightest fit, then the lowest index.
    KsmAware,
}

impl FleetPlacement {
    /// Short policy name used in labels and provenance descriptions.
    pub fn name(self) -> &'static str {
        match self {
            FleetPlacement::BestFit => "best-fit",
            FleetPlacement::KsmAware => "ksm-aware",
        }
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of hosts.
    pub hosts: usize,
    /// Physical cores per host (vCPU consolidation cap is 2× this).
    pub host_cores: u32,
    /// Installed memory per host in GiB.
    pub host_capacity_gb: u64,
    /// Memory block size in GiB (paper: 1 GB for the VM experiments).
    pub block_gb: u64,
    /// Trace duration in seconds.
    pub duration_s: u64,
    /// Scheduler period in seconds (paper: 5 min).
    pub schedule_period_s: u64,
    /// Mean VM arrivals per scheduler tick *per host* at the diurnal
    /// baseline (the cluster arrival intensity is this times `hosts`).
    pub arrivals_per_tick_per_host: f64,
    /// Consolidation aggressiveness: the scheduler packs a host's memory
    /// only up to this fraction of installed capacity (1.0 = pack to the
    /// physical limit).
    pub max_util: f64,
    /// Scheduler ticks a queued VM waits before abandoning (its request
    /// goes to another cluster).
    pub queue_patience_ticks: u32,
    /// Placement policy.
    pub placement: FleetPlacement,
    /// Run each host's KSM daemon.
    pub ksm: bool,
    /// Run each host's GreenDIMM daemon (off = conventional kernel).
    pub greendimm: bool,
    /// Host sampling stride: hosts whose index is a multiple of this are
    /// co-simulated exactly; the rest get a surrogate calibrated against
    /// that sample. 1 co-simulates every host. Must be ≥ 1.
    pub sample_stride: usize,
    /// Experiment seed (per-host seeds derive from it by host index).
    pub seed: u64,
}

impl FleetConfig {
    /// The paper-scale fleet: 1000 hosts of the Fig. 12/13 platform
    /// (16 cores, 256 GB, 1 GB blocks) over 24 hours.
    pub fn paper_1k() -> Self {
        FleetConfig {
            hosts: 1000,
            host_cores: 16,
            host_capacity_gb: 256,
            block_gb: 1,
            duration_s: 86_400,
            schedule_period_s: 300,
            arrivals_per_tick_per_host: 0.8,
            max_util: 0.80,
            queue_patience_ticks: 12,
            placement: FleetPlacement::BestFit,
            ksm: false,
            greendimm: true,
            sample_stride: 1,
            seed: 42,
        }
    }

    /// A small fleet for tests: 8 hosts over 2 hours.
    pub fn small_test() -> Self {
        FleetConfig {
            hosts: 8,
            duration_s: 7_200,
            ..Self::paper_1k()
        }
    }

    /// Number of scheduler ticks in the run (the tick at t = 0 included).
    pub fn ticks(&self) -> u64 {
        self.duration_s / self.schedule_period_s
    }
}

/// VM accounting over one fleet run.
///
/// Conservation: every arrival is in exactly one terminal bucket —
/// `arrivals == running_at_end + queued_at_end + retired + abandoned` —
/// and every placement either retired or is still running:
/// `placed == running_at_end + retired`. `gd-verify`'s fleet checker
/// enforces both at every scheduler tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// VMs that arrived at the cluster.
    pub arrivals: u64,
    /// VMs placed onto a host.
    pub placed: u64,
    /// Placed VMs whose lifetime expired (stop event emitted).
    pub retired: u64,
    /// Queued VMs that gave up after `queue_patience_ticks`.
    pub abandoned: u64,
    /// VMs still running when the trace ended.
    pub running_at_end: u64,
    /// VMs still queued when the trace ended.
    pub queued_at_end: u64,
    /// Most VMs running anywhere in the cluster at once.
    pub peak_running: u64,
    /// Most hosts holding at least one VM at once.
    pub peak_hosts_used: usize,
}

impl FleetStats {
    /// True when the VM-conservation identities hold.
    pub fn conserved(&self) -> bool {
        self.arrivals == self.running_at_end + self.queued_at_end + self.retired + self.abandoned
            && self.placed == self.running_at_end + self.retired
    }

    /// Fraction of arrivals the cluster eventually placed.
    pub fn placement_rate(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.placed as f64 / self.arrivals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fleet_shape() {
        let cfg = FleetConfig::paper_1k();
        assert_eq!(cfg.hosts, 1000);
        assert_eq!(cfg.ticks(), 288);
        assert_eq!(cfg.sample_stride, 1, "the default fleet is exact");
    }

    #[test]
    fn conservation_identity() {
        let s = FleetStats {
            arrivals: 10,
            placed: 7,
            retired: 4,
            abandoned: 2,
            running_at_end: 3,
            queued_at_end: 1,
            ..FleetStats::default()
        };
        assert!(s.conserved());
        assert!((s.placement_rate() - 0.7).abs() < 1e-12);
        let broken = FleetStats { placed: 8, ..s };
        assert!(!broken.conserved());
    }

    #[test]
    fn placement_names() {
        assert_eq!(FleetPlacement::BestFit.name(), "best-fit");
        assert_eq!(FleetPlacement::KsmAware.name(), "ksm-aware");
        assert_eq!(FleetPlacement::default(), FleetPlacement::BestFit);
    }
}
