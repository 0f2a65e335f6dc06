//! Invariants over the fleet scheduler's observable state.
//!
//! The cluster scheduler lives in `gd-fleet` (which depends on this
//! crate), so — like the daemon invariants in [`crate::obs`] — its
//! properties are stated over plain observation records the scheduler
//! fills in after every scheduling tick:
//!
//! * [`FleetObs`] — cluster-wide VM accounting: every arrival is
//!   running, queued, retired, or abandoned — never lost or double-counted;
//! * [`HostObs`] — one host's scheduled load: no host is ever scheduled
//!   past its installed memory or its vCPU oversubscription cap.
//!
//! [`check`] states both.

use crate::Violation;

/// One host's scheduled load, as observed after a scheduler tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostObs {
    /// Host index within the fleet.
    pub host: usize,
    /// Memory scheduled onto the host (GiB, pre-KSM accounting).
    pub used_gb: u64,
    /// Installed memory (GiB).
    pub capacity_gb: u64,
    /// vCPUs scheduled onto the host.
    pub used_vcpus: u32,
    /// vCPU oversubscription cap (e.g. 2 × physical cores).
    pub vcpu_cap: u32,
}

/// Cluster-wide VM accounting after one scheduler tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetObs {
    /// VMs that have arrived so far.
    pub arrivals: u64,
    /// VMs ever placed on a host.
    pub placed: u64,
    /// VMs that ran to completion.
    pub retired: u64,
    /// VMs that left the queue unplaced.
    pub abandoned: u64,
    /// VMs currently running.
    pub running: u64,
    /// VMs currently queued.
    pub queued: u64,
    /// Per-host load.
    pub hosts: Vec<HostObs>,
}

/// The scheduler invariants after one tick:
///
/// * `fleet.vm-conservation`: arrivals split exactly into running +
///   queued + retired + abandoned, and placements into running + retired;
/// * `fleet.host-capacity`: scheduled memory never exceeds installed
///   capacity and scheduled vCPUs never exceed the oversubscription cap.
pub fn check(o: &FleetObs) -> Vec<Violation> {
    const CONSERVATION: &str = "fleet.vm-conservation";
    const CAPACITY: &str = "fleet.host-capacity";
    let mut out = Vec::new();
    let accounted = o.running + o.queued + o.retired + o.abandoned;
    if o.arrivals != accounted {
        out.push(Violation::new(
            CONSERVATION,
            format!(
                "{} arrivals but {accounted} accounted for \
                 (running {} + queued {} + retired {} + abandoned {})",
                o.arrivals, o.running, o.queued, o.retired, o.abandoned
            ),
        ));
    }
    if o.placed != o.running + o.retired {
        out.push(Violation::new(
            CONSERVATION,
            format!(
                "{} placements but running {} + retired {} = {}",
                o.placed,
                o.running,
                o.retired,
                o.running + o.retired
            ),
        ));
    }
    for h in &o.hosts {
        if h.used_gb > h.capacity_gb {
            out.push(Violation::new(
                CAPACITY,
                format!(
                    "host {} scheduled {} GiB over its {} GiB capacity",
                    h.host, h.used_gb, h.capacity_gb
                ),
            ));
        }
        if h.used_vcpus > h.vcpu_cap {
            out.push(Violation::new(
                CAPACITY,
                format!(
                    "host {} scheduled {} vCPUs over its cap of {}",
                    h.host, h.used_vcpus, h.vcpu_cap
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> FleetObs {
        FleetObs {
            arrivals: 100,
            placed: 80,
            retired: 30,
            abandoned: 5,
            running: 50,
            queued: 15,
            hosts: vec![HostObs {
                host: 0,
                used_gb: 200,
                capacity_gb: 256,
                used_vcpus: 20,
                vcpu_cap: 32,
            }],
        }
    }

    #[test]
    fn clean_observation_passes_strict() {
        crate::strict(check(&clean())).unwrap();
    }

    #[test]
    fn lost_vm_fires_conservation() {
        let o = FleetObs {
            running: 49,
            ..clean()
        };
        // Both conservation equations break (arrivals and placements).
        let v = check(&o);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].invariant, "fleet.vm-conservation");
    }

    #[test]
    fn overcommitted_host_fires_capacity() {
        let mut o = clean();
        o.hosts[0].used_gb = 300;
        let v = check(&o);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("over its 256 GiB"));
    }

    #[test]
    fn vcpu_overcommit_fires_capacity() {
        let mut o = clean();
        o.hosts[0].used_vcpus = 40;
        let err = crate::strict(check(&o)).unwrap_err();
        assert!(err.to_string().contains("fleet.host-capacity"), "{err}");
    }
}
