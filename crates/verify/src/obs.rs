//! Invariants over the GreenDIMM daemon's *observable* behaviour.
//!
//! The daemon lives in `greendimm` (which depends on this crate's
//! siblings), so its invariants are stated over plain observation records
//! that the co-simulation harness fills in after every monitoring tick:
//!
//! * [`DaemonTickObs`] — what one `memory_usage_monitor()` tick did to the
//!   free-page pool, checked by [`check_tick`];
//! * [`GroupStateObs`] — one sub-array group's deep power-down bit against
//!   its hotplug state, checked by [`check_groups`] (the paper's §4.3/§6.1
//!   safety properties: traffic never reaches a deep-PD group, and a group
//!   only powers down when its sense-amplifier buddy holds no on-line
//!   data).

use crate::Violation;

/// What one daemon tick did, as observed by the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaemonTickObs {
    /// Free pages before the tick.
    pub free_before: u64,
    /// Free pages after the tick.
    pub free_after: u64,
    /// On-line pages after the tick.
    pub total_after: u64,
    /// Pages taken off-line by this tick.
    pub offlined_pages: u64,
    /// Pages brought on-line by this tick.
    pub onlined_pages: u64,
    /// The off-lining threshold in effect (fraction of on-line memory).
    pub off_thr: f64,
    /// The on-lining threshold (fraction of on-line memory).
    pub on_thr: f64,
}

const HYSTERESIS: &str = "daemon.hysteresis";

/// `daemon.hysteresis`, the §4.2 contract: thresholds are ordered,
/// off-lining never pushes free memory below the on-lining floor (which
/// would trigger an immediate re-online next tick), and one tick never
/// moves in both directions.
pub fn check_tick(t: &DaemonTickObs) -> Vec<Violation> {
    let mut out = Vec::new();
    if t.off_thr < t.on_thr {
        out.push(Violation::new(
            HYSTERESIS,
            format!(
                "off_thr {} below on_thr {}: hysteresis band inverted",
                t.off_thr, t.on_thr
            ),
        ));
    }
    if t.offlined_pages > 0 {
        let on_floor = (t.total_after as f64 * t.on_thr).ceil() as u64;
        if t.free_after < on_floor {
            out.push(Violation::new(
                HYSTERESIS,
                format!(
                    "off-lined {} pages leaving only {} free pages, below the \
                     on-lining floor of {on_floor}",
                    t.offlined_pages, t.free_after
                ),
            ));
        }
    }
    if t.offlined_pages > 0 && t.onlined_pages > 0 {
        out.push(Violation::new(
            HYSTERESIS,
            format!(
                "tick both off-lined {} and on-lined {} pages",
                t.offlined_pages, t.onlined_pages
            ),
        ));
    }
    out
}

/// One sub-array group's register bit against its hotplug state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupStateObs {
    /// Group index.
    pub group: usize,
    /// Deep power-down bit set in the register file.
    pub down: bool,
    /// Every memory block overlapping the group is off-line.
    pub fully_offline: bool,
    /// The sense-amplifier buddy group's deep power-down bit.
    pub buddy_down: bool,
    /// Every block overlapping the buddy group is off-line.
    pub buddy_fully_offline: bool,
    /// Whether the open-bitline buddy constraint is being enforced.
    pub neighbor_constraint: bool,
}

/// The two group-register safety properties, per group:
///
/// * `group.deep-pd-requires-offline` (§4.3): the OS may only set a
///   group's deep power-down bit while every overlapping memory block is
///   off-line (otherwise live data loses refresh), and on-lined memory
///   implies the bit was cleared first;
/// * `group.neighbor-pair` (§6.1 open-bitline safety): with the neighbor
///   constraint on, a group may only stay in deep power-down while its
///   sense-amplifier buddy group is fully off-line (the buddy's accesses
///   would otherwise need the powered down group's sense amplifiers).
pub fn check_groups(groups: &[GroupStateObs]) -> Vec<Violation> {
    let mut out = Vec::new();
    for g in groups.iter().filter(|g| g.down && !g.fully_offline) {
        out.push(Violation::new(
            "group.deep-pd-requires-offline",
            format!(
                "group {} is in deep power-down while holding on-line memory",
                g.group
            ),
        ));
    }
    for g in groups
        .iter()
        .filter(|g| g.neighbor_constraint && g.down && !g.buddy_fully_offline)
    {
        out.push(Violation::new(
            "group.neighbor-pair",
            format!(
                "group {} is in deep power-down but its sense-amp buddy \
                 still holds on-line memory",
                g.group
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_tick() -> DaemonTickObs {
        DaemonTickObs {
            free_before: 10_000,
            free_after: 6_000,
            total_after: 50_000,
            offlined_pages: 4_000,
            onlined_pages: 0,
            off_thr: 0.10,
            on_thr: 0.05,
        }
    }

    #[test]
    fn clean_tick_passes() {
        assert_eq!(check_tick(&clean_tick()), vec![]);
    }

    #[test]
    fn offlining_below_on_floor_fires() {
        let t = DaemonTickObs {
            free_after: 2_000, // floor is 2_500
            ..clean_tick()
        };
        let v = check_tick(&t);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("on-lining floor"));
    }

    #[test]
    fn inverted_thresholds_fire() {
        let t = DaemonTickObs {
            off_thr: 0.04,
            ..clean_tick()
        };
        let v = check_tick(&t);
        assert!(!v.is_empty());
        assert!(v[0].detail.contains("hysteresis band inverted"), "{v:?}");
    }

    #[test]
    fn bidirectional_tick_fires() {
        let t = DaemonTickObs {
            onlined_pages: 100,
            ..clean_tick()
        };
        let v = check_tick(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "daemon.hysteresis");
    }

    fn group(idx: usize) -> GroupStateObs {
        GroupStateObs {
            group: idx,
            down: false,
            fully_offline: false,
            buddy_down: false,
            buddy_fully_offline: false,
            neighbor_constraint: true,
        }
    }

    #[test]
    fn deep_pd_with_online_memory_fires() {
        let gs = vec![GroupStateObs {
            down: true,
            fully_offline: false,
            buddy_fully_offline: true,
            ..group(3)
        }];
        let v = check_groups(&gs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "group.deep-pd-requires-offline");
    }

    #[test]
    fn neighbor_pair_violation_fires_only_under_constraint() {
        let bad = GroupStateObs {
            down: true,
            fully_offline: true,
            buddy_fully_offline: false,
            ..group(4)
        };
        let v = check_groups(&[bad]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "group.neighbor-pair");
        let unconstrained = GroupStateObs {
            neighbor_constraint: false,
            ..bad
        };
        assert_eq!(check_groups(&[unconstrained]), vec![]);
    }

    #[test]
    fn buddy_pair_both_down_is_legal() {
        let gs = vec![
            GroupStateObs {
                down: true,
                fully_offline: true,
                buddy_down: true,
                buddy_fully_offline: true,
                ..group(0)
            },
            GroupStateObs {
                down: true,
                fully_offline: true,
                buddy_down: true,
                buddy_fully_offline: true,
                ..group(1)
            },
        ];
        assert_eq!(check_groups(&gs), vec![]);
    }
}
