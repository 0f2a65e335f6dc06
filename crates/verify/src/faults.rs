//! Invariants over the daemon's fault-recovery behaviour.
//!
//! Like [`crate::obs`], these are stated over plain observation records
//! the co-simulation harness derives from live daemon state after every
//! tick, so this crate needs no dependency on the daemon itself:
//!
//! * `faults.quarantine-respected` — a group NACKed out of deep power-down
//!   must not re-enter within its backoff window;
//! * `faults.degraded-stays-shallow` — a group degraded to shallow
//!   power-down never shows up in deep power-down again.
//!
//! [`check_quarantine`] states both.

use crate::Violation;

/// One group's recovery state against its register bit, in nanoseconds
/// of sim time (observations are plain data; the harness converts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineObs {
    /// Group index.
    pub group: usize,
    /// Deep power-down bit set in the register file.
    pub down: bool,
    /// When the group entered deep power-down (meaningful only when
    /// `down`).
    pub down_since_ns: u64,
    /// End of the group's quarantine window (0 when never quarantined).
    pub quarantined_until_ns: u64,
    /// The group has been permanently degraded to shallow power-down.
    pub degraded: bool,
}

/// The fault-recovery invariants, per group: a quarantined group must not
/// re-enter deep power-down before its backoff window expires (the whole
/// point of the exponential backoff is to stop hammering a flaky MRS
/// path), and a degraded group has given up on deep power-down for the
/// run, so seeing its bit set again means the degradation latch is broken.
pub fn check_quarantine(groups: &[QuarantineObs]) -> Vec<Violation> {
    let mut out = Vec::new();
    for g in groups
        .iter()
        .filter(|g| g.down && g.down_since_ns < g.quarantined_until_ns)
    {
        out.push(Violation::new(
            "faults.quarantine-respected",
            format!(
                "group {} entered deep power-down at {} ns, inside its \
                 quarantine window ending at {} ns",
                g.group, g.down_since_ns, g.quarantined_until_ns
            ),
        ));
    }
    for g in groups.iter().filter(|g| g.degraded && g.down) {
        out.push(Violation::new(
            "faults.degraded-stays-shallow",
            format!(
                "group {} is degraded to shallow power-down but its deep \
                 power-down bit is set",
                g.group
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> QuarantineObs {
        QuarantineObs {
            group: 3,
            down: true,
            down_since_ns: 10_000,
            quarantined_until_ns: 8_000,
            degraded: false,
        }
    }

    #[test]
    fn entry_after_backoff_passes() {
        assert_eq!(check_quarantine(&[clean()]), vec![]);
        // An up group is never a violation, whatever its window.
        let up = QuarantineObs {
            down: false,
            quarantined_until_ns: u64::MAX,
            ..clean()
        };
        assert_eq!(check_quarantine(&[up]), vec![]);
    }

    #[test]
    fn reentry_inside_window_fires() {
        let bad = QuarantineObs {
            down_since_ns: 5_000,
            ..clean()
        };
        let v = check_quarantine(&[bad]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "faults.quarantine-respected");
    }

    #[test]
    fn degraded_group_in_deep_pd_fires() {
        let bad = QuarantineObs {
            degraded: true,
            ..clean()
        };
        let err = crate::strict(check_quarantine(&[bad])).unwrap_err();
        assert!(err.to_string().contains("degraded"));
    }
}
