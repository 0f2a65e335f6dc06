//! Invariants over exported telemetry.
//!
//! Telemetry is only trustworthy if it accounts for all of simulated time:
//! a per-rank residency histogram whose bins do not sum to the elapsed
//! cycle count means a state transition was missed (or double-counted),
//! which would silently skew every power number derived from it.

use crate::Violation;
use gd_obs::Registry;

/// `telemetry.residency_sums_to_elapsed` over every histogram in
/// `registry` whose key contains `key_filter` (empty matches all): its
/// bins must sum exactly to `elapsed` (in the histograms' unit).
pub fn check_residencies(registry: &Registry, key_filter: &str, elapsed: u64) -> Vec<Violation> {
    registry
        .residencies()
        .filter(|(key, hist)| key.contains(key_filter) && hist.total() != elapsed)
        .map(|(key, hist)| {
            let total = hist.total();
            Violation::new(
                "telemetry.residency_sums_to_elapsed",
                format!(
                    "{key}: bins sum to {total} but {elapsed} elapsed ({} unaccounted)",
                    elapsed.abs_diff(total)
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sum_passes() {
        let mut reg = Registry::default();
        reg.residency_add("r0", "A", 60);
        reg.residency_add("r0", "B", 40);
        assert_eq!(check_residencies(&reg, "", 100), vec![]);
    }

    #[test]
    fn shortfall_fires() {
        let mut reg = Registry::default();
        reg.residency_add("r0", "A", 99);
        let err = crate::strict(check_residencies(&reg, "", 100)).unwrap_err();
        assert!(err.to_string().contains("1 unaccounted"), "{err}");
        assert_eq!(check_residencies(&reg, "", 100).len(), 1);
    }

    #[test]
    fn filter_limits_scope() {
        let mut reg = Registry::default();
        reg.residency_add("app.dram.rank0", "A", 100);
        reg.residency_add("other.thing", "A", 7);
        // Only the dram key is checked; the mismatched other key is skipped.
        assert_eq!(check_residencies(&reg, ".dram.", 100), vec![]);
    }
}
