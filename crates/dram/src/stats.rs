//! Simulation statistics consumed by the power model and the bench harness.

use crate::rank::RankResidency;
use gd_types::stats::Summary;
use gd_types::Cycles;

/// Command and event counts plus residency, for one full run of the memory
/// system. Everything the IDD power model needs to integrate energy.
///
/// `PartialEq` compares every counter and residency bucket exactly — the
/// engine-equivalence suite relies on it to prove the event-driven fast
/// path bit-identical to per-cycle stepping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total simulated memory-clock cycles.
    pub cycles: u64,
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued (including per-bank closes for refresh).
    pub precharges: u64,
    /// REF commands issued (per rank).
    pub refreshes: u64,
    /// Row-buffer hits (column command without a new ACT).
    pub row_hits: u64,
    /// Row-buffer misses (ACT required).
    pub row_misses: u64,
    /// Row-buffer conflicts (PRE + ACT required).
    pub row_conflicts: u64,
    /// Power-down entries across all ranks.
    pub pd_entries: u64,
    /// Self-refresh entries across all ranks.
    pub sr_entries: u64,
    /// Read latency in cycles, from request arrival to data return.
    pub read_latency: Summary,
    /// Per-rank state residency, indexed `[channel * ranks_per_channel + rank]`.
    pub rank_residency: Vec<RankResidency>,
    /// Per-sub-array-group cycles spent in GreenDIMM deep power-down.
    pub group_deep_pd_cycles: Vec<u64>,
}

impl RunStats {
    /// Sum of residency across all ranks.
    pub fn total_residency(&self) -> RankResidency {
        let mut acc = RankResidency::default();
        for r in &self.rank_residency {
            acc.merge(r);
        }
        acc
    }

    /// Mean fraction of cycles ranks spent in self-refresh (Fig. 3b).
    pub fn mean_self_refresh_fraction(&self) -> f64 {
        if self.rank_residency.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .rank_residency
            .iter()
            .map(|r| r.self_refresh_fraction())
            .sum();
        sum / self.rank_residency.len() as f64
    }

    /// Row-buffer hit rate over all column commands.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean fraction of deep-power-down residency across sub-array groups,
    /// relative to total run length.
    pub fn mean_deep_pd_fraction(&self) -> f64 {
        if self.group_deep_pd_cycles.is_empty() || self.cycles == 0 {
            return 0.0;
        }
        let sum: u64 = self.group_deep_pd_cycles.iter().sum();
        let denom = Cycles::new(self.cycles).as_f64() * self.group_deep_pd_cycles.len() as f64;
        sum as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_on_empty_are_zero() {
        let s = RunStats::default();
        assert_eq!(s.mean_self_refresh_fraction(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.mean_deep_pd_fraction(), 0.0);
    }

    #[test]
    fn hit_rate() {
        let s = RunStats {
            row_hits: 15,
            row_misses: 4,
            row_conflicts: 1,
            ..Default::default()
        };
        assert_eq!(s.row_hit_rate(), 0.75);
    }

    #[test]
    fn residency_totals() {
        let s = RunStats {
            cycles: 100,
            rank_residency: vec![
                RankResidency {
                    self_refresh: 50,
                    precharge_standby: 50,
                    ..Default::default()
                },
                RankResidency {
                    self_refresh: 0,
                    precharge_standby: 100,
                    ..Default::default()
                },
            ],
            group_deep_pd_cycles: vec![100, 0, 0, 0],
            ..Default::default()
        };
        assert_eq!(s.total_residency().self_refresh, 50);
        assert_eq!(s.mean_self_refresh_fraction(), 0.25);
        assert_eq!(s.mean_deep_pd_fraction(), 0.25);
    }
}
