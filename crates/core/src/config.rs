//! GreenDIMM daemon configuration.

use gd_types::SimTime;

/// How `block_selector()` picks off-lining candidates (§5.2, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorPolicy {
    /// The paper's production policy: only *movable* blocks whose pages are
    /// all unused — off-lining never migrates data and never fails.
    #[default]
    FreeRemovableFirst,
    /// Prefer blocks whose sysfs `removable` flag is set (may still hold
    /// used movable pages, so migration and EAGAIN are possible). Fig. 8's
    /// improved series.
    RemovableFirst,
    /// Pick candidate blocks uniformly at random (may hit unmovable pages:
    /// EBUSY; or used pages: migrations and EAGAIN). Fig. 8's baseline.
    Random,
}

/// Daemon tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreenDimmConfig {
    /// `memory_usage_monitor()` period. The paper uses 1 s: shorter periods
    /// add overhead without off-lining more.
    pub monitor_period: SimTime,
    /// Off-line free memory above this fraction of installed capacity
    /// (paper: 10 % + α; below 10 % swapping destroys performance).
    pub off_thr: f64,
    /// On-line memory when free memory falls below this fraction.
    pub on_thr: f64,
    /// Candidate selection policy.
    pub selector: SelectorPolicy,
    /// Enforce the shared-sense-amplifier constraint: a sub-array group
    /// enters deep power-down only when its neighbouring group is also
    /// off-lined (§6.1).
    pub neighbor_constraint: bool,
    /// Extension beyond the paper: adapt `off_thr` at run time — raise the
    /// reserve when off-lining failures or allocation stalls occur (backing
    /// off an over-aggressive setting), decay back toward the configured
    /// value during quiet periods.
    pub adaptive_off_thr: bool,
    /// RNG seed (used by the Random selector).
    pub seed: u64,
}

impl GreenDimmConfig {
    /// The paper's configuration.
    pub fn paper_default() -> Self {
        GreenDimmConfig {
            monitor_period: SimTime::from_secs(1),
            off_thr: 0.10,
            on_thr: 0.05,
            selector: SelectorPolicy::FreeRemovableFirst,
            neighbor_constraint: true,
            adaptive_off_thr: false,
            seed: 1,
        }
    }

    /// Returns a copy with a different selector policy.
    pub fn with_selector(mut self, selector: SelectorPolicy) -> Self {
        self.selector = selector;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for GreenDimmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GreenDimmConfig::default();
        assert_eq!(c.monitor_period, SimTime::from_secs(1));
        assert_eq!(c.off_thr, 0.10);
        assert!(c.on_thr < c.off_thr, "hysteresis requires on_thr < off_thr");
        assert_eq!(c.selector, SelectorPolicy::FreeRemovableFirst);
        assert!(c.neighbor_constraint);
    }

    #[test]
    fn builder_helpers() {
        let c = GreenDimmConfig::default()
            .with_selector(SelectorPolicy::Random)
            .with_seed(9);
        assert_eq!(c.selector, SelectorPolicy::Random);
        assert_eq!(c.seed, 9);
    }
}
