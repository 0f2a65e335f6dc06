//! Baseline DRAM power-management policies the paper compares against
//! (§6.2, Figs. 9–10): self-refresh-only, RAMZzz (SC'12), and PASR.
//!
//! Each baseline is modelled as a [`PowerGovernor`]: given what the
//! cycle-level simulation measured (rank self-refresh residency under the
//! chosen interleaving mode) and the workload's footprint, it decides the
//! power-state residency, array gating, and runtime overhead to charge.
//! The paper models the baselines the same way ("we model power reduction
//! by them based on the number of idle ranks/banks").

use gd_power::PowerGating;
use gd_types::{Fraction, Result};

pub mod sanity;

/// Off-lining failures the co-simulation observed, split by cause (the
/// structured [`gd_mmsim::OfflineError`] counts). Governors that actively
/// off-line memory charge the retry time these imply; the default (all
/// zeros) charges nothing, so fault-free figures are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OfflineFailureBreakdown {
    /// EBUSY rejections from pinned user pages.
    pub pinned: u64,
    /// EBUSY rejections from unmovable kernel allocations.
    pub kernel_block: u64,
    /// EAGAIN failures from aborted (rolled-back) migrations.
    pub migration_aborted: u64,
}

impl OfflineFailureBreakdown {
    /// Total failed offline attempts.
    pub fn total(&self) -> u64 {
        self.pinned + self.kernel_block + self.migration_aborted
    }

    /// Lower bound on the wall-clock time the failures cost, using the
    /// paper's Table 3 latencies: an EBUSY rejection is detected in ~6 µs,
    /// while an aborted migration burns the full ~4.37 ms EAGAIN path.
    pub fn time_lower_bound_s(&self) -> f64 {
        (self.pinned + self.kernel_block) as f64 * 6e-6 + self.migration_aborted as f64 * 4.37e-3
    }
}

/// Inputs a governor evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorContext {
    /// Whether channel/rank/bank interleaving is enabled.
    pub interleaved: bool,
    /// Application resident footprint in bytes.
    pub footprint_bytes: u64,
    /// Total DRAM capacity in bytes.
    pub capacity_bytes: u64,
    /// Total ranks.
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Mean rank self-refresh residency the cycle simulation measured for
    /// this workload and interleaving mode.
    pub measured_sr_fraction: Fraction,
    /// Baseline execution time in seconds.
    pub runtime_s: f64,
    /// Fraction of capacity GreenDIMM off-lined (0 for other governors).
    pub offline_fraction: Fraction,
    /// Off-lining failures observed during the run (zero for governors
    /// that never off-line memory, and for fault-free runs).
    pub offline_failures: OfflineFailureBreakdown,
}

impl GovernorContext {
    /// Fraction of ranks the footprint touches when data is packed
    /// contiguously (no interleaving).
    pub fn ranks_touched_fraction(&self) -> Fraction {
        let rank_bytes = self.capacity_bytes as f64 / self.ranks as f64;
        let touched = (self.footprint_bytes as f64 / rank_bytes).ceil();
        Fraction::new((touched / self.ranks as f64).min(1.0)).expect("invariant: capped at 1")
    }
}

/// What a governor achieves for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorOutcome {
    /// Array gating (refresh / background power turned off).
    pub gating: PowerGating,
    /// Mean fraction of time ranks spend in self-refresh.
    pub sr_fraction: Fraction,
    /// Mean fraction of time ranks spend in power-down.
    pub pd_fraction: Fraction,
    /// Runtime overhead the policy itself causes, seconds.
    pub overhead_s: f64,
}

impl GovernorOutcome {
    /// The share of the run spent neither in self-refresh nor in
    /// power-down, `1 − (sr + pd)`: the one home of the rule that the two
    /// residencies sum to at most 1, which the energy evaluation and
    /// `governor.sanity` both apply.
    ///
    /// # Errors
    ///
    /// Returns [`gd_types::GdError::InvalidConfig`], naming the
    /// residencies, when they sum to more than 1.
    pub fn awake_fraction(&self) -> Result<Fraction> {
        Fraction::new(self.sr_fraction.get() + self.pd_fraction.get())
            .map(Fraction::complement)
            .map_err(|e| e.labelled("self-refresh + power-down residency"))
    }
}

/// A DRAM power-management policy under evaluation.
pub trait PowerGovernor {
    /// Display name used in figure legends.
    fn name(&self) -> &'static str;

    /// Evaluates the policy for one workload run.
    fn evaluate(&self, ctx: &GovernorContext) -> GovernorOutcome;
}

/// `srf_only`: the commodity controller's idle-timeout self-refresh. Its
/// outcome is exactly what the cycle simulation measured — with
/// interleaving no rank ever idles long enough (Fig. 3b).
#[derive(Debug, Clone, Copy, Default)]
pub struct SrfOnly;

impl PowerGovernor for SrfOnly {
    fn name(&self) -> &'static str {
        "srf_only"
    }

    fn evaluate(&self, ctx: &GovernorContext) -> GovernorOutcome {
        GovernorOutcome {
            gating: PowerGating::none(),
            sr_fraction: ctx.measured_sr_fraction,
            pd_fraction: Fraction::ZERO,
            overhead_s: 0.0,
        }
    }
}

/// RAMZzz (Wu et al., SC'12): rank-aware page grouping — migrate pages so
/// cold ranks stay idle and can be demoted to self-refresh. Effective
/// without interleaving; defeated by it (every rank stays hot). Charges the
/// page-access monitoring and periodic migration overhead the paper calls
/// "considerable".
#[derive(Debug, Clone, Copy, Default)]
pub struct RamZzz;

impl RamZzz {
    /// Fraction of runtime spent monitoring page accesses and migrating.
    const OVERHEAD_FRACTION: f64 = 0.03;
    /// How close to the ideal (footprint-packed) idle-rank count the
    /// migration gets.
    const CONSOLIDATION_EFFICIENCY: Fraction = Fraction::lit(0.9);
}

impl PowerGovernor for RamZzz {
    fn name(&self) -> &'static str {
        "RAMZzz"
    }

    fn evaluate(&self, ctx: &GovernorContext) -> GovernorOutcome {
        let sr = if ctx.interleaved {
            // Interleaving spreads every page across all ranks: migrating
            // pages cannot create an idle rank.
            ctx.measured_sr_fraction
        } else {
            // Hot/cold grouping parks cold ranks in self-refresh.
            let idle_ranks = ctx.ranks_touched_fraction().complement();
            (idle_ranks * Self::CONSOLIDATION_EFFICIENCY).max(ctx.measured_sr_fraction)
        };
        GovernorOutcome {
            gating: PowerGating::none(),
            sr_fraction: sr,
            pd_fraction: Fraction::ZERO,
            overhead_s: ctx.runtime_s * Self::OVERHEAD_FRACTION,
        }
    }
}

/// PASR: bank-granularity partial-array self-refresh (mobile DRAM). Banks
/// holding no data stop refreshing, but their peripheral/IO static power
/// remains. With interleaving every bank holds data, so nothing is gated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pasr;

impl PowerGovernor for Pasr {
    fn name(&self) -> &'static str {
        "PASR"
    }

    fn evaluate(&self, ctx: &GovernorContext) -> GovernorOutcome {
        let refresh_off = if ctx.interleaved {
            Fraction::ZERO
        } else {
            // Contiguous packing leaves trailing banks empty; refresh stops
            // at bank granularity.
            let total_banks = (ctx.ranks * ctx.banks_per_rank) as f64;
            let bank_bytes = ctx.capacity_bytes as f64 / total_banks;
            let used_banks = (ctx.footprint_bytes as f64 / bank_bytes).ceil();
            Fraction::new((1.0 - used_banks / total_banks).max(0.0))
                .expect("invariant: one minus a non-negative ratio, floored at 0")
        };
        GovernorOutcome {
            gating: PowerGating::pasr(refresh_off),
            sr_fraction: ctx.measured_sr_fraction,
            pd_fraction: Fraction::ZERO,
            overhead_s: 0.0,
        }
    }
}

/// GreenDIMM expressed in the same governor interface: deep power-down of
/// the off-lined fraction, independent of interleaving.
#[derive(Debug, Clone, Copy)]
pub struct GreenDimmGovernor {
    /// Runtime overhead fraction measured by the co-simulation.
    pub overhead_fraction: f64,
}

impl Default for GreenDimmGovernor {
    fn default() -> Self {
        GreenDimmGovernor {
            overhead_fraction: 0.01,
        }
    }
}

impl PowerGovernor for GreenDimmGovernor {
    fn name(&self) -> &'static str {
        "GreenDIMM"
    }

    fn evaluate(&self, ctx: &GovernorContext) -> GovernorOutcome {
        GovernorOutcome {
            gating: PowerGating::deep_pd(ctx.offline_fraction),
            sr_fraction: ctx.measured_sr_fraction,
            pd_fraction: Fraction::ZERO,
            // Failed offline attempts (pinned pages, aborted migrations)
            // cost daemon time on top of the steady-state overhead.
            overhead_s: ctx.runtime_s * self.overhead_fraction
                + ctx.offline_failures.time_lower_bound_s(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(interleaved: bool) -> GovernorContext {
        GovernorContext {
            interleaved,
            footprint_bytes: 1200 << 20, // 1.2 GB, the paper's observation
            capacity_bytes: 64 << 30,
            ranks: 16,
            banks_per_rank: 16,
            measured_sr_fraction: Fraction::lit(if interleaved { 0.0 } else { 0.54 }),
            runtime_s: 100.0,
            offline_fraction: Fraction::lit(0.8),
            offline_failures: OfflineFailureBreakdown::default(),
        }
    }

    #[test]
    fn srf_only_reflects_measurement() {
        let g = SrfOnly;
        assert_eq!(g.evaluate(&ctx(true)).sr_fraction.get(), 0.0);
        assert_eq!(g.evaluate(&ctx(false)).sr_fraction.get(), 0.54);
        assert_eq!(g.evaluate(&ctx(true)).overhead_s, 0.0);
    }

    #[test]
    fn ramzzz_helps_only_without_interleaving() {
        let g = RamZzz;
        let with = g.evaluate(&ctx(true));
        let without = g.evaluate(&ctx(false));
        assert_eq!(with.sr_fraction.get(), 0.0, "interleaving defeats RAMZzz");
        // 1.2 GB fits in 1 of 16 ranks: ~15/16 ranks idle, 90% efficiency.
        assert!(without.sr_fraction.get() > 0.8);
        assert!(with.overhead_s > 0.0, "monitoring overhead always paid");
    }

    #[test]
    fn pasr_gates_refresh_only_without_interleaving() {
        let g = Pasr;
        let with = g.evaluate(&ctx(true));
        assert_eq!(with.gating.refresh_multiplier(), 1.0);
        let without = g.evaluate(&ctx(false));
        assert!(without.gating.refresh_multiplier() < 0.1);
        // Static power untouched either way.
        assert_eq!(without.gating.background_multiplier(), 1.0);
    }

    #[test]
    fn greendimm_gates_regardless_of_interleaving() {
        let g = GreenDimmGovernor::default();
        for interleaved in [true, false] {
            let out = g.evaluate(&ctx(interleaved));
            assert!(out.gating.background_multiplier() < 0.3);
            assert!(out.gating.refresh_multiplier() < 0.3);
        }
    }

    #[test]
    fn ranks_touched_fraction_quantizes_up() {
        let c = ctx(false);
        // 1.2 GB in 4 GB ranks: 1 rank touched.
        assert!((c.ranks_touched_fraction().get() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn offline_failures_charge_extra_overhead() {
        let g = GreenDimmGovernor::default();
        let clean = g.evaluate(&ctx(true));
        let mut faulted = ctx(true);
        faulted.offline_failures = OfflineFailureBreakdown {
            pinned: 100,
            kernel_block: 50,
            migration_aborted: 10,
        };
        assert_eq!(faulted.offline_failures.total(), 160);
        let out = g.evaluate(&faulted);
        // 150 EBUSY × 6 µs + 10 EAGAIN × 4.37 ms on top of the clean run.
        let expected = 150.0 * 6e-6 + 10.0 * 4.37e-3;
        assert!((out.overhead_s - clean.overhead_s - expected).abs() < 1e-12);
    }

    #[test]
    fn governor_names() {
        assert_eq!(SrfOnly.name(), "srf_only");
        assert_eq!(RamZzz.name(), "RAMZzz");
        assert_eq!(Pasr.name(), "PASR");
        assert_eq!(GreenDimmGovernor::default().name(), "GreenDIMM");
    }
}
