//! Sanity invariants on governor outcomes.
//!
//! Every [`PowerGovernor`](crate::PowerGovernor) produces residency
//! fractions and gating fractions that feed straight into the energy
//! integration. Each is a [`Fraction`](gd_types::Fraction), so it lies in
//! `[0, 1]` by construction; what the types cannot say — that the
//! residencies sum to at most 1, and that the charged overhead is a
//! plausible time — [`check`] states as `governor.sanity` over one
//! `(context, outcome)` pair; the figure harness runs it on every
//! evaluation under `--strict-validate` and turns a violation into an
//! error with [`gd_verify::strict`].

use crate::{GovernorContext, GovernorOutcome};
use gd_types::Fraction;
use gd_verify::Violation;

/// `governor.sanity`, the physical sanity of one governor outcome:
/// the self-refresh and power-down residencies sum to at most 1, checked
/// by [`GovernorOutcome::awake_fraction`] as the energy evaluation checks
/// it, so an outcome passes exactly when it can be evaluated; overhead
/// is non-negative and finite, and an off-lining governor charges at least
/// the failure time it observed.
pub fn check(ctx: &GovernorContext, o: &GovernorOutcome) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut bad = |detail: String| out.push(Violation::new("governor.sanity", detail));
    if o.awake_fraction().is_err() {
        let residency = o.sr_fraction.get() + o.pd_fraction.get();
        bad(format!("sr + pd residency = {residency} exceeds 1"));
    }
    if !o.overhead_s.is_finite() || o.overhead_s < 0.0 {
        bad(format!(
            "overhead_s = {} not a non-negative time",
            o.overhead_s
        ));
    }
    if ctx.runtime_s > 0.0 && o.overhead_s > 10.0 * ctx.runtime_s {
        bad(format!(
            "overhead_s = {} implausible against runtime_s = {}",
            o.overhead_s, ctx.runtime_s
        ));
    }
    // An off-lining governor must charge at least the detection time
    // the observed failures imply (Table 3 lower bound).
    if ctx.offline_fraction > Fraction::ZERO
        && o.overhead_s + 1e-12 < ctx.offline_failures.time_lower_bound_s()
    {
        bad(format!(
            "overhead_s = {} below failure time lower bound {} ({} failed offlines)",
            o.overhead_s,
            ctx.offline_failures.time_lower_bound_s(),
            ctx.offline_failures.total()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreenDimmGovernor, OfflineFailureBreakdown, Pasr, PowerGovernor, RamZzz, SrfOnly};
    use gd_power::PowerGating;
    use gd_verify::strict;

    fn ctx(interleaved: bool) -> GovernorContext {
        GovernorContext {
            interleaved,
            footprint_bytes: 1200 << 20,
            capacity_bytes: 64 << 30,
            ranks: 16,
            banks_per_rank: 16,
            measured_sr_fraction: Fraction::lit(if interleaved { 0.0 } else { 0.54 }),
            runtime_s: 100.0,
            offline_fraction: Fraction::lit(0.8),
            offline_failures: OfflineFailureBreakdown::default(),
        }
    }

    /// A governor that returns a fixed outcome, whatever the context.
    struct Fixed(GovernorOutcome);
    impl PowerGovernor for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn evaluate(&self, _ctx: &GovernorContext) -> GovernorOutcome {
            self.0
        }
    }

    #[test]
    fn all_stock_governors_pass_strict() {
        let governors: [&dyn PowerGovernor; 4] =
            [&SrfOnly, &RamZzz, &Pasr, &GreenDimmGovernor::default()];
        let mut checked = 0;
        for g in governors {
            for interleaved in [true, false] {
                let c = ctx(interleaved);
                strict(check(&c, &g.evaluate(&c))).unwrap();
                checked += 1;
            }
        }
        assert_eq!(checked, 8);
    }

    /// A governor that claims more than 100% residency is rejected.
    #[test]
    fn insane_outcome_is_caught() {
        let broken = Fixed(GovernorOutcome {
            gating: PowerGating::none(),
            sr_fraction: Fraction::lit(0.8),
            pd_fraction: Fraction::lit(0.7), // sums to 1.5
            overhead_s: -1.0,
        });
        let c = ctx(true);
        let v = check(&c, &broken.evaluate(&c));
        // The residency sum, the negative overhead, and the overhead below
        // the (zero) failure time lower bound.
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.invariant == "governor.sanity"));
        assert!(v[0].detail.contains("exceeds 1"), "{v:?}");
        assert!(v[1].detail.contains("not a non-negative time"), "{v:?}");
        assert!(v[2].detail.contains("lower bound"), "{v:?}");
        assert!(strict(v).is_err());
    }

    /// A gating fraction outside `[0, 1]` cannot reach the check: a
    /// governor cannot build one.
    #[test]
    fn gating_fraction_outside_unit_interval_is_rejected() {
        let err = Fraction::new(1.5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: fraction 1.5 outside [0, 1]"
        );
        let err = Fraction::new(-0.25).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: fraction -0.25 outside [0, 1]"
        );
        let c = ctx(true);
        let in_range = Fixed(GovernorOutcome {
            gating: PowerGating {
                refresh_off: Fraction::lit(0.5),
                background_off: Fraction::ONE,
            },
            sr_fraction: Fraction::ZERO,
            pd_fraction: Fraction::ZERO,
            overhead_s: 1.0,
        });
        strict(check(&c, &in_range.evaluate(&c))).unwrap();
    }

    /// `governor.sanity` rejects exactly the residency sums the energy
    /// evaluation rejects: a sum a hair above 1 fails both, and a sum of
    /// exactly 1 passes both.
    #[test]
    fn residency_sum_follows_the_energy_evaluation() {
        let outcome = |pd: f64| GovernorOutcome {
            gating: PowerGating::none(),
            sr_fraction: Fraction::lit(0.6),
            pd_fraction: Fraction::new(pd).unwrap(),
            overhead_s: 1.0,
        };
        let c = ctx(true);
        let above = outcome(0.4 + 1e-10);
        let sum = above.sr_fraction.get() + above.pd_fraction.get();
        assert!(sum > 1.0 && sum <= 1.0 + 1e-9, "{sum}");
        let v = check(&c, &above);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("exceeds 1"), "{v:?}");
        assert_eq!(
            above.awake_fraction().unwrap_err().to_string(),
            format!(
                "invalid configuration: self-refresh + power-down residency: \
                 fraction {sum} outside [0, 1]"
            )
        );
        let whole = outcome(0.4);
        assert_eq!(whole.sr_fraction.get() + whole.pd_fraction.get(), 1.0);
        assert!(check(&c, &whole).is_empty());
        assert_eq!(whole.awake_fraction(), Ok(Fraction::ZERO));
    }

    /// An off-lining governor that ignores the failure time it observed is
    /// flagged: the charged overhead must cover the Table 3 lower bound.
    #[test]
    fn undercharged_failure_time_is_caught() {
        struct FreeLunch;
        impl PowerGovernor for FreeLunch {
            fn name(&self) -> &'static str {
                "free-lunch"
            }
            fn evaluate(&self, ctx: &GovernorContext) -> GovernorOutcome {
                GovernorOutcome {
                    gating: PowerGating::deep_pd(ctx.offline_fraction),
                    sr_fraction: Fraction::ZERO,
                    pd_fraction: Fraction::ZERO,
                    overhead_s: 0.0, // ignores ctx.offline_failures
                }
            }
        }
        let mut c = ctx(true);
        c.offline_failures = OfflineFailureBreakdown {
            pinned: 0,
            kernel_block: 0,
            migration_aborted: 100,
        };
        let err = strict(check(&c, &FreeLunch.evaluate(&c))).unwrap_err();
        assert!(err.to_string().contains("lower bound"), "{err}");
        // With no observed failures the same governor is fine.
        let clean = ctx(true);
        strict(check(&clean, &FreeLunch.evaluate(&clean))).unwrap();
    }
}
