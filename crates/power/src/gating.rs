//! Power-gating descriptors: how much of the DRAM's refresh and
//! peripheral/static power a management policy has turned off.

use gd_types::Fraction;

/// Residual power fraction of a deep-powered-down sub-array group, from the
/// paper's circuit analysis: spare repair rows (< 2 % of rows) stay on and
/// the power switches leak slightly.
pub const DEEP_PD_RESIDUAL: Fraction = Fraction::lit(0.03);

/// Fractions of the DRAM array whose power components are disabled.
///
/// * PASR disables only refresh of masked banks (`refresh_off`), leaving
///   peripheral/IO static power intact.
/// * GreenDIMM's sub-array deep power-down disables both refresh and the
///   peripheral/IO static power of off-lined groups (`refresh_off` and
///   `background_off`), minus the [`DEEP_PD_RESIDUAL`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerGating {
    /// Fraction of the array whose refresh is stopped.
    pub refresh_off: Fraction,
    /// Fraction of the array whose background (peripheral/IO static) power
    /// is gated off.
    pub background_off: Fraction,
}

impl PowerGating {
    /// No gating (conventional operation).
    pub fn none() -> Self {
        PowerGating::default()
    }

    /// GreenDIMM gating with `fraction` of sub-array groups in deep
    /// power-down: refresh stops entirely for them, and background power is
    /// gated down to the residual.
    pub fn deep_pd(fraction: Fraction) -> Self {
        PowerGating {
            refresh_off: fraction,
            background_off: fraction * DEEP_PD_RESIDUAL.complement(),
        }
    }

    /// PASR-style gating: `fraction` of banks are excluded from refresh but
    /// keep consuming static power.
    pub fn pasr(fraction: Fraction) -> Self {
        PowerGating {
            refresh_off: fraction,
            background_off: Fraction::ZERO,
        }
    }

    /// Multiplier applied to refresh energy.
    pub fn refresh_multiplier(&self) -> f64 {
        self.refresh_off.complement().get()
    }

    /// Multiplier applied to standby/background power.
    pub fn background_multiplier(&self) -> f64 {
        self.background_off.complement().get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let g = PowerGating::none();
        assert_eq!(g.refresh_multiplier(), 1.0);
        assert_eq!(g.background_multiplier(), 1.0);
    }

    #[test]
    fn deep_pd_gates_both() {
        let g = PowerGating::deep_pd(Fraction::lit(0.5));
        assert!((g.refresh_multiplier() - 0.5).abs() < 1e-12);
        assert!(g.background_multiplier() < 0.53);
        assert!(g.background_multiplier() > 0.5);
    }

    #[test]
    fn pasr_gates_refresh_only() {
        let g = PowerGating::pasr(Fraction::lit(0.75));
        assert!((g.refresh_multiplier() - 0.25).abs() < 1e-12);
        assert_eq!(g.background_multiplier(), 1.0);
    }

    #[test]
    fn fractions_outside_unit_interval_are_rejected() {
        assert!(Fraction::new(2.0).map(PowerGating::deep_pd).is_err());
        assert!(Fraction::new(-1.0).map(PowerGating::pasr).is_err());
        let g = PowerGating::deep_pd(Fraction::ONE);
        assert_eq!(g.refresh_multiplier(), 0.0);
        let g = PowerGating::pasr(Fraction::ZERO);
        assert_eq!(g.refresh_multiplier(), 1.0);
    }
}
