//! A checked share of a whole: [`Fraction`].
//!
//! GreenDIMM's savings are fractions — the share of the array whose
//! refresh stops, the share whose peripheral/IO power is gated, and the
//! state residencies the power model weighs. A `Fraction` is checked to
//! lie in `[0, 1]` once, where the value is set or measured, so the code
//! that consumes it never clamps.

use crate::error::{GdError, Result};
use std::fmt;
use std::ops::Mul;

/// An `f64` in `[0, 1]`. NaN and ±inf are never a `Fraction`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fraction(f64);

impl Fraction {
    /// Nothing.
    pub const ZERO: Fraction = Fraction(0.0);

    /// The whole.
    pub const ONE: Fraction = Fraction(1.0);

    /// Checks `v` into a fraction.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] when `v` is NaN, infinite or
    /// outside `[0, 1]`. `-0.0` is accepted and kept as it is.
    pub fn new(v: f64) -> Result<Fraction> {
        if (0.0..=1.0).contains(&v) {
            Ok(Fraction(v))
        } else {
            Err(GdError::InvalidConfig(format!(
                "fraction {v} outside [0, 1]"
            )))
        }
    }

    /// A fraction written as a literal. In a `const` an out-of-range
    /// value fails the build; elsewhere it panics, so use it only for
    /// values written in the source.
    pub const fn lit(v: f64) -> Fraction {
        assert!(0.0 <= v && v <= 1.0, "fraction literal outside [0, 1]");
        Fraction(v)
    }

    /// The value.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The rest of the whole, `1 − self`.
    pub const fn complement(self) -> Fraction {
        Fraction(1.0 - self.0)
    }

    /// The larger of two fractions.
    pub fn max(self, rhs: Fraction) -> Fraction {
        Fraction(self.0.max(rhs.0))
    }
}

/// The share `self` of the share `rhs`: a product of two values in
/// `[0, 1]` rounds to a value in `[0, 1]`.
impl Mul for Fraction {
    type Output = Fraction;
    fn mul(self, rhs: Fraction) -> Fraction {
        Fraction(self.0 * rhs.0)
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_exactly_the_unit_interval() {
        let cases = [
            (0.0, true),
            (-0.0, true),
            (0.5, true),
            (1.0, true),
            (f64::NAN, false),
            (f64::INFINITY, false),
            (f64::NEG_INFINITY, false),
            (1.0f64.next_up(), false),
            (0.0f64.next_down(), false),
        ];
        for (v, ok) in cases {
            match Fraction::new(v) {
                Ok(f) => {
                    assert!(ok, "{v} accepted");
                    assert_eq!(f.get().to_bits(), v.to_bits(), "{v} changed");
                }
                Err(e) => {
                    assert!(!ok, "{v} rejected: {e}");
                    assert_eq!(
                        e.to_string(),
                        format!("invalid configuration: fraction {v} outside [0, 1]")
                    );
                }
            }
        }
    }

    #[test]
    fn operations_stay_in_range() {
        let a = Fraction::lit(0.3);
        let b = Fraction::new(0.9).unwrap();
        assert_eq!(a.complement().get(), 1.0 - 0.3);
        assert_eq!((a * b).get(), 0.3 * 0.9);
        assert_eq!(a.max(b), b);
        assert_eq!(Fraction::ONE.complement(), Fraction::ZERO);
        assert_eq!(Fraction::default(), Fraction::ZERO);
        assert_eq!(a.to_string(), "0.3");
    }
}
