//! Cross-crate invariant checking for the GreenDIMM workspace.
//!
//! The simulators in this workspace each maintain internal books (page
//! counters, buddy free lists, KSM sharing counts, deep power-down
//! registers). `gd-verify` states the properties those books must satisfy
//! as plain functions: each takes its subject and returns one
//! [`Violation`] per distinct problem found, so an empty vector means the
//! property holds. [`strict`] is the one place a violation becomes an
//! error.
//!
//! * [`mm`], [`ksm`] and [`obs`] cover the physical-memory simulator, the
//!   KSM simulator, and the GreenDIMM daemon's observable behaviour;
//! * [`faults`] covers the fault-recovery contract (quarantine backoff
//!   respected, degraded groups stay shallow);
//! * [`telemetry`] checks exported gd-obs data (residency histograms sum
//!   to elapsed sim time);
//! * [`fleet`] covers the cluster scheduler (VM conservation, host
//!   capacity caps).
//!
//! The DRAM command-protocol validator lives with the command log it
//! replays, in [`gd_dram::validate`]; this crate covers everything above
//! the memory controller. The source-level determinism gate that backs
//! the workspace clippy configuration is gd-lint (`crates/lint`).

pub mod faults;
pub mod fleet;
pub mod ksm;
pub mod mm;
pub mod obs;
pub mod telemetry;

use gd_types::{GdError, Result};
use std::fmt;

/// How a caller that takes `Option<Mode>` verifies: `None` runs no
/// invariant, `Some(Mode::Strict)` runs them all and fails on the first
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Return an error on the first violation.
    Strict,
}

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant that fired (convention: `area.property`).
    pub invariant: &'static str,
    /// What went wrong, with the numbers involved.
    pub detail: String,
}

impl Violation {
    /// A violation of `invariant`.
    pub fn new(invariant: &'static str, detail: String) -> Self {
        Violation { invariant, detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Turns the first of `violations` into an error.
///
/// # Errors
///
/// [`GdError::InvalidState`] `invariant violated: [name] detail` when
/// `violations` is not empty.
pub fn strict(violations: Vec<Violation>) -> Result<()> {
    match violations.first() {
        Some(v) => Err(GdError::InvalidState(format!("invariant violated: {v}"))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_reports_the_first_violation() {
        let err = strict(vec![
            Violation::new("test.first", "subject was 7".into()),
            Violation::new("test.second", "subject was 8".into()),
        ])
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            GdError::InvalidState("invariant violated: [test.first] subject was 7".into())
                .to_string()
        );
    }

    #[test]
    fn no_violation_is_clean() {
        strict(Vec::new()).unwrap();
    }
}
