//! Cross-crate invariant checking for the GreenDIMM workspace.
//!
//! The simulators in this workspace each maintain internal books (page
//! counters, buddy free lists, KSM sharing counts, deep power-down
//! registers). `gd-verify` states the properties those books must satisfy
//! *as data*, so that harnesses can run them continuously:
//!
//! * an [`Invariant`] is one checkable property of a subject type;
//! * a [`Checker`] is a registry of invariants over one subject, run in
//!   either [`Mode::Record`] (collect violations into [`CheckerStats`] and
//!   keep simulating) or [`Mode::Strict`] (error out on the first
//!   violation);
//! * the [`mm`], [`ksm`], and [`obs`] modules provide the standard
//!   invariant sets for the physical-memory simulator, the KSM simulator,
//!   and the GreenDIMM daemon's observable behaviour; [`faults`] covers
//!   the fault-recovery contract (quarantine backoff respected, degraded
//!   groups stay shallow); [`telemetry`] checks exported gd-obs data
//!   (residency histograms sum to elapsed sim time); [`fleet`] covers the
//!   cluster scheduler (VM conservation, host capacity caps).
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

/// How a [`Checker`] reacts to a violated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Collect violations into [`CheckerStats`] and keep going.
    #[default]
    Record,
    /// Return an error on the first violation (after recording it).
    Strict,
}

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant that fired.
    pub invariant: &'static str,
    /// What went wrong, with the numbers involved.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// A checkable property of a subject `S`.
///
/// Implementations push one [`Violation`] per distinct problem found; an
/// empty `out` after [`check`](Invariant::check) means the property holds.
pub trait Invariant<S: ?Sized> {
    /// Stable identifier, used in reports (convention: `area.property`).
    fn name(&self) -> &'static str;
    /// Checks `subject`, appending violations to `out`.
    fn check(&self, subject: &S, out: &mut Vec<Violation>);
}

/// Counters accumulated over a [`Checker`]'s lifetime.
#[derive(Debug, Clone, Default)]
pub struct CheckerStats {
    /// Individual invariant evaluations performed.
    pub checks_run: u64,
    /// Total violations found (also counts the one a strict checker
    /// errored on).
    pub violations: u64,
    /// Every violation seen, in discovery order.
    pub recorded: Vec<Violation>,
}

/// A registry of invariants over one subject type.
pub struct Checker<S: ?Sized> {
    mode: Mode,
    invariants: Vec<Box<dyn Invariant<S> + Send + Sync>>,
    /// Lifetime counters.
    pub stats: CheckerStats,
}

impl<S: ?Sized> fmt::Debug for Checker<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("mode", &self.mode)
            .field(
                "invariants",
                &self.invariants.iter().map(|i| i.name()).collect::<Vec<_>>(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

impl<S: ?Sized> Checker<S> {
    /// Creates an empty checker.
    pub fn new(mode: Mode) -> Self {
        Checker {
            mode,
            invariants: Vec::new(),
            stats: CheckerStats::default(),
        }
    }

    /// The failure mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Adds an invariant. Builder-style registration is available through
    /// [`with`](Checker::with).
    pub fn register(&mut self, invariant: Box<dyn Invariant<S> + Send + Sync>) {
        self.invariants.push(invariant);
    }

    /// Builder-style [`register`](Checker::register).
    #[must_use]
    pub fn with(mut self, invariant: Box<dyn Invariant<S> + Send + Sync>) -> Self {
        self.register(invariant);
        self
    }

    /// Number of registered invariants.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// True when no invariant is registered.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Runs every registered invariant against `subject`; returns the
    /// number of violations found in this run.
    ///
    /// # Errors
    ///
    /// In [`Mode::Strict`], returns [`GdError::InvalidState`] describing
    /// the first violation (all violations of the run are still recorded
    /// in [`CheckerStats`] for post-mortem inspection).
    pub fn run(&mut self, subject: &S) -> Result<usize> {
        let mut found = Vec::new();
        for inv in &self.invariants {
            self.stats.checks_run += 1;
            inv.check(subject, &mut found);
        }
        let n = found.len();
        self.stats.violations += n as u64;
        let first = found.first().cloned();
        self.stats.recorded.extend(found);
        match (self.mode, first) {
            (Mode::Strict, Some(v)) => {
                Err(GdError::InvalidState(format!("invariant violated: {v}")))
            }
            _ => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysFires;
    impl Invariant<u32> for AlwaysFires {
        fn name(&self) -> &'static str {
            "test.always"
        }
        fn check(&self, subject: &u32, out: &mut Vec<Violation>) {
            out.push(Violation {
                invariant: self.name(),
                detail: format!("subject was {subject}"),
            });
        }
    }

    struct NeverFires;
    impl Invariant<u32> for NeverFires {
        fn name(&self) -> &'static str {
            "test.never"
        }
        fn check(&self, _subject: &u32, _out: &mut Vec<Violation>) {}
    }

    #[test]
    fn record_mode_collects_and_continues() {
        let mut c = Checker::new(Mode::Record)
            .with(Box::new(AlwaysFires))
            .with(Box::new(NeverFires));
        assert_eq!(c.run(&7).unwrap(), 1);
        assert_eq!(c.run(&8).unwrap(), 1);
        assert_eq!(c.stats.checks_run, 4);
        assert_eq!(c.stats.violations, 2);
        assert_eq!(c.stats.recorded.len(), 2);
        assert!(c.stats.recorded[0].detail.contains('7'));
    }

    #[test]
    fn strict_mode_errors_but_still_records() {
        let mut c = Checker::new(Mode::Strict).with(Box::new(AlwaysFires));
        let err = c.run(&1).unwrap_err();
        assert!(err.to_string().contains("test.always"), "{err}");
        assert_eq!(c.stats.violations, 1);
        assert_eq!(c.stats.recorded.len(), 1);
    }

    #[test]
    fn clean_subject_passes_in_strict_mode() {
        let mut c = Checker::new(Mode::Strict).with(Box::new(NeverFires));
        assert_eq!(c.run(&1).unwrap(), 0);
        assert_eq!(c.stats.violations, 0);
    }

    #[test]
    fn empty_checker_is_vacuously_clean() {
        let mut c: Checker<u32> = Checker::new(Mode::Strict);
        assert!(c.is_empty());
        assert_eq!(c.run(&0).unwrap(), 0);
    }
}
