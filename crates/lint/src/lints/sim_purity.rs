//! `sim-purity`: AST-level determinism hazards.
//!
//! Entropy-seeded RNG construction and wall-clock reads, matched on
//! tokens rather than raw lines. Because
//! the lexer never hands comments or string contents to lints, prose
//! mentioning the hazards needs no special-casing, and hazards behind
//! `cfg` attributes are still caught (the token stream does not expand
//! or drop cfg'd code).
//!
//! The rule tables below spell the banned names in plain string
//! literals: in *this* crate's own source they lex as `Str` tokens, not
//! identifiers, so the analyzer does not flag itself.

use super::{is_path_sep, Lint};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;

/// Banned two-segment paths (`Seg0::seg1`). Kept in sync with
/// `clippy.toml`'s `disallowed-methods`; a test cross-checks the two.
pub const BANNED_PATHS: &[(&str, &str, &str)] = &[
    (
        "Instant",
        "now",
        "wall-clock read; simulated time comes from SimTime/cycle counters",
    ),
    (
        "SystemTime",
        "now",
        "wall-clock read; simulated time comes from SimTime",
    ),
    (
        "rand",
        "random",
        "entropy-seeded value; derive from the configured seed instead",
    ),
];

/// Banned callables regardless of path/receiver position.
pub const BANNED_CALLS: &[(&str, &str)] = &[
    (
        "thread_rng",
        "thread-local entropy RNG; use gd_types::rng with a fixed seed",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG; seed from the configuration instead",
    ),
];

/// True when this rule's catalog covers a fully qualified method path
/// like `std::time::Instant::now` (used by the clippy.toml cross-check).
pub fn covers_path(path: &str) -> bool {
    let mut segs = path.rsplit("::");
    let (Some(last), Some(prev)) = (segs.next(), segs.next()) else {
        return false;
    };
    BANNED_PATHS
        .iter()
        .any(|(a, b, _)| *a == prev && *b == last)
        || BANNED_CALLS.iter().any(|(name, _)| *name == last)
}

pub struct SimPurity;

impl Lint for SimPurity {
    fn id(&self) -> &'static str {
        "sim-purity"
    }

    fn rationale(&self) -> &'static str {
        "every result must be a pure function of configuration and seed; \
         wall-clock reads and entropy RNGs break replayability"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            let TokKind::Ident(name) = &t.kind else {
                continue;
            };
            // `Seg0::seg1` path expressions (e.g. a monotonic-clock read).
            for (seg0, seg1, why) in BANNED_PATHS {
                if name == seg0
                    && is_path_sep(tokens, i + 1)
                    && tokens.get(i + 3).is_some_and(|t| t.is_ident(seg1))
                {
                    out.push(Finding::new(
                        self.id(),
                        file,
                        t.line,
                        t.col,
                        format!("`{seg0}::{seg1}` — {why}"),
                        self.rationale(),
                    ));
                }
            }
            // Bare or method-position calls (`thread_rng()`,
            // `SmallRng::from_entropy()`, `rng.from_entropy()`).
            for (call, why) in BANNED_CALLS {
                if name == call
                    && tokens
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Open('('))
                {
                    // Both free-fn position and method/path position are
                    // hazards; only skip a definition (`fn thread_rng`),
                    // which the workspace never has but fixtures might
                    // exercise.
                    let is_def = i > 0 && tokens[i - 1].is_ident("fn");
                    if !is_def {
                        out.push(Finding::new(
                            self.id(),
                            file,
                            t.line,
                            t.col,
                            format!("`{call}(…)` — {why}"),
                            self.rationale(),
                        ));
                    }
                }
            }
        }
    }
}
