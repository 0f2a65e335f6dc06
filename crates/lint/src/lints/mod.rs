//! The lint catalog and shared expression-walking helpers.
//!
//! Each lint is a [`Lint`] implementation over a parsed [`SourceFile`];
//! the engine (in `lib.rs`) runs every registered lint and then applies
//! `gd-lint: allow(...)` suppressions centrally, so lints only ever push
//! raw findings.

pub mod float_order;
pub mod map_order;
pub mod panic_path;
pub mod silent_clamp;
pub mod sim_purity;
pub mod unit_safety;

use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;
use crate::Finding;

/// A single static-analysis rule.
pub trait Lint {
    /// Stable rule id, as used in diagnostics and allow directives
    /// (kebab-case, e.g. `panic-path`).
    fn id(&self) -> &'static str;
    /// One-line rationale shown with every diagnostic.
    fn rationale(&self) -> &'static str;
    /// Pushes findings for `file`; suppression is handled by the caller.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// All shipped lints, in catalog order.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(unit_safety::UnitSafety),
        Box::new(panic_path::PanicPath),
        Box::new(float_order::FloatOrder),
        Box::new(sim_purity::SimPurity),
        Box::new(silent_clamp::SilentClamp),
        Box::new(map_order::MapOrder),
    ]
}

/// True when the file lives under one of the given workspace-relative
/// crate prefixes.
pub fn in_scope(file: &SourceFile, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| file.rel_path.starts_with(p))
}

/// True when `tokens[i]` and `tokens[i + 1]` form a `::` path separator.
pub fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// Given the index of a `Close` token, finds the matching `Open` index
/// by scanning the match table (linear in the table, fine at file scale).
pub fn open_of(file: &SourceFile, close_idx: usize) -> Option<usize> {
    file.match_close
        .iter()
        .find(|&(_, &c)| c == close_idx)
        .map(|(&o, _)| o)
}

/// Walks backwards from `i` (exclusive) over one postfix expression —
/// balanced groups, `.` chains, `::` paths — and returns the indices of
/// the identifier tokens that make it up, innermost-last. Used to answer
/// "what is being cast / indexed / iterated?".
///
/// Example: for `self.cfg.timing.burst_cycles() as f64`, called at the
/// index of `as`, returns the indices of `self`, `cfg`, `timing`,
/// `burst_cycles`.
pub fn postfix_chain_idents(file: &SourceFile, i: usize) -> Vec<usize> {
    let tokens = &file.tokens;
    let mut idents = Vec::new();
    let mut j = i;
    while let Some(k) = j.checked_sub(1) {
        match &tokens[k].kind {
            TokKind::Close(_) => {
                // Skip the balanced group (call args, index expr); also
                // collect idents inside it so `(a + b) as f64` sees both.
                let Some(open) = open_of(file, k) else { break };
                for (idx, t) in tokens.iter().enumerate().take(k).skip(open + 1) {
                    if matches!(t.kind, TokKind::Ident(_)) {
                        idents.push(idx);
                    }
                }
                j = open;
            }
            TokKind::Ident(_) => {
                idents.push(k);
                j = k;
            }
            TokKind::Int(_) | TokKind::Float(_) => {
                j = k;
            }
            TokKind::Punct('.') | TokKind::Punct('?') => {
                j = k;
            }
            TokKind::Punct(':') => {
                // Only continue through a full `::`; a single `:` ends
                // the expression (type ascription, struct field).
                if k >= 1 && tokens[k - 1].is_punct(':') {
                    j = k - 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    idents.reverse();
    idents
}

/// Lowercases an identifier once for the name heuristics.
pub fn lower(tokens: &[Token], i: usize) -> String {
    tokens[i].ident().unwrap_or("").to_ascii_lowercase()
}
