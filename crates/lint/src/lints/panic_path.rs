//! `panic-path`: no unexplained panics in the hot simulation crates.
//!
//! Fleet-scale runs (thousands of simulated hosts per sweep) turn any
//! latent panic into a debugging session with no backtrace context. In
//! the hot crates this rule denies:
//!
//! - `.unwrap()` — convert to `.expect("invariant: …")` naming the
//!   invariant, or return an error the caller can act on;
//! - `.expect("")` — an empty message is an unwrap with extra steps;
//! - indexing with a *computed* index (`v[i + 1]`, `&x[a..a + n]`) —
//!   arithmetic in an index is the classic off-by-one panic; use
//!   `.get()`/`.get_mut()` or hoist the arithmetic behind a checked
//!   helper. Plain `v[i]` with a loop-bound identifier is allowed: the
//!   workspace's flat-array hot paths (ROADMAP item 2) depend on it.
//!
//! Test code (`#[cfg(test)]`, `#[test]`) and harness files (tests/,
//! benches/, examples/, src/bin/, main.rs) are structurally exempt:
//! panicking fast is correct there.

use super::{in_scope, Lint};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;

/// Crates whose non-test code must be panic-disciplined.
pub const HOT_CRATES: &[&str] = &[
    "crates/dram",
    "crates/mmsim",
    "crates/ksm",
    "crates/core",
    "crates/fleet",
    "crates/power",
];

/// Keywords that can directly precede `[` without making it an index
/// expression (e.g. `&mut [T]`, `return [a, b]`).
const NON_POSTFIX_KEYWORDS: &[&str] = &[
    "mut", "ref", "dyn", "impl", "in", "return", "break", "continue", "else", "as", "move",
    "static", "const", "where", "for", "if", "while", "match", "loop", "let", "fn", "pub", "use",
    "enum", "struct", "trait", "type", "mod", "unsafe", "box", "await", "yield",
];

pub struct PanicPath;

impl Lint for PanicPath {
    fn id(&self) -> &'static str {
        "panic-path"
    }

    fn rationale(&self) -> &'static str {
        "hot simulation loops must not panic without naming the violated \
         invariant; at fleet scale an anonymous unwrap is undebuggable"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !in_scope(file, HOT_CRATES) || file.is_harness_file() {
            return;
        }
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            match &t.kind {
                TokKind::Ident(name) if name == "unwrap" => {
                    // `.unwrap()` with no arguments; `unwrap_or` etc. are
                    // separate identifiers and never match.
                    let is_method = i > 0 && tokens[i - 1].is_punct('.');
                    let empty_args = tokens
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Open('('))
                        && tokens
                            .get(i + 2)
                            .is_some_and(|t| t.kind == TokKind::Close(')'));
                    if is_method && empty_args {
                        out.push(Finding::new(
                            self.id(),
                            file,
                            t.line,
                            t.col,
                            "`.unwrap()` in a hot simulation crate; use \
                             `.expect(\"invariant: …\")` or return an error"
                                .to_string(),
                            self.rationale(),
                        ));
                    }
                }
                TokKind::Ident(name) if name == "expect" => {
                    let is_method = i > 0 && tokens[i - 1].is_punct('.');
                    let empty_msg = tokens
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Open('('))
                        && matches!(tokens.get(i + 2).map(|t| &t.kind),
                            Some(TokKind::Str(s)) if s.is_empty())
                        || tokens
                            .get(i + 1)
                            .is_some_and(|t| t.kind == TokKind::Open('('))
                            && tokens
                                .get(i + 2)
                                .is_some_and(|t| t.kind == TokKind::Close(')'));
                    if is_method && empty_msg {
                        out.push(Finding::new(
                            self.id(),
                            file,
                            t.line,
                            t.col,
                            "`.expect(\"\")` without a message; name the violated invariant"
                                .to_string(),
                            self.rationale(),
                        ));
                    }
                }
                TokKind::Open('[') if self.is_computed_index(file, i) => {
                    out.push(Finding::new(
                        self.id(),
                        file,
                        t.line,
                        t.col,
                        "indexing with a computed index can panic; use \
                         `.get()`/`.get_mut()` or a checked helper"
                            .to_string(),
                        self.rationale(),
                    ));
                }
                _ => {}
            }
        }
    }
}

impl PanicPath {
    /// True when `[` at `i` is an index expression whose index contains
    /// arithmetic (`+ - * / %`) or nested indexing.
    fn is_computed_index(&self, file: &SourceFile, i: usize) -> bool {
        let tokens = &file.tokens;
        // Postfix position: the `[` must directly follow an expression
        // tail (identifier that is not a keyword, closing group, or `?`).
        let postfix = i > 0
            && match &tokens[i - 1].kind {
                TokKind::Ident(name) => !NON_POSTFIX_KEYWORDS.contains(&name.as_str()),
                TokKind::Close(')') | TokKind::Close(']') => true,
                TokKind::Punct('?') => true,
                _ => false,
            };
        if !postfix {
            return false;
        }
        let Some(&end) = file.match_close.get(&i) else {
            return false;
        };
        // `%` is deliberately absent: `v[i % v.len()]` is a bounded (and
        // common) pattern, while `+ - * /` are the off-by-one classics.
        // An operator only counts when it is *binary* — preceded by an
        // expression tail — so derefs (`v[*i]`) and unary minus stay legal.
        (i + 1..end).any(|k| match tokens[k].kind {
            TokKind::Punct('+' | '-' | '*' | '/') => matches!(
                tokens[k - 1].kind,
                TokKind::Ident(_)
                    | TokKind::Int(_)
                    | TokKind::Float(_)
                    | TokKind::Close(_)
                    | TokKind::Punct('?')
            ),
            TokKind::Open('[') => true,
            _ => false,
        })
    }
}
