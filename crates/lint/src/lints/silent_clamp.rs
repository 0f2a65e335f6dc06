//! `silent-clamp`: no value is clamped into range at its use site; its
//! range is checked where it is set.
//!
//! **IDD current deltas.** The DDR power model charges activity energy from differences of
//! datasheet currents (`idd4r - idd3n`, `idd5b - idd2n`, …). A negative
//! delta means the parameter set itself is inconsistent — a datasheet
//! typo or a bad override — and `.max(0.0)` at the subtraction site
//! turns that configuration error into a silent zero-energy term that
//! skews every figure downstream. The workspace contract is to *reject*
//! inconsistent parameters at construction, via `IddParams::validate`,
//! and compute plain deltas afterwards.
//!
//! This part is deliberately narrow: `.max(0.0)` is flagged only when the
//! receiver expression names a rail current (`idd*` / `vdd*`). Clamps of
//! headroom fractions, runtimes, or other quantities — which are
//! legitimate saturation arithmetic — never trip it.
//!
//! **Unit-interval clamps.** `.clamp(0.0, 1.0)` on any receiver turns a
//! share outside `[0, 1]`, a caller bug, into a plausible number; a share
//! is a `gd_types::Fraction`, checked once where it is set or measured.
//! Other bounds (`clamp(0.05, 1.0)`, `clamp(0.0, 100.0)`) pass.
//!
//! Test code is exempt, and a genuinely wanted clamp can carry
//! `// gd-lint: allow(silent-clamp)`.

use super::{postfix_chain_idents, Lint};
use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeSet;

/// True when an identifier names a datasheet rail current or voltage.
fn is_current_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.starts_with("idd") || lower.starts_with("vdd") || lower.starts_with("ipp")
}

/// True for a float literal token whose value is exactly `v` (`0.0`,
/// `0.00`, `1.0f64`, …).
fn is_float(tok: &Token, v: f64) -> bool {
    let TokKind::Float(text) = &tok.kind else {
        return false;
    };
    let digits = text
        .strip_suffix("f64")
        .or_else(|| text.strip_suffix("f32"));
    digits.unwrap_or(text).parse::<f64>().is_ok_and(|x| x == v)
}

/// True when `tokens[i]` is the method name of a `.name(args…)` call whose
/// arguments are exactly the float literals `args` (`.max(0.0)`,
/// `.clamp(0.0, 1.0)`).
fn is_literal_call(tokens: &[Token], i: usize, name: &str, args: &[f64]) -> bool {
    let n = 2 * args.len();
    let Some(call) = tokens.get(i.wrapping_sub(1)..i + 2 + n) else {
        return false;
    };
    call[0].is_punct('.')
        && call[1].is_ident(name)
        && call[2].kind == TokKind::Open('(')
        && args.iter().enumerate().all(|(k, &v)| {
            is_float(&call[3 + 2 * k], v) && (k + 1 == args.len() || call[4 + 2 * k].is_punct(','))
        })
        && matches!(call[2 + n].kind, TokKind::Close(')'))
}

/// Identifiers bound from an expression that names a rail current
/// (`let delta = idd.idd4r - idd.idd3n;`): the clamp is just as silent one
/// binding away, so the names carry the evidence forward.
fn current_bound_idents(file: &SourceFile) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        // `name = <expr>` with a plain `=` (not `==`, `<=`, `+=`, …).
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('='))
            || tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            continue;
        }
        let rhs_has_current = tokens
            .iter()
            .skip(i + 2)
            .take_while(|t| !matches!(t.kind, TokKind::Punct(';') | TokKind::Open('{')))
            .any(|t| t.ident().is_some_and(is_current_name));
        if rhs_has_current {
            names.insert(name.clone());
        }
    }
    names
}

pub struct SilentClamp;

impl Lint for SilentClamp {
    fn id(&self) -> &'static str {
        "silent-clamp"
    }

    fn rationale(&self) -> &'static str {
        "a use-site clamp hides an out-of-range value: reject inconsistent IDD \
         parameters at construction (IddParams::validate) and check shares once \
         as a gd_types::Fraction"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let tokens = &file.tokens;
        let bound = current_bound_idents(file);
        let carries_current = |name: &str| is_current_name(name) || bound.contains(name);
        for (i, t) in tokens.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let unit_clamp = is_literal_call(tokens, i, "clamp", &[0.0, 1.0]);
            if !unit_clamp && !is_literal_call(tokens, i, "max", &[0.0]) {
                continue;
            }
            // Receiver evidence: the last rail-current name met walking the
            // receiver's postfix expression back from the `.`.
            let current = postfix_chain_idents(file, i - 1)
                .into_iter()
                .filter_map(|k| tokens[k].ident())
                .find(|name| carries_current(name));
            let message = if unit_clamp {
                "silent `.clamp(0.0, 1.0)`; carry the share as a `gd_types::Fraction`, \
                 checked where it is set or measured"
                    .to_string()
            } else if let Some(name) = current {
                format!(
                    "silent `.max(0.0)` clamp on rail-current expression \
                     (`{name}`); validate the parameter set at construction \
                     and compute the plain delta"
                )
            } else {
                continue;
            };
            out.push(Finding::new(
                self.id(),
                file,
                t.line,
                t.col,
                message,
                self.rationale(),
            ));
        }
    }
}
