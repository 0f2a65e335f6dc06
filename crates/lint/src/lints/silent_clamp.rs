//! `silent-clamp`: IDD current deltas must not be clamped to zero at the
//! use site.
//!
//! The DDR power model charges activity energy from differences of
//! datasheet currents (`idd4r - idd3n`, `idd5b - idd2n`, …). A negative
//! delta means the parameter set itself is inconsistent — a datasheet
//! typo or a bad override — and `.max(0.0)` at the subtraction site
//! turns that configuration error into a silent zero-energy term that
//! skews every figure downstream. The workspace contract is to *reject*
//! inconsistent parameters at construction, via `IddParams::validate`,
//! and compute plain deltas afterwards.
//!
//! The rule is deliberately narrow: `.max(0.0)` is flagged only when the
//! receiver expression names a rail current (`idd*` / `vdd*`). Clamps of
//! headroom fractions, runtimes, or other quantities — which are
//! legitimate saturation arithmetic — never trip it, and a genuinely
//! wanted clamp can carry `// gd-lint: allow(silent-clamp)`.

use super::{open_of, Lint};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeSet;

/// True when an identifier names a datasheet rail current or voltage.
fn is_current_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.starts_with("idd") || lower.starts_with("vdd") || lower.starts_with("ipp")
}

/// True for a float literal that is exactly zero (`0.0`, `0.`, `0.00`).
fn is_zero_float(text: &str) -> bool {
    text.trim_end_matches(|c: char| c.is_ascii_alphanumeric() && !c.is_ascii_digit())
        .parse::<f64>()
        .map(|v| v == 0.0)
        .unwrap_or(false)
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
        "clamping an IDD delta to zero hides an inconsistent parameter set; \
         reject it at construction (IddParams::validate) instead"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let tokens = &file.tokens;
        let bound = current_bound_idents(file);
        let carries_current = |name: &str| is_current_name(name) || bound.contains(name);
        for (i, t) in tokens.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            // `.max(0.0)`: identifier `max` preceded by `.`, whose single
            // argument is a zero float literal.
            if !t.is_ident("max") || i == 0 || !tokens[i - 1].is_punct('.') {
                continue;
            }
            let arg_zero = tokens
                .get(i + 1)
                .is_some_and(|o| o.kind == TokKind::Open('('))
                && matches!(tokens.get(i + 2).map(|t| &t.kind),
                    Some(TokKind::Float(s)) if is_zero_float(s))
                && tokens
                    .get(i + 3)
                    .is_some_and(|c| matches!(c.kind, TokKind::Close(')')));
            if !arg_zero {
                continue;
            }
            // Receiver evidence: walk the postfix expression backwards from
            // the `.` and look for a rail-current name. The walk mirrors
            // `postfix_chain_idents` but keeps the receiver's span so `-`
            // stays visible in diagnostics context.
            let mut j = i - 1; // index of the `.`
            let mut current: Option<&str> = None;
            while let Some(k) = j.checked_sub(1) {
                match &tokens[k].kind {
                    TokKind::Close(_) => {
                        let Some(open) = open_of(file, k) else { break };
                        for t in tokens.iter().take(k).skip(open + 1) {
                            if let Some(name) = t.ident() {
                                if carries_current(name) {
                                    current = Some(name);
                                }
                            }
                        }
                        j = open;
                    }
                    TokKind::Ident(name) => {
                        if carries_current(name) {
                            current = Some(name);
                        }
                        j = k;
                    }
                    TokKind::Int(_) | TokKind::Float(_) => j = k,
                    TokKind::Punct('.') | TokKind::Punct('?') => j = k,
                    TokKind::Punct(':') if k >= 1 && tokens[k - 1].is_punct(':') => j = k - 1,
                    _ => break,
                }
            }
            if let Some(name) = current {
                out.push(Finding::new(
                    self.id(),
                    file,
                    t.line,
                    t.col,
                    format!(
                        "silent `.max(0.0)` clamp on rail-current expression \
                         (`{name}`); validate the parameter set at construction \
                         and compute the plain delta"
                    ),
                    self.rationale(),
                ));
            }
        }
    }
}
