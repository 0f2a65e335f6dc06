//! `float-order`: floating-point accumulation must iterate a provably
//! ordered source.
//!
//! Float addition is not associative, so summing values out of a
//! `HashMap`/`HashSet` iterator produces run-to-run (and
//! machine-to-machine) drift — exactly the nondeterminism the telemetry
//! byte-identity gate exists to prevent. This rule works at expression
//! level in every crate:
//!
//! - a `.sum()` / `.fold(…)` / `.product()` chain rooted at an
//!   identifier declared as `HashMap`/`HashSet` in the same file, and
//! - a `for … in <hash>.iter()/values()/… { … += … }` loop body,
//!
//! are flagged when the expression shows float evidence (an `f32`/`f64`
//! token or a float literal in the chain/body). Integer accumulation is
//! order-independent and stays legal, as does any accumulation over
//! `BTreeMap`, slices, or sorted vectors.
//!
//! Declarations are tracked per file (field `x: HashMap<…>`, binding
//! `let x = HashMap::new()`, parameters); cross-file type knowledge is
//! out of reach without full inference, which is why the `map-order`
//! rule bans `HashMap` outright in the sweep and telemetry crates.

use super::{postfix_chain_idents, Lint};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeSet;

/// Iterator-producing methods on hash collections.
const HASH_ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "into_values",
    "keys",
    "into_keys",
    "drain",
];

/// Accumulators whose result depends on iteration order for floats.
const ACCUMULATORS: &[&str] = &["sum", "fold", "product"];

pub struct FloatOrder;

impl Lint for FloatOrder {
    fn id(&self) -> &'static str {
        "float-order"
    }

    fn rationale(&self) -> &'static str {
        "float addition is not associative; accumulating over hash-order \
         iteration makes results differ run to run"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let hash_names = declared_hash_idents(file);
        if hash_names.is_empty() {
            return;
        }
        let float_names = declared_float_idents(file);
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            let TokKind::Ident(name) = &t.kind else {
                continue;
            };
            // Chain form: `<hash>.values().map(…).sum::<f64>()`.
            if ACCUMULATORS.contains(&name.as_str())
                && i > 0
                && tokens[i - 1].is_punct('.')
                && tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Open('(') || t.is_punct(':'))
            {
                let chain = postfix_chain_idents(file, i);
                let rooted_in_hash = chain
                    .iter()
                    .any(|&k| tokens[k].ident().is_some_and(|n| hash_names.contains(n)))
                    && chain
                        .iter()
                        .any(|&k| tokens[k].ident().is_some_and(|n| HASH_ITERS.contains(&n)));
                if rooted_in_hash
                    && float_evidence(file, *chain.first().unwrap_or(&i), i + 8, &float_names)
                {
                    out.push(Finding::new(
                        self.id(),
                        file,
                        t.line,
                        t.col,
                        format!(
                            "float `{name}` over hash-order iteration; collect into \
                             a sorted Vec or use a BTreeMap before accumulating"
                        ),
                        self.rationale(),
                    ));
                }
            }
            // Loop form: `for v in hash.values() { acc += …; }`.
            if name == "for" {
                if let Some(f) = self.check_for_loop(file, i, &hash_names, &float_names) {
                    out.push(f);
                }
            }
        }
    }
}

impl FloatOrder {
    fn check_for_loop(
        &self,
        file: &SourceFile,
        for_idx: usize,
        hash_names: &BTreeSet<String>,
        float_names: &BTreeSet<String>,
    ) -> Option<Finding> {
        let tokens = &file.tokens;
        // `for<'a>` HRTB is not a loop.
        if tokens.get(for_idx + 1).is_some_and(|t| t.is_punct('<')) {
            return None;
        }
        // Find `in` and the body `{` at top level relative to the `for`.
        let mut depth = 0usize;
        let mut in_idx = None;
        let mut body_open = None;
        for (j, t) in tokens.iter().enumerate().skip(for_idx + 1) {
            match &t.kind {
                TokKind::Open('{') if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth = depth.saturating_sub(1),
                TokKind::Ident(s) if s == "in" && depth == 0 && in_idx.is_none() => {
                    in_idx = Some(j);
                }
                _ => {}
            }
        }
        let (in_idx, body_open) = (in_idx?, body_open?);
        let body_close = *file.match_close.get(&body_open)?;
        // The iterated source must mention a hash-declared name; an
        // explicit iteration method strengthens it but `for (k, v) in
        // &map` has none, so the name alone is the trigger.
        let src = &tokens[in_idx + 1..body_open];
        let src_is_hash = src
            .iter()
            .any(|t| t.ident().is_some_and(|n| hash_names.contains(n)));
        if !src_is_hash {
            return None;
        }
        // Look for `+=` / `-=` / `*=` on a float in the body. Evidence
        // is judged on the accumulator's own *statement* so an unrelated
        // float comparison elsewhere in the body cannot convict an
        // integer counter.
        for abs in body_open + 1..body_close {
            if matches!(tokens[abs].kind, TokKind::Punct('+' | '-' | '*'))
                && tokens.get(abs + 1).is_some_and(|n| n.is_punct('='))
            {
                let stmt_start = (body_open + 1..abs)
                    .rev()
                    .find(|&k| {
                        matches!(
                            tokens[k].kind,
                            TokKind::Punct(';') | TokKind::Open('{') | TokKind::Close('}')
                        )
                    })
                    .map_or(body_open + 1, |k| k + 1);
                let stmt_end = (abs..body_close)
                    .find(|&k| tokens[k].is_punct(';'))
                    .unwrap_or(body_close);
                if float_evidence(file, stmt_start, stmt_end, float_names) {
                    return Some(Finding::new(
                        self.id(),
                        file,
                        tokens[abs].line,
                        tokens[abs].col,
                        "float accumulation inside a hash-order loop; iterate a \
                         BTreeMap or sort the values first"
                            .to_string(),
                        self.rationale(),
                    ));
                }
            }
        }
        None
    }
}

/// Identifiers declared in this file with a `HashMap`/`HashSet` type or
/// initializer: `name: HashMap<…>` (fields, params, lets) and
/// `let name = HashMap::new()` / `HashSet::from(…)`.
fn declared_hash_idents(file: &SourceFile) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        let TokKind::Ident(ty) = &t.kind else {
            continue;
        };
        if ty != "HashMap" && ty != "HashSet" {
            continue;
        }
        // Walk back over the path prefix (`std::collections::`).
        let mut j = i;
        while j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
            j -= 2;
            if j >= 1 && matches!(tokens[j - 1].kind, TokKind::Ident(_)) {
                j -= 1;
            }
        }
        // Skip type wrappers between the declaration separator and the
        // path: `&`, `&mut`, lifetimes, and generic shells such as
        // `Option<` / `Arc<`.
        while let Some(k) = j.checked_sub(1) {
            match &tokens[k].kind {
                TokKind::Punct('&') | TokKind::Punct('<') | TokKind::Lifetime(_) => j = k,
                TokKind::Ident(s) if s == "mut" => j = k,
                TokKind::Ident(_) if tokens.get(k + 1).is_some_and(|t| t.is_punct('<')) => j = k,
                _ => break,
            }
        }
        // `name : <path> HashMap` or `name = <path> HashMap`.
        if j >= 2 {
            let sep = &tokens[j - 1];
            let is_decl_sep =
                (sep.is_punct(':') && !tokens[j - 2].is_punct(':')) || sep.is_punct('=');
            if is_decl_sep {
                if let TokKind::Ident(name) = &tokens[j - 2].kind {
                    names.insert(name.clone());
                }
            }
        }
    }
    names
}

/// Identifiers bound to floats in this file: `x: f64` (params, fields,
/// ascribed lets) and `x = <float literal>` initializations.
fn declared_float_idents(file: &SourceFile) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if i < 2 {
            continue;
        }
        let sep_ok = match &t.kind {
            TokKind::Ident(ty) if ty == "f64" || ty == "f32" => {
                tokens[i - 1].is_punct(':') && !tokens[i - 2].is_punct(':')
            }
            TokKind::Float(_) => tokens[i - 1].is_punct('='),
            _ => false,
        };
        if !sep_ok {
            continue;
        }
        if let TokKind::Ident(name) = &tokens[i - 2].kind {
            names.insert(name.clone());
        }
    }
    names
}

/// True when tokens in `[lo, hi)` (clamped) contain float evidence: an
/// `f32`/`f64` token, a float literal, a float-bound identifier, or an
/// energy-ish name.
fn float_evidence(file: &SourceFile, lo: usize, hi: usize, floats: &BTreeSet<String>) -> bool {
    let hi = hi.min(file.tokens.len());
    file.tokens[lo..hi].iter().any(|t| match &t.kind {
        TokKind::Float(_) => true,
        TokKind::Ident(s) => {
            s == "f64"
                || s == "f32"
                || floats.contains(s)
                || (super::unit_safety::is_unit_name(s)
                    && !s.to_ascii_lowercase().contains("cycle"))
        }
        _ => false,
    })
}
