//! `map-order`: no `HashMap` in the sweep/figure and telemetry crates.
//!
//! The sweep pool promises results in point-index order regardless of
//! thread schedule, and the telemetry crate promises byte-identical
//! rendering. A hash map anywhere on those paths would silently break both
//! (completion-order or hash-order output), so the identifier is banned
//! outright in `crates/bench` and `crates/obs`. Collect into a `Vec`
//! ordered by point index or a `BTreeMap` instead; a lookup-only map may
//! carry `// gd-lint: allow(map-order)`. `float-order` covers hash-order
//! float accumulation in every other crate.

use super::{in_scope, Lint};
use crate::source::SourceFile;
use crate::Finding;

/// The crates whose output order is part of their contract.
const ORDERED_CRATES: &[&str] = &["crates/bench", "crates/obs"];

pub struct MapOrder;

impl Lint for MapOrder {
    fn id(&self) -> &'static str {
        "map-order"
    }

    fn rationale(&self) -> &'static str {
        "sweep results and telemetry must not depend on hash order; \
         use a Vec in point order or a BTreeMap"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !in_scope(file, ORDERED_CRATES) {
            return;
        }
        for t in file.tokens.iter().filter(|t| t.is_ident("HashMap")) {
            out.push(Finding::new(
                self.id(),
                file,
                t.line,
                t.col,
                "`HashMap` in an order-contracted crate".to_string(),
                self.rationale(),
            ));
        }
    }
}
