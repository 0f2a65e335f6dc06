// gd-lint-fixture: path=crates/obs/src/fixture.rs
// Ordered maps render in key order; prose and strings may name the
// banned type (HashMap) without tripping the rule.

use std::collections::BTreeMap;

pub struct Registry {
    counters: BTreeMap<String, u64>,
}

impl Registry {
    pub fn banned() -> &'static str {
        "HashMap"
    }

    pub fn render(&self) -> String {
        self.counters
            .iter()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect()
    }
}
