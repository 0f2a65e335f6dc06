// gd-lint-fixture: path=crates/fleet/src/fixture.rs
// Ordered sources (BTreeMap, slices) and integer accumulation over hash
// maps are both order-safe.

use std::collections::{BTreeMap, HashMap};

pub struct Telemetry {
    energy_j: BTreeMap<u32, f64>,
    hits: HashMap<u32, u64>,
}

impl Telemetry {
    pub fn total_energy(&self) -> f64 {
        // BTreeMap iterates in key order: deterministic.
        self.energy_j.values().sum::<f64>()
    }

    pub fn total_hits(&self) -> u64 {
        // Integer addition is associative; hash order cannot matter.
        self.hits.values().sum::<u64>()
    }
}

pub fn slice_sum(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>()
}
