// gd-lint-fixture: path=crates/fleet/src/fixture.rs
// Float accumulation over hash-order iteration drifts run to run.

use std::collections::HashMap;

pub struct Telemetry {
    energy_j: HashMap<u32, f64>,
}

impl Telemetry {
    pub fn total_energy(&self) -> f64 {
        self.energy_j.values().sum::<f64>() //~ float-order
    }

    pub fn weighted(&self) -> f64 {
        self.energy_j.values().fold(0.0, |acc, v| acc + v * 0.5) //~ float-order
    }
}
