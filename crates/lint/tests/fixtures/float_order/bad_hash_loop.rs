// gd-lint-fixture: path=crates/core/src/fixture.rs
// The loop form of hash-order float accumulation.

use std::collections::HashMap;

pub fn mean_power(readings_w: &HashMap<u32, f64>) -> f64 {
    let mut acc = 0.0;
    for v in readings_w.values() {
        acc += *v; //~ float-order
    }
    acc / readings_w.len() as f64
}
