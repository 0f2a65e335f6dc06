// gd-lint-fixture: path=crates/core/src/fixture.rs
// Sorting (or any ordered container) before accumulating is the fix.

use std::collections::HashMap;

pub fn mean_power(readings_w: &HashMap<u32, f64>) -> f64 {
    let mut vals: Vec<(u32, f64)> = readings_w.iter().map(|(k, v)| (*k, *v)).collect();
    vals.sort_by_key(|(k, _)| *k);
    let mut acc = 0.0;
    for (_, v) in &vals {
        acc += v;
    }
    acc / vals.len() as f64
}

pub fn count_nonzero(readings_w: &HashMap<u32, f64>) -> u64 {
    let mut n = 0u64;
    for v in readings_w.values() {
        if *v != 0.0 {
            n += 1;
        }
    }
    n
}
