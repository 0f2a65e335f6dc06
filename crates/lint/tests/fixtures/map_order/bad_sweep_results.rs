// gd-lint-fixture: path=crates/bench/src/fixture.rs
// Collecting sweep results into a hash map prints rows in hash order.

use std::collections::HashMap; //~ map-order

pub fn by_label(rows: Vec<(String, f64)>) -> HashMap<String, f64> { //~ map-order
    rows.into_iter().collect()
}
