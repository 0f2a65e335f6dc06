// gd-lint-fixture: path=crates/fleet/src/fixture.rs
// Outside the sweep and telemetry crates a lookup-only hash map is fine;
// float-order still guards accumulation over it.

use std::collections::HashMap;

pub fn footprint(owners: &HashMap<u32, u64>, vm: u32) -> u64 {
    owners.get(&vm).copied().unwrap_or_default()
}
