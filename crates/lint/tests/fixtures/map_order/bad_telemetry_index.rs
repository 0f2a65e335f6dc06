// gd-lint-fixture: path=crates/obs/src/fixture.rs
// A fully qualified path is the same hazard; so is test code, because
// telemetry tests pin rendered bytes.

pub struct Registry {
    counters: std::collections::HashMap<String, u64>, //~ map-order
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders() {
        let m: std::collections::HashMap<u32, u32> = Default::default(); //~ map-order
        assert!(m.is_empty());
    }
}
