// gd-lint-fixture: path=crates/workloads/src/fixture.rs
// Clamps to bounds other than [0, 1] are saturation arithmetic, a clamp
// in test code is exempt, and a checked share needs no clamp at all.

pub fn ramp_fraction(t_s: f64) -> f64 {
    (t_s / 60.0).clamp(0.05, 1.0)
}

pub fn percentile_rank(p: f64) -> f64 {
    p.clamp(0.0, 100.0)
}

pub fn epochs(runtime_s: f64) -> u64 {
    runtime_s.ceil().clamp(10.0, 1_800.0) as u64
}

pub struct Fraction(f64);

pub fn refresh_multiplier(refresh_off: Fraction) -> f64 {
    1.0 - refresh_off.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn clamp_in_tests_is_fine() {
        assert_eq!(2.0f64.clamp(0.0, 1.0), 1.0);
    }
}
