// gd-lint-fixture: path=crates/power/src/fixture.rs
// Clamping a share into [0, 1] at the use site turns a caller bug (a
// residency above 1, a negative utilization) into a plausible number.

pub struct Profile {
    pub bandwidth_util: f64,
    pub self_refresh: f64,
}

pub fn activity_w(p: &Profile, peak_w: f64) -> f64 {
    peak_w * p.bandwidth_util.clamp(0.0, 1.0) //~ silent-clamp
}

pub fn refresh_share(p: &Profile) -> f64 {
    (1.0 - p.self_refresh).clamp(0.0, 1.0) //~ silent-clamp
}

pub fn cpu_w(util: f64) -> f64 {
    40.0 * util.clamp(0.0, 1.0f64) //~ silent-clamp
}
