//! A simple MLP-aware CPU runtime model.
//!
//! Converts the memory latency observed by the DRAM simulator into benchmark
//! execution time:
//!
//! `CPI = CPI_base + (MPKI / 1000) × (memory latency in CPU cycles) / MLP`
//!
//! This is the standard first-order model for out-of-order cores: misses
//! overlap up to the measured memory-level parallelism. It is what converts
//! "interleaving reduced average latency 4×" into "lbm ran 3.8× faster"
//! (Fig. 3a) and execution time into energy (Figs. 9–10).

use crate::profile::AppProfile;
use crate::trace::{CPU_FREQ_MHZ, MEM_FREQ_MHZ};
use gd_types::{Fraction, Result};

/// Runtime prediction for one benchmark under one memory configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeEstimate {
    /// Effective cycles per instruction.
    pub cpi: f64,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Fraction of peak DRAM bus bandwidth the run sustains.
    pub bandwidth_util: Fraction,
}

/// Estimates runtime from the average memory read latency (in memory-clock
/// cycles) measured by the DRAM simulator, plus the peak transfer rate for
/// the utilization estimate.
///
/// # Errors
///
/// Returns [`gd_types::GdError::InvalidConfig`] when the profile would
/// need more than `peak_transfers_per_s`.
pub fn estimate_runtime(
    profile: &AppProfile,
    avg_mem_latency_memcycles: f64,
    peak_transfers_per_s: f64,
) -> Result<RuntimeEstimate> {
    let lat_cpu_cycles = avg_mem_latency_memcycles * (CPU_FREQ_MHZ / MEM_FREQ_MHZ);
    let cpi = profile.cpi_base + profile.mpki / 1000.0 * lat_cpu_cycles / profile.mlp.max(1.0);
    let instructions = profile.giga_instructions * 1e9;
    let seconds = instructions * cpi / (CPU_FREQ_MHZ * 1e6);
    // Transfers generated per second at this CPI.
    let transfers_per_s = instructions / seconds * profile.mpki / 1000.0;
    Ok(RuntimeEstimate {
        cpi,
        seconds,
        bandwidth_util: Fraction::new(transfers_per_s / peak_transfers_per_s)
            .map_err(|e| e.labelled(&format!("{} bandwidth share", profile.name)))?,
    })
}

/// Relative slowdown of `slow` vs. `fast` runtime estimates.
pub fn slowdown(slow: &RuntimeEstimate, fast: &RuntimeEstimate) -> f64 {
    slow.seconds / fast.seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::by_name;

    #[test]
    fn memory_intensive_apps_speed_up_with_lower_latency() {
        let lbm = by_name("lbm").unwrap();
        let peak = 1e9;
        let slow = estimate_runtime(&lbm, 800.0, peak).unwrap(); // congested, no interleave
        let fast = estimate_runtime(&lbm, 60.0, peak).unwrap(); // interleaved
        let s = slowdown(&slow, &fast);
        assert!(s > 2.0, "lbm-class slowdown {s:.2} should be large");
    }

    #[test]
    fn cpu_bound_apps_are_latency_insensitive() {
        let povray = by_name("povray").unwrap();
        let peak = 1e9;
        let slow = estimate_runtime(&povray, 800.0, peak).unwrap();
        let fast = estimate_runtime(&povray, 60.0, peak).unwrap();
        let s = slowdown(&slow, &fast);
        assert!(s < 1.3, "povray slowdown {s:.2} should be near 1");
    }

    #[test]
    fn bandwidth_util_bounded() {
        let mcf = by_name("mcf").unwrap();
        let est = estimate_runtime(&mcf, 100.0, 1e8).unwrap();
        assert!(est.bandwidth_util > Fraction::ZERO);
        // A peak below the profile's demand is an error, not a clamp.
        assert!(estimate_runtime(&mcf, 100.0, 1e7).is_err());
    }

    #[test]
    fn runtime_scales_with_instruction_count() {
        let mut a = by_name("mcf").unwrap();
        let base = estimate_runtime(&a, 100.0, 1e9).unwrap().seconds;
        a.giga_instructions *= 2.0;
        let double = estimate_runtime(&a, 100.0, 1e9).unwrap().seconds;
        assert!((double / base - 2.0).abs() < 1e-9);
    }
}
