//! Whole-server power model.
//!
//! The paper measures a 16-core Xeon server with an HPM-100A power meter and
//! RAPL; we substitute a simple calibrated decomposition
//! `P_system = P_other + P_cpu(util) + P_dram`, with constants chosen so the
//! paper's reported shares reproduce: GreenDIMM's DRAM savings of ~32 % at
//! 256 GB correspond to ~9 % of system power, growing to 36 %/20 % at 1 TB
//! (Fig. 13).

use gd_types::Fraction;

/// Calibrated non-DRAM power constants for the evaluation server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPowerModel {
    /// Power of everything except CPU dynamic power and DRAM (board, fans,
    /// PSU loss, disks, CPU idle), W.
    pub other_w: f64,
    /// Maximum additional CPU dynamic power at full utilization, W.
    pub cpu_dynamic_max_w: f64,
}

impl SystemPowerModel {
    /// Constants calibrated to the paper's 16-core Xeon platform.
    pub fn xeon_16core() -> Self {
        SystemPowerModel {
            other_w: 55.0,
            cpu_dynamic_max_w: 40.0,
        }
    }

    /// Total system power for a given DRAM power and CPU utilization.
    pub fn system_power_w(&self, dram_w: f64, cpu_util: Fraction) -> f64 {
        self.other_w + self.cpu_dynamic_max_w * cpu_util.get() + dram_w
    }

    /// System energy over a duration in seconds.
    pub fn system_energy_j(&self, dram_w: f64, cpu_util: Fraction, seconds: f64) -> f64 {
        self.system_power_w(dram_w, cpu_util) * seconds.max(0.0)
    }
}

impl Default for SystemPowerModel {
    fn default() -> Self {
        Self::xeon_16core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition() {
        let m = SystemPowerModel::xeon_16core();
        let idle = m.system_power_w(18.0, Fraction::ZERO);
        let busy = m.system_power_w(26.0, Fraction::ONE);
        assert!(busy > idle);
        assert!((idle - (55.0 + 18.0)).abs() < 1e-9);
    }

    #[test]
    fn fig13_shares_reproduce() {
        // At 256 GB (~26 W DRAM, light VM load): saving 32 % of DRAM power
        // should be roughly 9 % of system power.
        let m = SystemPowerModel::xeon_16core();
        let sys = m.system_power_w(26.0, Fraction::lit(0.3));
        let share = 0.32 * 26.0 / sys;
        assert!((0.06..0.13).contains(&share), "share {share:.3}");
        // At 1 TB (~91 W DRAM): 36 % of DRAM power is ~20 % of system power.
        let sys_1tb = m.system_power_w(91.0, Fraction::lit(0.3));
        let share_1tb = 0.36 * 91.0 / sys_1tb;
        assert!((0.15..0.26).contains(&share_1tb), "share {share_1tb:.3}");
    }

    #[test]
    fn util_outside_unit_interval_is_rejected() {
        assert!(Fraction::new(2.0).is_err());
        assert!(Fraction::new(-1.0).is_err());
        let m = SystemPowerModel::default();
        assert_eq!(m.system_power_w(0.0, Fraction::ONE), 55.0 + 40.0);
        assert_eq!(m.system_power_w(0.0, Fraction::ZERO), 55.0);
    }

    #[test]
    fn energy_scales_with_time() {
        let m = SystemPowerModel::default();
        let half = Fraction::lit(0.5);
        let e1 = m.system_energy_j(20.0, half, 10.0);
        let e2 = m.system_energy_j(20.0, half, 20.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
        assert_eq!(m.system_energy_j(20.0, half, -5.0), 0.0);
    }
}
