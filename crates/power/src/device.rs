//! Per-device IDD current parameters (the Micron power-calculator
//! methodology the paper's CACTI/RAPL numbers stand in for).

use gd_types::{GdError, Result};

/// IDD currents (mA) and supply voltage for one DRAM device, as specified in
/// DDR4/DDR5/LPDDR4 datasheets. Energy is integrated from these plus the
/// timing parameters, following the standard DRAM power-calculation
/// methodology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IddParams {
    /// Core supply voltage (V).
    pub vdd: f64,
    /// One-bank ACT-PRE cycling current.
    pub idd0: f64,
    /// Precharge standby current (CKE high, all banks closed).
    pub idd2n: f64,
    /// Precharge power-down current (CKE low).
    pub idd2p: f64,
    /// Active standby current (a row open).
    pub idd3n: f64,
    /// Active power-down current.
    pub idd3p: f64,
    /// Burst read current.
    pub idd4r: f64,
    /// Burst write current.
    pub idd4w: f64,
    /// Burst refresh current (all-bank REF).
    pub idd5b: f64,
    /// Burst refresh current of a same-bank refresh (DDR5 REFsb, one bank
    /// per bank group). Equal to [`idd5b`](Self::idd5b) on devices without
    /// same-bank refresh.
    pub idd5c: f64,
    /// Self-refresh current.
    pub idd6: f64,
    /// I/O and termination power per data pin during a burst (mW) —
    /// an aggregate covering output drivers and ODT.
    pub io_mw_per_dq: f64,
    /// Static power of DIMM-level support circuitry amortized per device
    /// (register/PLL on RDIMMs), in mW. Calibrates total idle power to the
    /// paper's measured 18 W at 256 GB.
    pub dimm_static_mw: f64,
}

impl IddParams {
    /// Typical currents for a 4Gb ×8 DDR4-2133 device.
    pub fn ddr4_2133_4gb_x8() -> Self {
        IddParams {
            vdd: 1.2,
            idd0: 58.0,
            idd2n: 34.0,
            idd2p: 22.0,
            idd3n: 48.0,
            idd3p: 34.0,
            idd4r: 150.0,
            idd4w: 140.0,
            idd5b: 190.0,
            idd5c: 190.0,
            idd6: 14.0,
            io_mw_per_dq: 5.0,
            dimm_static_mw: 20.0,
        }
    }

    /// Typical currents for an 8Gb ×4 DDR4-2133 device (higher-density die;
    /// fewer DQs per device but more devices per rank).
    pub fn ddr4_2133_8gb_x4() -> Self {
        IddParams {
            vdd: 1.2,
            idd0: 55.0,
            idd2n: 32.0,
            idd2p: 20.0,
            idd3n: 45.0,
            idd3p: 32.0,
            idd4r: 115.0,
            idd4w: 105.0,
            idd5b: 215.0,
            idd5c: 215.0,
            idd6: 16.0,
            io_mw_per_dq: 5.0,
            dimm_static_mw: 20.0,
        }
    }

    /// Typical VDD-rail currents for a 16Gb ×8 DDR5-4800 device. The VDDQ
    /// interface rail is modeled separately (`DramPowerModel`); idd5c
    /// covers one REFsb burst — one bank per bank group — which is how
    /// same-bank refresh cuts refresh energy (~1/4 of the all-bank delta
    /// over a much shorter tRFCsb).
    pub fn ddr5_4800_16gb_x8() -> Self {
        IddParams {
            vdd: 1.1,
            idd0: 95.0,
            idd2n: 50.0,
            idd2p: 30.0,
            idd3n: 62.0,
            idd3p: 44.0,
            idd4r: 260.0,
            idd4w: 230.0,
            idd5b: 277.0,
            idd5c: 135.0,
            idd6: 20.0,
            io_mw_per_dq: 4.0,
            dimm_static_mw: 20.0,
        }
    }

    /// Typical VDD-rail currents for a 16Gb ×4 DDR5-4800 device
    /// (higher-density rank build-out of the 256 GB platform).
    pub fn ddr5_4800_16gb_x4() -> Self {
        IddParams {
            vdd: 1.1,
            idd0: 90.0,
            idd2n: 48.0,
            idd2p: 28.0,
            idd3n: 60.0,
            idd3p: 42.0,
            idd4r: 200.0,
            idd4w: 180.0,
            idd5b: 300.0,
            idd5c: 150.0,
            idd6: 22.0,
            io_mw_per_dq: 4.0,
            dimm_static_mw: 20.0,
        }
    }

    /// Typical currents for an 8Gb ×16 LPDDR4-3200 die (VDD1 contributions
    /// folded into effective VDD2-rail currents). Unterminated LVSTL I/O
    /// and no RDIMM register make both per-pin I/O and static power much
    /// smaller than DDR4; idd6 is the full-array self-refresh current that
    /// PASR scales with the unmasked segment fraction.
    pub fn lpddr4_3200_8gb_x16() -> Self {
        IddParams {
            vdd: 1.1,
            idd0: 65.0,
            idd2n: 28.0,
            idd2p: 6.0,
            idd3n: 40.0,
            idd3p: 14.0,
            idd4r: 230.0,
            idd4w: 210.0,
            idd5b: 140.0,
            idd5c: 140.0,
            idd6: 4.0,
            io_mw_per_dq: 2.5,
            dimm_static_mw: 6.0,
        }
    }

    /// Validates the current orderings the energy model depends on.
    ///
    /// The model integrates *deltas* like `idd4r - idd3n`; a mis-entered
    /// spec that inverts an ordering would otherwise yield negative (or
    /// silently clamped-to-zero) event energy. Rejecting it here — at
    /// `DramPowerModel` construction — keeps every downstream energy a
    /// plain subtraction with no clamping.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] naming the violated ordering:
    /// every current must be finite and non-negative, `vdd` positive,
    /// `idd4r`/`idd4w` at least `idd3n`, `idd5b`/`idd5c` at least `idd2n`,
    /// and `idd0 >= idd3n` (an ACT-PRE cycle subsumes active standby).
    pub fn validate(&self) -> Result<()> {
        let fields = [
            ("vdd", self.vdd),
            ("idd0", self.idd0),
            ("idd2n", self.idd2n),
            ("idd2p", self.idd2p),
            ("idd3n", self.idd3n),
            ("idd3p", self.idd3p),
            ("idd4r", self.idd4r),
            ("idd4w", self.idd4w),
            ("idd5b", self.idd5b),
            ("idd5c", self.idd5c),
            ("idd6", self.idd6),
            ("io_mw_per_dq", self.io_mw_per_dq),
            ("dimm_static_mw", self.dimm_static_mw),
        ];
        for (name, v) in fields {
            if !v.is_finite() || v < 0.0 {
                return Err(GdError::InvalidConfig(format!(
                    "IDD parameter {name} must be finite and non-negative, got {v}"
                )));
            }
        }
        if self.vdd <= 0.0 {
            return Err(GdError::InvalidConfig("vdd must be positive".into()));
        }
        let orderings = [
            ("idd4r", self.idd4r, "idd3n", self.idd3n),
            ("idd4w", self.idd4w, "idd3n", self.idd3n),
            ("idd5b", self.idd5b, "idd2n", self.idd2n),
            ("idd5c", self.idd5c, "idd2n", self.idd2n),
            ("idd0", self.idd0, "idd3n", self.idd3n),
        ];
        for (hi_name, hi, lo_name, lo) in orderings {
            if hi < lo {
                return Err(GdError::InvalidConfig(format!(
                    "{hi_name} ({hi}) must be >= {lo_name} ({lo}): burst/refresh \
                     energy is integrated from their difference"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_power_ordering() {
        for p in [
            IddParams::ddr4_2133_4gb_x8(),
            IddParams::ddr4_2133_8gb_x4(),
            IddParams::ddr5_4800_16gb_x8(),
            IddParams::ddr5_4800_16gb_x4(),
            IddParams::lpddr4_3200_8gb_x16(),
        ] {
            // Active standby > precharge standby > power-down > self-refresh.
            assert!(p.idd3n > p.idd2n);
            assert!(p.idd2n > p.idd2p);
            assert!(p.idd2p > p.idd6);
        }
    }

    #[test]
    fn all_presets_validate() {
        for p in [
            IddParams::ddr4_2133_4gb_x8(),
            IddParams::ddr4_2133_8gb_x4(),
            IddParams::ddr5_4800_16gb_x8(),
            IddParams::ddr5_4800_16gb_x4(),
            IddParams::lpddr4_3200_8gb_x16(),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn inverted_burst_current_rejected() {
        let mut p = IddParams::ddr4_2133_4gb_x8();
        p.idd4r = p.idd3n - 1.0; // a mis-entered spec: burst below standby
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("idd4r"), "{err}");
    }

    #[test]
    fn inverted_refresh_current_rejected() {
        let mut p = IddParams::ddr4_2133_4gb_x8();
        p.idd5b = p.idd2n - 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn non_finite_current_rejected() {
        let mut p = IddParams::ddr4_2133_4gb_x8();
        p.idd6 = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = IddParams::ddr4_2133_4gb_x8();
        p.vdd = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn ddr5_same_bank_refresh_current_is_below_all_bank() {
        for p in [
            IddParams::ddr5_4800_16gb_x8(),
            IddParams::ddr5_4800_16gb_x4(),
        ] {
            assert!(p.idd5c < p.idd5b);
            assert!(p.idd5c > p.idd2n);
        }
    }

    #[test]
    fn self_refresh_is_small_fraction_of_active() {
        let p = IddParams::ddr4_2133_4gb_x8();
        // Paper §2.2: self-refresh consumes "down to 10%" of active power
        // (before the DIMM static floor).
        let core_sr = p.vdd * p.idd6 * 1e-3;
        let core_act = p.vdd * p.idd3n * 1e-3;
        assert!(core_sr / core_act < 0.35);
    }
}
