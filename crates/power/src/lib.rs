//! DRAM and system power models for the GreenDIMM reproduction.
//!
//! The paper measures power with RAPL and a wall power meter, and estimates
//! the sub-array deep power-down effect with CACTI. This crate substitutes:
//!
//! * an IDD-current DRAM power model ([`DramPowerModel`]) following the
//!   standard Micron power-calculation methodology: average power from an
//!   [`ActivityProfile`] of state residencies and bus utilization, one type
//!   for DDR4, DDR5 and LPDDR4-PASR (the generation is `cfg.kind`),
//! * a gating descriptor ([`PowerGating`]) capturing what PASR (refresh
//!   only) vs. GreenDIMM's deep power-down (refresh + peripheral static
//!   power) turn off,
//! * a calibrated whole-server model ([`SystemPowerModel`]), and
//! * the paper's circuit-analysis constants ([`subarray`]).
//!
//! # Example
//!
//! ```
//! use gd_power::{ActivityProfile, DramPowerModel, PowerGating};
//! use gd_types::config::DramConfig;
//! use gd_types::Fraction;
//!
//! let model = DramPowerModel::new(DramConfig::ddr4_2133_256gb())?;
//! let idle = model.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
//! // Off-lining half the sub-array groups nearly halves background power.
//! let gated = model.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::deep_pd(Fraction::lit(0.5)));
//! assert!(gated < idle * 0.75);
//! # Ok::<(), gd_types::GdError>(())
//! ```

pub mod device;
pub mod gating;
pub mod model;
pub mod subarray;
pub mod system;

pub use device::IddParams;
pub use gating::{PowerGating, DEEP_PD_RESIDUAL};
pub use model::{ActivityProfile, DramPowerModel};
pub use system::SystemPowerModel;
