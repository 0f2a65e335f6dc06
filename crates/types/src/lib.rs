//! Shared foundation types for the GreenDIMM reproduction.
//!
//! Everything that more than one simulator crate needs lives here:
//!
//! * strongly-typed identifiers for the DRAM hierarchy ([`ids`]),
//! * simulated-time newtypes with unit conversions ([`time`]),
//! * the DRAM organization and timing configuration ([`config`]),
//! * shared error types ([`error`]),
//! * index sets kept as `u64` words ([`bits`]),
//! * the checked `[0, 1]` share [`Fraction`] ([`fraction`]),
//! * deterministic RNG construction ([`rng`]),
//! * small streaming-statistics helpers ([`stats`]),
//! * fleet-scale configuration and VM accounting ([`fleet`]).
//!
//! # Example
//!
//! ```
//! use gd_types::config::DramConfig;
//!
//! // The paper's SPEC evaluation platform: eight 4Gb 2R x8 DDR4-2133 8GB
//! // DIMMs across four channels (64 GB total).
//! let cfg = DramConfig::ddr4_2133_64gb();
//! assert_eq!(cfg.total_capacity_bytes(), 64 << 30);
//! assert_eq!(cfg.org.subarray_groups(), 64);
//! // A sub-array group is always 1/64 = 1.5625% of capacity.
//! assert_eq!(cfg.subarray_group_bytes() * 64, cfg.total_capacity_bytes());
//! ```

pub mod bits;
pub mod config;
pub mod error;
pub mod fleet;
pub mod fraction;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod time;

pub use config::{DramConfig, DramOrg, DramTiming, MemSpecKind, RefreshScheme};
pub use error::{GdError, Result};
pub use fleet::{FleetConfig, FleetPlacement, FleetStats};
pub use fraction::Fraction;
pub use ids::{Bank, BankGroup, Channel, Rank, Row, SubArray, SubArrayGroup};
pub use time::{Cycles, SimTime};
