//! A cycle-level DDR4 memory-system simulator built for the GreenDIMM
//! reproduction.
//!
//! The simulator models the full hierarchy — channels, ranks, bank groups,
//! banks, sub-arrays, rows — with DDR4 timing constraints, FR-FCFS
//! scheduling, auto-refresh, rank low-power states (power-down and
//! self-refresh with their wake-up penalties), and GreenDIMM's sub-array
//! granularity deep power-down register.
//!
//! The paper ran its analysis on a commercial server; this crate is the
//! from-scratch substitute that reproduces the *state-residency dynamics*
//! that drive every power result: which ranks can idle long enough to enter
//! low-power states under channel/rank/bank interleaving, and what wake-ups
//! cost.
//!
//! # Example: the paper's §3.3 observation
//!
//! Memory interleaving prevents ranks from ever entering self-refresh, even
//! for tiny footprints:
//!
//! ```
//! use gd_dram::{LowPowerPolicy, MemRequest, MemorySystem};
//! use gd_types::config::{DramConfig, InterleaveMode};
//!
//! # fn main() -> gd_types::Result<()> {
//! let cfg = DramConfig::small_test();
//! let trace: Vec<_> = (0..512).map(|i| MemRequest::read(i * 64, i * 100)).collect();
//!
//! let mut interleaved = MemorySystem::new(cfg, LowPowerPolicy::srf_default())?;
//! let with = interleaved.run_trace(trace.clone())?;
//!
//! let mut linear = MemorySystem::new(
//!     cfg.with_interleave(InterleaveMode::Linear),
//!     LowPowerPolicy::srf_default(),
//! )?;
//! let without = linear.run_trace(trace)?;
//!
//! assert!(without.mean_self_refresh_fraction() > with.mean_self_refresh_fraction());
//! # Ok(())
//! # }
//! ```

pub mod addrmap;
mod bank;
pub mod channel;
pub mod command;
pub mod policy;
pub mod rank;
pub mod stats;
pub mod system;
pub mod validate;

pub use addrmap::{AddressBitLayout, AddressMapper, CACHE_LINE_BYTES};
pub use command::{AccessKind, DramCommand, MemRequest};
pub use policy::LowPowerPolicy;
pub use rank::{RankPowerState, RankResidency};
pub use stats::RunStats;
pub use system::{EngineMode, MemorySystem};
pub use validate::{CommandRecord, TimingChecker, TimingViolation};
