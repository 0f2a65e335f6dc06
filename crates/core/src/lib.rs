//! GreenDIMM: OS-assisted DRAM power management with a sub-array
//! granularity power-down state — the paper's core contribution.
//!
//! The pieces map one-to-one onto the paper's §4:
//!
//! * [`groupmap`] — the interleaving-agnostic power-management unit: memory
//!   blocks ↔ sub-array groups spanning every channel, rank, and bank
//!   (§4.1, Fig. 5);
//! * [`daemon`] — `memory_usage_monitor()` and `block_selector()` driving
//!   the kernel's memory on/off-lining (§4.2, §5.2);
//! * [`registers`] — the 64-bit deep power-down register file in the memory
//!   controller (§4.3);
//! * [`selector`] — candidate-selection policies incl. the `removable`
//!   optimization (Fig. 8);
//! * [`cosim`] — the epoch-level co-simulation engine for system-scale
//!   experiments;
//! * [`verify`] — runs the [`gd_verify`] invariants against the
//!   co-simulation's live state.
//!
//! The experiments that compose these pieces (the managed-region run
//! behind Figs. 6–8, the energy cells of Figs. 9–10) live in `gd-bench`;
//! the umbrella crate `greendimm-suite` re-exports it and carries the
//! quickstart example and doc test.

pub mod config;
pub mod cosim;
pub mod daemon;
pub mod groupmap;
pub mod registers;
pub mod selector;
pub mod verify;

pub use config::{GreenDimmConfig, SelectorPolicy};
pub use cosim::{EpochSim, FootprintDriver};
pub use daemon::{Daemon, DaemonStats, DaemonWork, GroupRecovery, TickReport};
pub use groupmap::GroupMap;
pub use registers::{GroupRegisterFile, DEEP_PD_EXIT};
pub use verify::quarantine_observations;
