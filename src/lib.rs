//! Umbrella crate for the GreenDIMM reproduction workspace.
//!
//! This crate re-exports every sub-crate under a single roof so that
//! examples, integration tests, and downstream experiments can depend on one
//! package. See the individual crates for the real implementations:
//!
//! * [`types`] — shared newtypes, configuration, and errors.
//! * [`dram`] — the DDR4 timing simulator and memory controller.
//! * [`power`] — IDD-based DRAM power model and system power model.
//! * [`mmsim`] — the OS physical-memory simulator (buddy allocator,
//!   memory blocks, hot-plug on/off-lining).
//! * [`ksm`] — the kernel samepage merging simulator.
//! * [`workloads`] — benchmark profiles, trace generators, and the Azure VM
//!   trace synthesizer.
//! * [`obs`] — deterministic telemetry: metrics registry and JSONL trace.
//! * [`faults`] — deterministic fault injection plans and the shared
//!   retry/backoff policy.
//! * [`baselines`] — self-refresh-only, RAMZzz, and PASR governors.
//! * [`verify`] — the cross-crate invariants.
//! * [`core`] — the GreenDIMM daemon and full-system co-simulation.
//! * [`fleet`] — the datacenter-scale fleet simulation: placement
//!   scheduler, sharded per-host co-simulation, host sampling.
//!
//! # Quickstart
//!
//! The managed-region run behind Figs. 6–7: the GreenDIMM daemon off-lines
//! 128 MB blocks of an 8 GiB region while libquantum's footprint moves
//! through it.
//!
//! ```
//! use greendimm_suite::bench::{block_size_experiment, managed_region};
//! use greendimm_suite::core::GreenDimmConfig;
//! use greendimm_suite::workloads::by_name;
//!
//! let app = by_name("libquantum").unwrap();
//! let (row, _) = block_size_experiment(
//!     &app,
//!     managed_region(128, 42),
//!     GreenDimmConfig::paper_default(),
//!     None,
//!     None,
//!     None,
//! )
//! .unwrap();
//! assert!(row.overhead_fraction < 0.05); // ~1% in the paper
//! assert!(row.offlined_gib_avg > 0.0);
//! ```

pub use gd_baselines as baselines;
pub use gd_bench as bench;
pub use gd_dram as dram;
pub use gd_faults as faults;
pub use gd_fleet as fleet;
pub use gd_ksm as ksm;
pub use gd_mmsim as mmsim;
pub use gd_obs as obs;
pub use gd_power as power;
pub use gd_types as types;
pub use gd_verify as verify;
pub use gd_workloads as workloads;
pub use greendimm as core;
