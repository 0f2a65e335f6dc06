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
//! * [`verify`] — the cross-crate invariant checker and determinism gate.
//! * [`core`] — the GreenDIMM daemon and full-system co-simulation.
//! * [`fleet`] — the datacenter-scale fleet simulation: placement
//!   scheduler, sharded per-host co-simulation, host sampling.
//!
//! # Quickstart
//!
//! ```
//! use greendimm_suite::core::{GreenDimmSystem, SystemConfig};
//!
//! let mut sys = GreenDimmSystem::new(SystemConfig::small_test());
//! let report = sys.run_app("libquantum", 42);
//! assert!(report.dram_energy_joules > 0.0);
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
