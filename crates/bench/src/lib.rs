//! The experiment harness: shared logic behind the figure/table
//! regeneration binaries (`src/bin/fig*.rs`, `src/bin/tab*.rs`) and the
//! self-contained micro-benchmarks (`benches/micro.rs`).
//!
//! Every table and figure of the paper's evaluation has a binary that
//! regenerates it; see `DESIGN.md` §5 for the index and `EXPERIMENTS.md`
//! for paper-vs-measured values. Run e.g.:
//!
//! ```text
//! cargo run --release -p gd-bench --bin fig09_dram_energy
//! ```

pub mod args;
pub mod blocks;
pub mod energy;
pub mod report;
pub mod robustness;
pub mod sweep;
pub mod telemetry;
pub mod vmtrace;

pub use args::BenchArgs;
pub use blocks::{block_size_experiment, managed_region, BlockSizeRow, MANAGED_BYTES};
pub use energy::{evaluate_app_tele, find_row, measure_app, AppMeasurement, EnergyRow};
pub use robustness::{robustness_experiment, RobustnessRow, FAULT_RATES};
pub use sweep::{default_jobs, sweep, PointCtx, SweepTiming};
pub use telemetry::render_shards;
pub use vmtrace::run_vm_trace;
