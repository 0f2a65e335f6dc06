//! The GreenDIMM simulator's benchmark: workloads, metrics, tracing and
//! the comparison rule. The `gd-benchmark` binary drives them; see
//! `README.md`.

// The repository's clippy.toml bans wall-clock reads so simulated results
// stay deterministic; measuring wall time is this crate's job.
#![allow(clippy::disallowed_methods)]

pub mod calib;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
