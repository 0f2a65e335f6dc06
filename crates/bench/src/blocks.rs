//! Block-size and off-lining-failure experiments (Figs. 6–8, Table 2).
//!
//! The paper runs these on a managed (movablecore-style) region of the
//! machine: with 128 MB blocks, one block maps to exactly one sub-array
//! group of the managed region; 256/512 MB blocks map to two/four.

use gd_mmsim::{MemoryManager, MmConfig, PageKind, PAGE_BYTES};
use gd_types::{Result, SimTime};
use gd_workloads::AppProfile;
use greendimm::{Daemon, DaemonStats, EpochSim, FootprintDriver, GreenDimmConfig, GroupMap};

/// Managed capacity for the block-size studies (the paper's
/// `movablecore=8G` example).
pub const MANAGED_BYTES: u64 = 8 << 30;

/// Nominal memory latency used to estimate runtimes in the epoch-only
/// experiments (no cycle simulation needed for hotplug dynamics).
pub const NOMINAL_LATENCY_CYCLES: f64 = 120.0;

/// Result of one (app, block-size, selector) co-simulation.
#[derive(Debug, Clone)]
pub struct BlockSizeRow {
    /// Benchmark name.
    pub app: String,
    /// Block size in MiB.
    pub block_mib: u64,
    /// Time-averaged off-lined capacity in GiB (Fig. 6).
    pub offlined_gib_avg: f64,
    /// Execution-time increase caused by GreenDIMM (Fig. 7).
    pub overhead_fraction: f64,
    /// On-lining + off-lining events (Table 2).
    pub hotplug_events: u64,
    /// Off-lining failures (Fig. 8).
    pub failures: u64,
    /// EAGAIN share of failures.
    pub failures_eagain: u64,
    /// Full daemon counters.
    pub daemon: DaemonStats,
}

/// Runs the managed-region co-simulation for one app and block size.
///
/// # Errors
///
/// Propagates simulator-setup errors.
pub fn block_size_experiment(
    profile: &AppProfile,
    block_mib: u64,
    gd_cfg: GreenDimmConfig,
    mm_cfg_tweaks: impl FnOnce(MmConfig) -> MmConfig,
    seed: u64,
) -> Result<BlockSizeRow> {
    block_size_experiment_verified(profile, block_mib, gd_cfg, mm_cfg_tweaks, seed, None)
}

/// [`block_size_experiment`] with optional runtime invariant checking on
/// the co-simulation (`--strict-validate` in the figure binaries).
///
/// # Errors
///
/// Propagates simulator-setup errors; with `Some(Mode::Strict)`, also any
/// invariant violation the harness detects.
pub fn block_size_experiment_verified(
    profile: &AppProfile,
    block_mib: u64,
    gd_cfg: GreenDimmConfig,
    mm_cfg_tweaks: impl FnOnce(MmConfig) -> MmConfig,
    seed: u64,
    verify: Option<gd_verify::Mode>,
) -> Result<BlockSizeRow> {
    Ok(block_size_experiment_tele(
        profile,
        block_mib,
        gd_cfg,
        mm_cfg_tweaks,
        seed,
        verify,
        false,
    )?
    .0)
}

/// [`block_size_experiment_verified`] with optional telemetry: when
/// `with_telemetry` is true the co-simulation traces every daemon tick and
/// allocation stall, exports the mm/daemon books under the `blocks.*`
/// scope, and returns the filled sink.
///
/// The managed-region loop steps at 1 s epochs, so the stepped and
/// event-driven engines are the same exact loop here and the experiment
/// takes no engine.
///
/// # Errors
///
/// Same as [`block_size_experiment_verified`].
pub fn block_size_experiment_tele(
    profile: &AppProfile,
    block_mib: u64,
    gd_cfg: GreenDimmConfig,
    mm_cfg_tweaks: impl FnOnce(MmConfig) -> MmConfig,
    seed: u64,
    verify: Option<gd_verify::Mode>,
    with_telemetry: bool,
) -> Result<(BlockSizeRow, Option<gd_obs::Telemetry>)> {
    let mm_cfg = mm_cfg_tweaks(MmConfig {
        capacity_bytes: MANAGED_BYTES,
        block_bytes: block_mib << 20,
        movablecore_bytes: None,
        unmovable_leak_prob: 0.0,
        transient_fail_prob: 0.0,
        seed,
    });
    let mut mm = MemoryManager::new(mm_cfg)?;
    // A small kernel presence inside the managed region (the paper notes
    // reserved movable regions still acquire unmovable pages).
    let kernel_pages = mm.meminfo().installed_pages / 100;
    mm.allocate(kernel_pages.max(1), PageKind::KernelUnmovable)?;
    let map = GroupMap::new(MANAGED_BYTES, 64, mm_cfg.block_bytes)?;
    let daemon = Daemon::new(gd_cfg.with_seed(seed), map);
    let mut sim = EpochSim::new(mm, daemon, None);
    if let Some(mode) = verify {
        sim.enable_verification(mode);
    }
    if with_telemetry {
        sim.enable_telemetry();
    }
    sim.settle(120)?;
    let settle_stats = sim.daemon.stats;

    // Drive the footprint through the app's runtime at 1 s epochs. A page
    // cache grows alongside (file I/O) and is periodically reclaimed — the
    // background memory activity that keeps the daemon busy even for
    // constant-footprint benchmarks (the paper's povray still sees ~40
    // on/off-linings).
    let runtime_s = nominal_runtime_s(profile);
    let epochs = runtime_s.ceil().clamp(10.0, 1_800.0) as u64;
    let peak_pages = profile.footprint_bytes().min(MANAGED_BYTES * 8 / 10) / PAGE_BYTES;
    let cache_max_pages = (2u64 << 30) / PAGE_BYTES;
    let cache_rate_pages = (24u64 << 20) / PAGE_BYTES; // 24 MB/s of file I/O
    let reclaim_period_s = 60;
    let mut fp = FootprintDriver::new();
    let mut cache = FootprintDriver::new();
    let mut offline_gib_sum = 0.0;
    for t in 0..epochs {
        let frac = profile.footprint_fraction_at(t as f64 * runtime_s / epochs as f64);
        let fp_target = (peak_pages as f64 * frac) as u64;
        let cache_phase = t % reclaim_period_s;
        let cache_target = if cache_phase == 0 && t > 0 {
            cache.pages() / 4 // reclaim drops most of the cache
        } else {
            (cache.pages() + cache_rate_pages).min(cache_max_pages)
        };
        let _ = sim.set_footprint(&mut fp, fp_target);
        let _ = sim.set_footprint(&mut cache, cache_target);
        sim.step(SimTime::from_secs(1))?;
        let info = sim.mm.meminfo();
        offline_gib_sum += (info.offline_pages * PAGE_BYTES) as f64 / (1u64 << 30) as f64;
    }
    // Counters attributable to the app run (settling excluded, as the paper
    // measures during benchmark execution).
    let d = sim.daemon.stats;
    let run_events = d.hotplug_events() - settle_stats.hotplug_events();
    let run_failures = d.failures() - settle_stats.failures();
    let run_eagain = d.failures_eagain - settle_stats.failures_eagain;
    let run_hotplug_time = d.hotplug_time - settle_stats.hotplug_time;

    let interference_s = greendimm::system::INTERFERENCE_COEFF
        * run_events as f64
        * profile.mpki.max(0.1)
        * (profile.footprint_bytes() as f64 / (1u64 << 30) as f64);
    let overhead_s = run_hotplug_time.as_secs_f64() + interference_s + 0.001 * epochs as f64;

    sim.export_telemetry("blocks");
    let tele = sim.telemetry.take();
    Ok((
        BlockSizeRow {
            app: profile.name.to_string(),
            block_mib,
            offlined_gib_avg: offline_gib_sum / epochs as f64,
            overhead_fraction: overhead_s / runtime_s,
            hotplug_events: run_events,
            failures: run_failures,
            failures_eagain: run_eagain,
            daemon: d,
        },
        tele,
    ))
}

/// Nominal runtime from the CPU model at [`NOMINAL_LATENCY_CYCLES`].
pub fn nominal_runtime_s(profile: &AppProfile) -> f64 {
    gd_workloads::estimate_runtime(profile, NOMINAL_LATENCY_CYCLES, 4.5e9).seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_workloads::by_name;
    use greendimm::SelectorPolicy;

    #[test]
    fn smaller_blocks_offline_more_capacity() {
        // Fig. 6's headline: gcc off-lines more with 128 MB than 512 MB
        // blocks because of quantization and churn.
        let gcc = by_name("gcc").unwrap();
        let r128 =
            block_size_experiment(&gcc, 128, GreenDimmConfig::paper_default(), |c| c, 1).unwrap();
        let r512 =
            block_size_experiment(&gcc, 512, GreenDimmConfig::paper_default(), |c| c, 1).unwrap();
        assert!(
            r128.offlined_gib_avg >= r512.offlined_gib_avg,
            "128MB {} vs 512MB {}",
            r128.offlined_gib_avg,
            r512.offlined_gib_avg
        );
    }

    #[test]
    fn smaller_blocks_mean_more_events() {
        // Table 2's trend for a churning app.
        let gcc = by_name("gcc").unwrap();
        let r128 =
            block_size_experiment(&gcc, 128, GreenDimmConfig::paper_default(), |c| c, 1).unwrap();
        let r512 =
            block_size_experiment(&gcc, 512, GreenDimmConfig::paper_default(), |c| c, 1).unwrap();
        assert!(
            r128.hotplug_events > r512.hotplug_events,
            "128MB {} vs 512MB {}",
            r128.hotplug_events,
            r512.hotplug_events
        );
    }

    #[test]
    fn overhead_stays_small() {
        // Fig. 7: all cases below ~3 %.
        let mcf = by_name("mcf").unwrap();
        let r =
            block_size_experiment(&mcf, 128, GreenDimmConfig::paper_default(), |c| c, 1).unwrap();
        assert!(r.overhead_fraction < 0.06, "{}", r.overhead_fraction);
    }

    #[test]
    fn removable_first_fails_less_than_random() {
        // Fig. 8: checking `removable` first roughly halves failures.
        // Aggregate over seeds — individual runs are noisy.
        let gcc = by_name("gcc").unwrap();
        let tweaks = |c: MmConfig| MmConfig {
            transient_fail_prob: 0.6,
            unmovable_leak_prob: 0.10,
            ..c
        };
        let total = |policy: SelectorPolicy| -> u64 {
            (1..=3)
                .map(|seed| {
                    block_size_experiment(
                        &gcc,
                        128,
                        GreenDimmConfig::paper_default().with_selector(policy),
                        tweaks,
                        seed,
                    )
                    .unwrap()
                    .failures
                })
                .sum()
        };
        let random = total(SelectorPolicy::Random);
        let removable = total(SelectorPolicy::RemovableFirst);
        assert!(
            removable <= random,
            "removable {removable} vs random {random}"
        );
        assert!(random > 0, "random must produce some failures");
    }
}
