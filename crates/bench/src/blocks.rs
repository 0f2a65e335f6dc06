//! The managed-region run behind Figs. 6–8 and 11, Table 2, the
//! ablations and the `fig_faults` robustness curve, and the one table
//! Figs. 6, 7 and Table 2 print.
//!
//! The paper runs these on a managed, hot-pluggable region of the
//! machine: with 128 MB blocks, one block maps to exactly one sub-array
//! group of the managed region; 256/512 MB blocks map to two/four. The
//! daemon off-lines blocks while the app's footprint and a page cache move
//! through the region at 1 s epochs.

use crate::report::{header, row};
use crate::BenchArgs;
use gd_baselines::OfflineFailureBreakdown;
use gd_faults::{FaultInjector, FaultPlan};
use gd_mmsim::{MemoryManager, MmConfig, PageKind, PAGE_BYTES};
use gd_obs::Telemetry;
use gd_types::rng::derive_seed;
use gd_types::{Fraction, Result, SimTime};
use gd_workloads::{spec2006_offlining_set, AppProfile};
use greendimm::{Daemon, DaemonStats, EpochSim, FootprintDriver, GreenDimmConfig, GroupMap};

/// Managed capacity for the block-size studies (the paper's 8 GB
/// managed-region example).
pub const MANAGED_BYTES: u64 = 8 << 30;

/// Nominal memory latency used to estimate runtimes in the epoch-only
/// experiments (no cycle simulation needed for hotplug dynamics).
pub const NOMINAL_LATENCY_CYCLES: f64 = 120.0;

/// Calibrated per-event interference cost (seconds per on/off-lining event,
/// per MPKI, per GiB of footprint): covers migration interference and TLB
/// shootdowns that the raw hotplug latencies do not capture. Chosen so that
/// `mcf` with 128 MB blocks degrades by ~2.9 % as the paper measures, at
/// the paper's observed event rate (~0.5 events/s).
const INTERFERENCE_COEFF: f64 = 0.0006;

/// Result of one managed-region run. The event, failure, rollback, retry
/// and fault counts cover the app run only, not settling.
#[derive(Debug, Clone)]
pub struct BlockSizeRow {
    /// Benchmark name.
    pub app: String,
    /// Block size in MiB.
    pub block_mib: u64,
    /// Time-averaged off-lined capacity in GiB (Fig. 6).
    pub offlined_gib_avg: f64,
    /// Time-averaged fraction of sub-array groups the register file holds
    /// in deep power-down. Quarantined and degraded groups stay out of it.
    pub down_fraction_avg: f64,
    /// Execution-time increase caused by GreenDIMM (Fig. 7).
    pub overhead_fraction: f64,
    /// On-lining + off-lining events (Table 2).
    pub hotplug_events: u64,
    /// Off-lining failures (Fig. 8).
    pub failures: u64,
    /// EAGAIN share of failures.
    pub failures_eagain: u64,
    /// Off-lining failures the memory manager recorded, by cause.
    pub mm_failures: OfflineFailureBreakdown,
    /// Mid-migration aborts rolled back transactionally.
    pub rollbacks: u64,
    /// Daemon retry attempts (quarantine re-entries + buddy-wake retries).
    pub retries: u64,
    /// Faults the mm and daemon injectors fired.
    pub faults_fired: u64,
    /// Groups degraded to shallow power-down by the end of the run.
    pub degraded_groups: u64,
    /// Full daemon counters, settling included.
    pub daemon: DaemonStats,
}

/// The managed region with `block_mib` MiB blocks: [`MANAGED_BYTES`] and
/// no transient migration failures.
#[must_use]
pub fn managed_region(block_mib: u64, seed: u64) -> MmConfig {
    MmConfig {
        capacity_bytes: MANAGED_BYTES,
        block_bytes: block_mib << 20,
        transient_fail_prob: Fraction::ZERO,
        seed,
    }
}

/// Runs the managed-region co-simulation of one app on `mm_cfg` (see
/// [`managed_region`]); the daemon and every injector are seeded from
/// `mm_cfg.seed`.
///
/// `faults: Some(plan)` installs per-layer injectors into the memory
/// manager and the daemon, even when the plan is inactive; an inactive
/// injector is indistinguishable from none. `verify` runs the invariant
/// checkers. `telemetry: Some(scope)` traces every daemon tick and
/// allocation stall, exports the mm/daemon books under `scope.*`, and
/// returns the filled sink.
///
/// The loop steps at 1 s epochs, so the stepped and event-driven engines
/// are the same exact loop here and the run takes no engine.
///
/// # Errors
///
/// Propagates simulator-setup errors; with `Some(Mode::Strict)`, also any
/// invariant violation the harness detects.
pub fn block_size_experiment(
    profile: &AppProfile,
    mm_cfg: MmConfig,
    gd_cfg: GreenDimmConfig,
    faults: Option<&FaultPlan>,
    verify: Option<gd_verify::Mode>,
    telemetry: Option<&str>,
) -> Result<(BlockSizeRow, Option<Telemetry>)> {
    let seed = mm_cfg.seed;
    let mut mm = MemoryManager::new(mm_cfg)?;
    // A small kernel presence inside the managed region (the paper notes
    // reserved movable regions still acquire unmovable pages).
    let kernel_pages = mm.meminfo().installed_pages / 100;
    mm.allocate(kernel_pages.max(1), PageKind::KernelUnmovable)?;
    let map = GroupMap::new(mm_cfg.capacity_bytes, 64, mm_cfg.block_bytes)?;
    let mut daemon = Daemon::new(gd_cfg.with_seed(seed), map);
    if let Some(plan) = faults {
        mm.set_fault_injector(plan.build(derive_seed(seed, "faults.mm")));
        daemon.set_fault_injector(plan.build(derive_seed(seed, "faults.daemon")));
    }
    let mut sim = EpochSim::new(mm, daemon, None);
    if verify.is_some() {
        sim.enable_verification();
    }
    if telemetry.is_some() {
        sim.enable_telemetry();
    }
    sim.settle(120)?;
    let settle_stats = sim.daemon.stats;
    let settle_failures = mm_failures(&sim);
    let settle_rollbacks = sim.mm.stats.rollbacks;
    let settle_fired = faults_fired(&sim);

    // Drive the footprint through the app's runtime at 1 s epochs. A page
    // cache grows alongside (file I/O) and is periodically reclaimed — the
    // background memory activity that keeps the daemon busy even for
    // constant-footprint benchmarks (the paper's povray still sees ~40
    // on/off-linings).
    let runtime_s = nominal_runtime_s(profile)?;
    let epochs = runtime_s.ceil().clamp(10.0, 1_800.0) as u64;
    let peak_pages = profile
        .footprint_bytes()
        .min(mm_cfg.capacity_bytes * 8 / 10)
        / PAGE_BYTES;
    let cache_max_pages = (2u64 << 30) / PAGE_BYTES;
    let cache_rate_pages = (24u64 << 20) / PAGE_BYTES; // 24 MB/s of file I/O
    let reclaim_period_s = 60;
    let groups = sim.daemon.group_map().groups() as f64;
    let mut fp = FootprintDriver::new();
    let mut cache = FootprintDriver::new();
    let mut offline_gib_sum = 0.0;
    let mut down_groups_sum = 0.0;
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
        down_groups_sum += sim.daemon.registers().down_count() as f64;
    }
    // Counters attributable to the app run (settling excluded, as the paper
    // measures during benchmark execution).
    let d = sim.daemon.stats;
    let failures = mm_failures(&sim);
    let run_events = d.hotplug_events() - settle_stats.hotplug_events();
    let run_hotplug_time = d.hotplug_time - settle_stats.hotplug_time;
    let overhead_s = hotplug_overhead_s(profile, run_events, run_hotplug_time, epochs);
    let row = BlockSizeRow {
        app: profile.name.to_string(),
        block_mib: mm_cfg.block_bytes >> 20,
        offlined_gib_avg: offline_gib_sum / epochs as f64,
        down_fraction_avg: down_groups_sum / epochs as f64 / groups,
        overhead_fraction: overhead_s / runtime_s,
        hotplug_events: run_events,
        failures: d.failures() - settle_stats.failures(),
        failures_eagain: d.failures_eagain - settle_stats.failures_eagain,
        mm_failures: OfflineFailureBreakdown {
            pinned: failures.pinned - settle_failures.pinned,
            kernel_block: failures.kernel_block - settle_failures.kernel_block,
            migration_aborted: failures.migration_aborted - settle_failures.migration_aborted,
        },
        rollbacks: sim.mm.stats.rollbacks - settle_rollbacks,
        retries: d.retries - settle_stats.retries,
        faults_fired: faults_fired(&sim) - settle_fired,
        degraded_groups: sim.daemon.degraded_groups(),
        daemon: d,
    };
    if let Some(scope) = telemetry {
        sim.export_telemetry(scope);
    }
    Ok((row, sim.telemetry.take()))
}

/// Figs. 6, 7 and Table 2: every app of the off-lining set on 128, 256 and
/// 512 MB blocks (seed 1), printed under `title` as one row of `cell` per
/// app, then the `paper` line.
pub fn block_size_table(
    args: BenchArgs,
    title: &str,
    widths: [usize; 4],
    cell: fn(&BlockSizeRow) -> String,
    paper: &str,
) {
    const BLOCKS: [u64; 3] = [128, 256, 512];
    args.finish();
    args.provenance("managed=8GiB spec2006-offlining blocks=128/256/512 seed=1");
    let profiles = spec2006_offlining_set();
    let points: Vec<(&AppProfile, u64)> = profiles
        .iter()
        .flat_map(|p| BLOCKS.map(|b| (p, b)))
        .collect();
    let rows = args.sweep(
        &points,
        |(p, b)| format!("{}/{b}MB", p.name),
        |(p, block_mib), sink| {
            let (row, tele) = block_size_experiment(
                p,
                managed_region(*block_mib, 1),
                GreenDimmConfig::paper_default(),
                None,
                None,
                sink.enabled().then_some("blocks"),
            )
            .expect("co-sim");
            sink.give("", tele);
            row
        },
    );
    header(title, &["app", "128MB", "256MB", "512MB"], &widths);
    for (p, rows) in profiles.iter().zip(rows.chunks(BLOCKS.len())) {
        let mut cells = vec![p.name.to_string()];
        cells.extend(rows.iter().map(cell));
        row(&cells, &widths);
    }
    println!("\n{paper}");
}

/// The memory manager's off-lining failures so far, by cause.
fn mm_failures(sim: &EpochSim) -> OfflineFailureBreakdown {
    let s = &sim.mm.stats;
    OfflineFailureBreakdown {
        pinned: s.offline_pinned,
        kernel_block: s.offline_kernel,
        migration_aborted: s.offline_eagain,
    }
}

/// Faults the mm and daemon injectors have fired so far.
fn faults_fired(sim: &EpochSim) -> u64 {
    sim.mm
        .fault_injector()
        .map_or(0, FaultInjector::total_fired)
        + sim
            .daemon
            .fault_injector()
            .map_or(0, FaultInjector::total_fired)
}

/// GreenDIMM's execution-time overhead for one run of `profile`, seconds:
/// the raw hotplug time, the calibrated interference of `hotplug_events`
/// on/off-linings ([`INTERFERENCE_COEFF`]), and 1 ms of a core per daemon
/// tick over `epochs` one-second ticks.
fn hotplug_overhead_s(
    profile: &AppProfile,
    hotplug_events: u64,
    hotplug_time: SimTime,
    epochs: u64,
) -> f64 {
    let interference_s = INTERFERENCE_COEFF
        * hotplug_events as f64
        * profile.mpki.max(0.1)
        * (profile.footprint_bytes() as f64 / (1u64 << 30) as f64);
    hotplug_time.as_secs_f64() + interference_s + 0.001 * epochs as f64
}

/// Nominal runtime from the CPU model at [`NOMINAL_LATENCY_CYCLES`].
///
/// # Errors
///
/// Same as [`gd_workloads::estimate_runtime`].
pub fn nominal_runtime_s(profile: &AppProfile) -> Result<f64> {
    Ok(gd_workloads::estimate_runtime(profile, NOMINAL_LATENCY_CYCLES, 4.5e9)?.seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_workloads::by_name;
    use greendimm::SelectorPolicy;

    fn run(profile: &AppProfile, mm: MmConfig, gd: GreenDimmConfig) -> BlockSizeRow {
        block_size_experiment(profile, mm, gd, None, None, None)
            .unwrap()
            .0
    }

    #[test]
    fn smaller_blocks_offline_more_capacity() {
        // Fig. 6's headline: gcc off-lines more with 128 MB than 512 MB
        // blocks because of quantization and churn.
        let gcc = by_name("gcc").unwrap();
        let r128 = run(
            &gcc,
            managed_region(128, 1),
            GreenDimmConfig::paper_default(),
        );
        let r512 = run(
            &gcc,
            managed_region(512, 1),
            GreenDimmConfig::paper_default(),
        );
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
        let r128 = run(
            &gcc,
            managed_region(128, 1),
            GreenDimmConfig::paper_default(),
        );
        let r512 = run(
            &gcc,
            managed_region(512, 1),
            GreenDimmConfig::paper_default(),
        );
        assert!(
            r128.hotplug_events > r512.hotplug_events,
            "128MB {} vs 512MB {}",
            r128.hotplug_events,
            r512.hotplug_events
        );
    }

    #[test]
    fn small_footprint_app_offlines_most_memory() {
        // povray's 30 MB footprint plus the page cache leave most of the
        // managed region off-lined throughout the run.
        let povray = by_name("povray").unwrap();
        let r = run(
            &povray,
            managed_region(128, 1),
            GreenDimmConfig::paper_default(),
        );
        let managed_gib = MANAGED_BYTES as f64 / (1u64 << 30) as f64;
        assert!(
            r.offlined_gib_avg > 0.5 * managed_gib,
            "off-lined {} of {managed_gib} GiB",
            r.offlined_gib_avg
        );
    }

    #[test]
    fn overhead_stays_small() {
        // Fig. 7: all cases below ~3 %.
        let mcf = by_name("mcf").unwrap();
        let r = run(
            &mcf,
            managed_region(128, 1),
            GreenDimmConfig::paper_default(),
        );
        assert!(r.overhead_fraction < 0.06, "{}", r.overhead_fraction);
    }

    #[test]
    fn removable_first_fails_less_than_random() {
        // Fig. 8: checking `removable` first roughly halves failures.
        // Aggregate over seeds — individual runs are noisy.
        let gcc = by_name("gcc").unwrap();
        let total = |policy: SelectorPolicy| -> u64 {
            (1..=3)
                .map(|seed| {
                    let mm = MmConfig {
                        transient_fail_prob: Fraction::lit(0.6),
                        ..managed_region(128, seed)
                    };
                    run(
                        &gcc,
                        mm,
                        GreenDimmConfig::paper_default().with_selector(policy),
                    )
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
