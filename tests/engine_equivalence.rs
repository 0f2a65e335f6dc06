//! Equivalence gates for the performance engines.
//!
//! Two independent fast paths must never change results, only wall-clock:
//!
//! * `EngineMode::EventDriven` — the idle fast-forward inside `gd-dram`.
//!   Every test here runs the same workload through the per-cycle
//!   [`EngineMode::Stepped`] reference and asserts the full [`RunStats`]
//!   (requests, latency sums, energy integrals, per-rank residency) are
//!   **bit-for-bit identical**.
//! * the `gd-bench` sweep pool — `--jobs N` fans figure points across
//!   worker threads; results must match the serial `--jobs 1` path exactly
//!   and arrive in point-index order regardless of thread schedule.

use greendimm_suite::bench::sweep;
use greendimm_suite::bench::telemetry::render_shards;
use greendimm_suite::dram::{
    AddressMapper, EngineMode, LowPowerPolicy, MemRequest, MemorySystem, RunStats,
};
use greendimm_suite::obs::Telemetry;
use greendimm_suite::types::config::{DramConfig, InterleaveMode, MemSpecKind};
use greendimm_suite::types::ids::SubArrayGroup;
use greendimm_suite::types::Fraction;
use greendimm_suite::verify;
use greendimm_suite::workloads::{by_name, TraceGenerator};

const MODES: [InterleaveMode; 2] = [InterleaveMode::Interleaved, InterleaveMode::Linear];

/// Folds a profile-scale trace into the small test config's address space
/// (profiles model multi-GiB footprints; `small_test` is 16 MiB).
fn fold_into(cfg: &DramConfig, trace: Vec<MemRequest>) -> Vec<MemRequest> {
    let cap = AddressMapper::new(cfg).unwrap().capacity_bytes();
    trace
        .into_iter()
        .map(|mut r| {
            r.addr = (r.addr % cap) & !63;
            r
        })
        .collect()
}

const POLICIES: [fn() -> LowPowerPolicy; 3] = [
    LowPowerPolicy::disabled,
    LowPowerPolicy::srf_default,
    LowPowerPolicy::aggressive,
];

/// Runs `trace` through both engines and asserts identical statistics.
fn assert_trace_equivalent(
    cfg: &DramConfig,
    policy: LowPowerPolicy,
    trace: &[MemRequest],
    what: &str,
) -> RunStats {
    let mut stepped = MemorySystem::new(*cfg, policy)
        .unwrap()
        .with_engine_mode(EngineMode::Stepped);
    let mut event = MemorySystem::new(*cfg, policy)
        .unwrap()
        .with_engine_mode(EngineMode::EventDriven);
    let a = stepped.run_trace(trace.to_vec()).unwrap();
    let b = event.run_trace(trace.to_vec()).unwrap();
    assert_eq!(a, b, "stepped vs event-driven diverged: {what}");
    a
}

/// A dense streaming workload: back-to-back sequential reads keep every
/// channel busy, so the fast-forward path should almost never engage — the
/// equivalence must hold trivially, and this guards against the event
/// engine *skipping* work under load.
#[test]
fn streaming_reads_equivalent() {
    for mode in MODES {
        let cfg = DramConfig::small_test().with_interleave(mode);
        for policy in POLICIES {
            let trace: Vec<_> = (0..3000u64).map(|i| MemRequest::read(i * 64, i)).collect();
            let stats =
                assert_trace_equivalent(&cfg, policy(), &trace, &format!("streaming {mode:?}"));
            assert_eq!(stats.reads, 3000);
        }
    }
}

/// A sparse periodic workload with long gaps between bursts: the governor
/// cycles ranks through power-down and self-refresh between arrivals, so
/// the fast-forward path carries most of the simulated time.
#[test]
fn sparse_bursts_equivalent() {
    for mode in MODES {
        let cfg = DramConfig::small_test().with_interleave(mode);
        for policy in POLICIES {
            // 40 bursts of 8 requests, 20 000 idle cycles apart: long
            // enough for srf_default to reach self-refresh every gap.
            let trace: Vec<_> = (0..320u64)
                .map(|i| {
                    let burst = i / 8;
                    MemRequest::read((i % 8) * 64 + burst * 4096, burst * 20_000 + (i % 8))
                })
                .collect();
            let stats =
                assert_trace_equivalent(&cfg, policy(), &trace, &format!("bursts {mode:?}"));
            assert_eq!(stats.reads, 320);
        }
    }
}

/// Profile-driven traces (row locality, exponential arrivals, read/write
/// mix) for an intense and a sparse benchmark.
#[test]
fn profile_traces_equivalent() {
    for mode in MODES {
        let cfg = DramConfig::small_test().with_interleave(mode);
        for (name, n) in [("mcf", 2000), ("povray", 300)] {
            let mut generator = TraceGenerator::new(by_name(name).unwrap(), 11);
            let trace = fold_into(&cfg, generator.take(n));
            for policy in POLICIES {
                assert_trace_equivalent(&cfg, policy(), &trace, &format!("{name} {mode:?}"));
            }
        }
    }
}

/// Pure idle horizons: refresh and the governor are the only activity.
/// This is the path the fast-forward exists for — a long horizon collapses
/// to a handful of loop iterations — and also the easiest place to lose a
/// refresh or a residency cycle.
#[test]
fn idle_horizons_equivalent() {
    let cfg = DramConfig::small_test();
    for policy in POLICIES {
        for cycles in [1_000u64, 17_321, 200_000] {
            let mut stepped = MemorySystem::new(cfg, policy())
                .unwrap()
                .with_engine_mode(EngineMode::Stepped);
            let mut event = MemorySystem::new(cfg, policy())
                .unwrap()
                .with_engine_mode(EngineMode::EventDriven);
            let a = stepped.run_idle(cycles);
            let b = event.run_idle(cycles);
            assert_eq!(a, b, "idle {cycles} cycles, {:?}", policy());
        }
    }
}

/// Idle with sub-array groups in deep power-down, then traffic after
/// on-lining: mirrors the GreenDIMM daemon's life cycle across both
/// engines.
#[test]
fn deep_pd_lifecycle_equivalent() {
    let cfg = DramConfig::small_test();
    let run = |engine_mode: EngineMode| {
        let mut sys = MemorySystem::new(cfg, LowPowerPolicy::srf_default())
            .unwrap()
            .with_engine_mode(engine_mode);
        for g in [1u32, 2, 5] {
            sys.set_group_deep_pd(SubArrayGroup::new(g), true).unwrap();
        }
        sys.run_idle(60_000);
        for g in [1u32, 2, 5] {
            sys.set_group_deep_pd(SubArrayGroup::new(g), false).unwrap();
        }
        let trace: Vec<_> = (0..500u64)
            .map(|i| MemRequest::read(i * 64, i * 3))
            .collect();
        sys.run_trace(trace).unwrap()
    };
    assert_eq!(run(EngineMode::Stepped), run(EngineMode::EventDriven));
}

/// The sweep pool returns results identical to the serial path and ordered
/// by point index, whatever the worker count or thread schedule.
#[test]
fn sweep_jobs_equivalent_and_ordered() {
    let cfg = DramConfig::small_test();
    let points: Vec<u64> = (0..12).collect();
    let run_point = |ctx: sweep::PointCtx, &gap: &u64| -> (usize, RunStats) {
        let seed = ctx.seed(9);
        let mut generator = TraceGenerator::new(by_name("mcf").unwrap(), seed);
        let trace: Vec<_> = fold_into(&cfg, generator.take(400))
            .into_iter()
            .map(|mut r| {
                r.arrival += gap * 1000;
                r
            })
            .collect();
        let mut sys = MemorySystem::new(cfg, LowPowerPolicy::srf_default()).unwrap();
        (ctx.index, sys.run_trace(trace).unwrap())
    };
    let serial = sweep::sweep(&points, 1, run_point);
    let parallel = sweep::sweep(&points, 4, run_point);
    assert_eq!(serial, parallel, "--jobs 1 vs --jobs 4 diverged");
    for (expect, (index, _)) in parallel.iter().enumerate() {
        assert_eq!(*index, expect, "results not in point-index order");
    }
}

/// Runs a profile trace through one engine and exports its telemetry.
fn telemetry_of(
    cfg: &DramConfig,
    policy: LowPowerPolicy,
    engine: EngineMode,
    trace: &[MemRequest],
) -> (RunStats, String) {
    let mut sys = MemorySystem::new(*cfg, policy)
        .unwrap()
        .with_engine_mode(engine);
    let stats = sys.run_trace(trace.to_vec()).unwrap();
    let mut tele = Telemetry::new();
    sys.export_telemetry(&mut tele, "eq");
    (stats, tele.render_jsonl("p0"))
}

/// The telemetry export — counters, residency histograms, gauges — must
/// render byte-identical JSONL whichever engine produced it, and the
/// residency histograms must account for every elapsed cycle per rank.
#[test]
fn telemetry_identical_across_engines() {
    for mode in MODES {
        let cfg = DramConfig::small_test().with_interleave(mode);
        let mut generator = TraceGenerator::new(by_name("mcf").unwrap(), 23);
        let trace = fold_into(&cfg, generator.take(1500));
        let policy = LowPowerPolicy::srf_default();
        let (a_stats, a) = telemetry_of(&cfg, policy, EngineMode::Stepped, &trace);
        let (b_stats, b) = telemetry_of(&cfg, policy, EngineMode::EventDriven, &trace);
        assert_eq!(a_stats, b_stats, "run stats diverged under {mode:?}");
        assert_eq!(a, b, "telemetry bytes diverged under {mode:?}");
        assert!(!a.is_empty());

        // Residency completeness: each rank's histogram sums to the clock.
        let mut sys = MemorySystem::new(cfg, LowPowerPolicy::srf_default())
            .unwrap()
            .with_engine_mode(EngineMode::EventDriven);
        let stats = sys.run_trace(trace.clone()).unwrap();
        let mut tele = Telemetry::new();
        sys.export_telemetry(&mut tele, "eq");
        let violations =
            verify::telemetry::check_residencies(&tele.registry, "eq.dram.", stats.cycles);
        assert_eq!(violations, vec![]);
    }
}

/// The per-backend engine matrix: every memory-generation backend — DDR4
/// (all-bank refresh), DDR5 (rotating same-bank REFsb sets), LPDDR4-PASR
/// (ungrouped ×16 banks, all-bank refresh) — must agree bit for bit between the
/// stepped reference and the event-driven engine, on both RunStats and the
/// rendered telemetry bytes, under both interleave modes. This is the gate
/// that keeps the scheme-aware refresh paths inside the event engine's
/// "skipping an action cycle breaks equivalence" contract.
#[test]
fn backend_matrix_equivalent_across_engines() {
    for kind in MemSpecKind::all() {
        for mode in MODES {
            let cfg = DramConfig::small_test_for(kind).with_interleave(mode);
            let mut generator = TraceGenerator::new(by_name("mcf").unwrap(), 29);
            let trace = fold_into(&cfg, generator.take(1200));
            let policy = LowPowerPolicy::srf_default();
            let (a_stats, a_tele) = telemetry_of(&cfg, policy, EngineMode::Stepped, &trace);
            let (b_stats, b_tele) = telemetry_of(&cfg, policy, EngineMode::EventDriven, &trace);
            assert_eq!(a_stats, b_stats, "{kind:?} {mode:?}: run stats diverged");
            assert_eq!(
                a_tele, b_tele,
                "{kind:?} {mode:?}: telemetry bytes diverged"
            );
            assert!(!a_tele.is_empty());
        }
    }
}

/// Sparse traffic on every backend: light profiles leave ranks idle between
/// requests, so refresh windows, power-down exits and governor demotions —
/// not arbitration — decide where the event engine may jump. Every backend
/// × policy × interleave mode must agree bit for bit with the stepped
/// reference, on RunStats and on the rendered telemetry bytes.
#[test]
fn sparse_profiles_equivalent_on_every_backend() {
    for kind in MemSpecKind::all() {
        for mode in MODES {
            let cfg = DramConfig::small_test_for(kind).with_interleave(mode);
            for name in ["povray", "500.perlbench"] {
                let mut generator = TraceGenerator::new(by_name(name).unwrap(), 37);
                let trace = fold_into(&cfg, generator.take(100));
                for policy in POLICIES {
                    let what = format!("{kind:?} {mode:?} {name} {:?}", policy());
                    let (a_stats, a_tele) =
                        telemetry_of(&cfg, policy(), EngineMode::Stepped, &trace);
                    let (b_stats, b_tele) =
                        telemetry_of(&cfg, policy(), EngineMode::EventDriven, &trace);
                    assert_eq!(a_stats, b_stats, "{what}: run stats diverged");
                    assert_eq!(a_tele, b_tele, "{what}: telemetry bytes diverged");
                }
            }
        }
    }
}

/// The event engine's work bound on sparse DDR5 traffic: it polls a channel
/// only on cycles where the channel can act, so most polls issue a command
/// or a power-state transition. Stepping one cycle at a time through
/// refresh windows (tRFCsb) or power-down exits (tXP) multiplies the idle
/// polls many times over; poll counts are deterministic, so that shows up
/// here rather than as wall-time noise. A poll examines only the banks with
/// a request queued: walking all 128 banks of a DDR5 channel in the
/// arbitration scan and again in `next_event` would cost at least 256 bank
/// visits per poll.
#[test]
fn event_engine_polls_only_when_a_channel_can_act() {
    let cfg = DramConfig::preset_64gb(MemSpecKind::Ddr5);
    let cap = cfg.total_capacity_bytes();
    for mode in MODES {
        for name in ["povray", "500.perlbench"] {
            let trace: Vec<_> = TraceGenerator::new(by_name(name).unwrap(), 42)
                .take(750)
                .into_iter()
                .map(|mut r| {
                    r.addr %= cap;
                    r
                })
                .collect();
            let mut sys =
                MemorySystem::new(cfg.with_interleave(mode), LowPowerPolicy::srf_default())
                    .unwrap()
                    .with_engine_mode(EngineMode::EventDriven);
            let stats = sys.run_trace(trace).unwrap();
            let work = sys.poll_counts();
            assert!(stats.refreshes > 0 && work.issuing > 0, "{name} {mode:?}");
            assert!(
                work.polls <= 2 * work.issuing,
                "{name} {mode:?}: {} polls for {} issuing polls",
                work.polls,
                work.issuing
            );
            assert!(
                work.bank_visits <= 4 * work.polls,
                "{name} {mode:?}: {} bank visits for {} polls",
                work.bank_visits,
                work.polls
            );
        }
    }
}

/// Pure idle horizons per backend: refresh is the only activity, so this
/// pins the scheme-specific interval bookkeeping (tREFI vs tREFI/sets) in
/// the fast-forward path. Every backend must refresh, and DDR5's same-bank
/// scheme must issue `sets`× the all-bank command count over the same
/// horizon (one REFsb per rotating set position).
#[test]
fn backend_idle_refresh_equivalent() {
    for kind in MemSpecKind::all() {
        let cfg = DramConfig::small_test_for(kind);
        for policy in POLICIES {
            let mut stepped = MemorySystem::new(cfg, policy())
                .unwrap()
                .with_engine_mode(EngineMode::Stepped);
            let mut event = MemorySystem::new(cfg, policy())
                .unwrap()
                .with_engine_mode(EngineMode::EventDriven);
            let a = stepped.run_idle(150_000);
            let b = event.run_idle(150_000);
            assert_eq!(a, b, "{kind:?} idle horizon diverged, {:?}", policy());
            // Refresh responsibility never lapses: either the controller
            // issued auto-refresh (awake ranks) or the device carried it
            // internally (self-refresh residency under the parking policies).
            assert!(
                a.refreshes > 0 || a.rank_residency.iter().any(|r| r.self_refresh > 0),
                "{kind:?} neither auto-refreshed nor self-refreshed while idle"
            );
        }
    }
}

/// A faulted co-simulation (mm + daemon + dram injectors at a biting rate)
/// must produce identical rows and byte-identical telemetry whichever
/// time-advance engine drives the DRAM probe — fault injection must not
/// open a determinism hole between the engines.
#[test]
fn faulted_runs_equivalent_across_engines() {
    use greendimm_suite::bench::robustness::robustness_experiment;
    use greendimm_suite::faults::FaultPlan;
    let profile = by_name("mcf").unwrap();
    let plan = FaultPlan::uniform(Fraction::lit(0.25));
    let run = |engine: EngineMode| {
        robustness_experiment(&profile, Some(&plan), engine, 17, None, true).unwrap()
    };
    let (a_row, a_tele) = run(EngineMode::Stepped);
    let (b_row, b_tele) = run(EngineMode::EventDriven);
    assert!(a_row.faults_injected > 0, "the fault plan must bite");
    assert_eq!(a_row, b_row, "faulted rows diverged between engines");
    assert_eq!(
        a_tele.unwrap().render_jsonl("p"),
        b_tele.unwrap().render_jsonl("p"),
        "faulted telemetry diverged between engines"
    );
}

/// A rate-0 faulted run equals a run with no injectors at all — installing
/// the fault machinery must be free when every trigger is disarmed.
#[test]
fn rate_zero_equals_no_injector_run() {
    use greendimm_suite::bench::robustness::robustness_experiment;
    use greendimm_suite::faults::FaultPlan;
    let profile = by_name("mcf").unwrap();
    let inactive = FaultPlan::uniform(Fraction::ZERO);
    let run = |plan| robustness_experiment(&profile, plan, EngineMode::EventDriven, 5, None, true);
    let (a_row, a_tele) = run(Some(&inactive)).unwrap();
    let (b_row, b_tele) = run(None).unwrap();
    assert_eq!(a_row, b_row, "inactive injectors changed the row");
    assert_eq!(
        a_tele.unwrap().render_jsonl("p"),
        b_tele.unwrap().render_jsonl("p"),
        "inactive injectors changed the telemetry bytes"
    );
}

/// Deep power-down group transitions *between traffic phases*, on a system
/// whose wake latencies are stretched 4× (the WakeStretch worst case): the
/// batched arbitration must stay bit-identical to the stepped reference
/// while ranks cycle through stretched PDX/SRX wakes and the group register
/// flips mid-run.
#[test]
fn deep_pd_transitions_mid_traffic_equivalent() {
    let cfg = DramConfig::small_test();
    let run = |engine: EngineMode| {
        let mut sys = MemorySystem::with_wake_stretch(cfg, LowPowerPolicy::aggressive(), 4)
            .unwrap()
            .with_engine_mode(engine);
        // Phase 1: sparse traffic over a 32 KiB footprint (groups stay low).
        let t1: Vec<_> = (0..300u64)
            .map(|i| MemRequest::read((i * 64 * 7) % 32_768, i * 900))
            .collect();
        sys.run_trace(t1).unwrap();
        // Off-line two high groups mid-run, keep serving low addresses.
        for g in [5u32, 6] {
            sys.set_group_deep_pd(SubArrayGroup::new(g), true).unwrap();
        }
        let base = sys.clock();
        let t2: Vec<_> = (0..300u64)
            .map(|i| MemRequest::write((i * 64 * 3) % 32_768, base + i * 1100))
            .collect();
        sys.run_trace(t2).unwrap();
        // Back on-line, then one more burst.
        for g in [5u32, 6] {
            sys.set_group_deep_pd(SubArrayGroup::new(g), false).unwrap();
        }
        let base = sys.clock();
        let t3: Vec<_> = (0..200u64)
            .map(|i| MemRequest::read((i * 64 * 11) % 32_768, base + i * 40))
            .collect();
        sys.run_trace(t3).unwrap()
    };
    let a = run(EngineMode::Stepped);
    let b = run(EngineMode::EventDriven);
    assert!(
        a.pd_entries + a.sr_entries > 0,
        "low-power states must cycle"
    );
    assert_eq!(a, b, "deep-PD mid-traffic run diverged between engines");
}

/// An *armed, deterministic* fault plan (WakeStretch on the DRAM probe plus
/// periodic MrsAckDelay on the daemon's MRS writes) across both engines:
/// rows and telemetry must stay byte-identical — deterministic triggers
/// leave no room for the engines' different poll schedules to observe
/// different fault streams.
#[test]
fn armed_fault_plan_equivalent_across_engines() {
    use greendimm_suite::bench::robustness::robustness_experiment;
    use greendimm_suite::faults::{FaultPlan, FaultSite, FaultTrigger};
    let profile = by_name("mcf").unwrap();
    let plan = FaultPlan::none()
        .with(FaultSite::WakeStretch, FaultTrigger::EveryNth(1))
        .with(FaultSite::MrsAckDelay, FaultTrigger::EveryNth(3));
    let run = |engine: EngineMode| {
        robustness_experiment(&profile, Some(&plan), engine, 31, None, true).unwrap()
    };
    let (a_row, a_tele) = run(EngineMode::Stepped);
    let (b_row, b_tele) = run(EngineMode::EventDriven);
    assert!(a_row.faults_injected > 0, "the armed plan must bite");
    assert_eq!(a_row, b_row, "armed-plan rows diverged between engines");
    assert_eq!(
        a_tele.unwrap().render_jsonl("p"),
        b_tele.unwrap().render_jsonl("p"),
        "armed-plan telemetry diverged between engines"
    );
}

/// Merged telemetry shards from the sweep pool must be byte-identical for
/// `--jobs 1` and `--jobs 4`: shards merge in point-index order, never
/// completion order, so the worker count cannot leak into the output.
#[test]
fn telemetry_shards_identical_across_job_counts() {
    let cfg = DramConfig::small_test();
    let points: Vec<u64> = (0..8).collect();
    let run_point = |ctx: sweep::PointCtx, &gap: &u64| -> (String, Option<Telemetry>) {
        let seed = ctx.seed(7);
        let mut generator = TraceGenerator::new(by_name("mcf").unwrap(), seed);
        let trace: Vec<_> = fold_into(&cfg, generator.take(300))
            .into_iter()
            .map(|mut r| {
                r.arrival += gap * 500;
                r
            })
            .collect();
        let mut sys = MemorySystem::new(cfg, LowPowerPolicy::srf_default()).unwrap();
        sys.run_trace(trace).unwrap();
        let mut tele = Telemetry::new();
        sys.export_telemetry(&mut tele, "eq");
        (format!("pt{gap}"), Some(tele))
    };
    let serial = render_shards(&sweep::sweep(&points, 1, run_point));
    let parallel = render_shards(&sweep::sweep(&points, 4, run_point));
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "merged telemetry diverged between --jobs 1 and --jobs 4"
    );
}
