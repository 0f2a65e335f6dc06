//! End-to-end gates for the fleet simulation: VM/capacity conservation
//! under `Strict` verification, bit-for-bit agreement of the two engines
//! on a small fleet (exact and sampled, with KSM off and on),
//! byte-identity across shard-pool worker counts, and the `sample_stride`
//! host-sampling contract.

use greendimm_suite::bench::telemetry::render_shards;
use greendimm_suite::dram::EngineMode;
use greendimm_suite::fleet::{run_fleet, schedule_fleet, FleetOutcome};
use greendimm_suite::types::fleet::{FleetConfig, FleetPlacement};
use greendimm_suite::verify::Mode;

fn small(placement: FleetPlacement, ksm: bool) -> FleetConfig {
    FleetConfig {
        placement,
        ksm,
        ..FleetConfig::small_test()
    }
}

/// Every placement policy keeps the scheduler's books conserved at every
/// tick (the Strict checker runs per tick inside `schedule_fleet`) and the
/// end-to-end fleet run completes with the same identities intact.
#[test]
fn strict_conservation_holds_for_every_placement() {
    for (placement, ksm) in [
        (FleetPlacement::BestFit, false),
        (FleetPlacement::KsmAware, true),
    ] {
        let cfg = small(placement, ksm);
        let out = run_fleet(&cfg, EngineMode::EventDriven, 2, Some(Mode::Strict), false)
            .unwrap_or_else(|e| panic!("{} fleet failed Strict: {e}", placement.name()));
        assert!(out.stats.conserved(), "{}", placement.name());
        assert!(out.stats.arrivals > 0 && out.stats.placed > 0);
        assert_eq!(out.hosts.len(), cfg.hosts);
        assert_eq!(out.utilization.len() as u64, cfg.ticks() + 1);
    }
}

/// The Strict fleet checker also holds for a sampled fleet — scheduling
/// (where the invariants live) does not depend on host sampling.
#[test]
fn strict_conservation_holds_for_a_sampled_fleet() {
    let cfg = FleetConfig {
        sample_stride: 4,
        ..small(FleetPlacement::BestFit, false)
    };
    let out = run_fleet(&cfg, EngineMode::EventDriven, 2, Some(Mode::Strict), false).unwrap();
    assert!(out.stats.conserved());
    // Hosts 0 and 4 are the exact anchors at stride 4 over 8 hosts.
    assert_eq!(out.exact_hosts, 2);
    let exact: Vec<usize> = out
        .hosts
        .iter()
        .filter(|h| h.exact)
        .map(|h| h.host)
        .collect();
    assert_eq!(exact, vec![0, 4]);
    assert!(
        out.hosts.iter().all(|h| h.exact || h.replayed_ticks > 0),
        "surrogate hosts must account their filled-in ticks"
    );
}

fn assert_outcomes_equal(a: &FleetOutcome, b: &FleetOutcome, what: &str) {
    assert_eq!(a.stats, b.stats, "stats diverged: {what}");
    assert_eq!(a.utilization, b.utilization, "utilization diverged: {what}");
    assert_eq!(a.hosts, b.hosts, "host summaries diverged: {what}");
    assert_eq!(a.exact_hosts, b.exact_hosts, "exact count diverged: {what}");
}

/// The two exact engines co-simulate hosts bit-for-bit identically: the
/// fleet outcome (scheduler books, per-host roll-ups, utilization series)
/// must not depend on the time-advance strategy, whether every host is
/// co-simulated or only every `sample_stride`-th one anchors the surrogate.
#[test]
fn exact_engines_agree_on_a_small_fleet() {
    for (placement, ksm) in [
        (FleetPlacement::BestFit, false),
        (FleetPlacement::KsmAware, true),
    ] {
        for stride in [1, 4] {
            let cfg = FleetConfig {
                sample_stride: stride,
                ..small(placement, ksm)
            };
            let stepped = run_fleet(&cfg, EngineMode::Stepped, 2, None, false).unwrap();
            let event = run_fleet(&cfg, EngineMode::EventDriven, 2, None, false).unwrap();
            let what = format!("stepped vs event-driven, ksm {ksm}, stride {stride}");
            assert_outcomes_equal(&stepped, &event, &what);
            assert_eq!(event.exact_hosts, cfg.hosts.div_ceil(stride), "{what}");
            assert!(event.mean_deep_pd_fraction() > 0.0, "{what}");
            let (a, b) = (stepped.work, event.work);
            assert_eq!(a.daemon.bodies, a.ticks, "{what}: stepped runs every body");
            assert!(b.daemon.bodies < a.daemon.bodies, "{what}: {b:?}");
            assert_eq!(
                (a.ksm_pages_scanned, a.ksm_full_passes, a.ksm_region_visits),
                (b.ksm_pages_scanned, b.ksm_full_passes, b.ksm_region_visits),
                "{what}"
            );
            assert_eq!(a.ksm_regionless_ticks, b.ksm_regionless_ticks, "{what}");
            assert_eq!(
                (a.freed_runs, a.freed_max_order_chunks),
                (b.freed_runs, b.freed_max_order_chunks),
                "{what}"
            );
            assert!(
                a.freed_runs > 0,
                "{what}: no VM memory went back a run at a time"
            );
            let released = event.hosts.iter().any(|h| h.ksm_released_pages > 0);
            assert_eq!(ksm, released, "{what}");
        }
    }
}

/// `--jobs 1` and `--jobs 4` produce identical outcomes and byte-identical
/// merged telemetry: hosts merge in index order, never completion order.
#[test]
fn fleet_outcome_is_identical_across_job_counts() {
    let cfg = small(FleetPlacement::KsmAware, true);
    let run = |jobs: usize| run_fleet(&cfg, EngineMode::EventDriven, jobs, None, true).unwrap();
    let serial = run(1);
    let parallel = run(4);
    assert_outcomes_equal(&serial, &parallel, "--jobs 1 vs --jobs 4");
    let bytes = |out: &FleetOutcome| {
        let shards: Vec<_> = out
            .telemetry
            .clone()
            .unwrap()
            .into_iter()
            .map(|(label, tele)| (label, Some(tele)))
            .collect();
        render_shards(&shards)
    };
    let a = bytes(&serial);
    assert!(!a.is_empty());
    assert_eq!(a, bytes(&parallel), "merged telemetry bytes diverged");
}

/// The schedule itself is a pure function of the config: same config, same
/// per-host event streams; and KSM-aware placement only re-routes VMs — it
/// never changes how many are placed versus abandoned in aggregate ticks.
#[test]
fn schedule_is_deterministic() {
    let cfg = small(FleetPlacement::KsmAware, true);
    let a = schedule_fleet(&cfg, None).unwrap();
    let b = schedule_fleet(&cfg, Some(Mode::Strict)).unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.host_events, b.host_events);
    assert_eq!(a.utilization, b.utilization);
}
