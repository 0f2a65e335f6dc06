//! The Azure VM-trace co-simulation behind Figs. 1, 12 and 13: a thin
//! helper that synthesizes the single-host Azure trace and replays it
//! through [`gd_fleet::host::run_host`], the one copy of the host loop
//! (the fleet drives it once per host).

use gd_fleet::host::{run_host, HostRun, HostSimConfig};
use gd_types::Result;
use gd_workloads::azure::{synthesize, AzureConfig};

/// Synthesizes the paper's Azure VM trace for `cfg` (its duration,
/// scheduler period and seed) and replays it on one host. With
/// `with_telemetry`, the run records span-scoped daemon ticks and
/// allocation-stall events as they happen, exports the mm/ksm/daemon books
/// under the `vm.*` scope at the end, and returns the filled sink.
///
/// # Errors
///
/// Propagates simulator-setup and bookkeeping errors (not kernel-level
/// off-lining failures, which are part of the experiment).
pub fn run_vm_trace(
    cfg: &HostSimConfig,
    with_telemetry: bool,
) -> Result<(HostRun, Option<gd_obs::Telemetry>)> {
    let trace = synthesize(&AzureConfig {
        duration_s: cfg.duration_s,
        schedule_period_s: cfg.schedule_period_s,
        seed: cfg.seed,
        ..AzureConfig::paper_24h()
    });
    run_host(cfg, &trace.events, with_telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_dram::EngineMode;

    /// Four hours of the paper's 256 GB host.
    fn short_test() -> HostSimConfig {
        HostSimConfig {
            duration_s: 4 * 3_600,
            ..HostSimConfig::paper_256gb()
        }
    }

    fn run(cfg: &HostSimConfig) -> HostRun {
        run_vm_trace(cfg, false).unwrap().0
    }

    #[test]
    fn greendimm_offlines_unused_blocks() {
        let out = run(&short_test());
        assert!(
            out.mean_offline_blocks() > 20.0,
            "{}",
            out.mean_offline_blocks()
        );
        assert!(out.mean_deep_pd_fraction() > 0.05);
        assert!(out.daemon.offline_events > 0);
    }

    #[test]
    fn inert_daemon_offlines_nothing() {
        let out = run(&HostSimConfig {
            greendimm: false,
            ..short_test()
        });
        assert_eq!(out.mean_offline_blocks(), 0.0);
        assert_eq!(out.daemon.offline_events, 0);
    }

    #[test]
    fn telemetry_traces_every_tick() {
        let cfg = HostSimConfig {
            ksm: true,
            ..short_test()
        };
        let (out, tele) = run_vm_trace(&cfg, true).unwrap();
        let tele = tele.expect("telemetry was enabled");
        // One span open + close per daemon tick, plus any stall spans. Each
        // scheduler step covers several daemon tick periods, so the daemon
        // ticks at least once per sample.
        let ticks = tele.registry.counter("vm.daemon.ticks");
        assert!(ticks >= out.samples.len() as u64, "{ticks} daemon ticks");
        assert!(tele.trace.events().len() as u64 >= 2 * ticks);
        assert!(tele.registry.counter("vm.ksm.pages_scanned") > 0);
        assert_eq!(
            tele.registry.counter("vm.daemon.offline_events"),
            out.daemon.offline_events
        );
        // Disabled telemetry must leave the outcome untouched.
        let (base, none) = run_vm_trace(&cfg, false).unwrap();
        assert!(none.is_none());
        assert_eq!(base.samples, out.samples);
    }

    #[test]
    fn ksm_frees_pages_and_increases_offlining() {
        let base = run(&short_test());
        let with_ksm = run(&HostSimConfig {
            ksm: true,
            ..short_test()
        });
        assert!(with_ksm.ksm_released_pages > 0);
        assert!(
            with_ksm.mean_offline_blocks() > base.mean_offline_blocks(),
            "ksm {} vs base {}",
            with_ksm.mean_offline_blocks(),
            base.mean_offline_blocks()
        );
        assert!(with_ksm.mean_used_fraction() < base.mean_used_fraction());
    }

    #[test]
    fn engines_agree_on_the_vm_trace() {
        let exact = run(&short_test());
        let stepped = run(&HostSimConfig {
            engine: EngineMode::Stepped,
            ..short_test()
        });
        assert_eq!(exact.samples, stepped.samples);
        assert_eq!(exact.daemon, stepped.daemon);
    }
}
