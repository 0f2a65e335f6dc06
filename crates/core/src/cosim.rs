//! Epoch-level co-simulation: the daemon, the OS memory manager, and
//! (optionally) KSM advancing together in simulated time.
//!
//! Cycle simulation of a 24-hour VM trace is intractable, so the system
//! experiments advance in epochs (the daemon's 1 s monitor period): the
//! workload adjusts its footprint, KSM merges what its scan budget allows,
//! and the daemon on/off-lines blocks. DRAM power is integrated per epoch
//! from state-residency fractions.
//!
//! Most monitor ticks find free memory between the on- and off-lining
//! edges and do nothing. The event-driven engine accounts such a stretch
//! of ticks at once (see [`EpochSim::set_engine`]); the stepped engine runs
//! every tick and is the reference the two are checked against.

use crate::daemon::{Daemon, TickReport};
use gd_dram::EngineMode;
use gd_ksm::Ksm;
use gd_mmsim::{AllocationId, MemoryManager, PageKind};
use gd_obs::{Telemetry, Value};
use gd_types::ids::SubArrayGroup;
use gd_types::{Result, SimTime};
use gd_verify::obs::DaemonTickObs;

/// Keeps one allocation sized to a moving target (an application footprint
/// following its profile dynamics).
#[derive(Debug, Default)]
pub struct FootprintDriver {
    alloc: Option<AllocationId>,
    pages: u64,
}

impl FootprintDriver {
    /// Creates an empty driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current footprint in pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The backing allocation handle, if any pages are held (used to
    /// register the region with KSM).
    pub fn allocation_id(&self) -> Option<AllocationId> {
        self.alloc
    }

    /// Grows or shrinks the allocation to `target` pages.
    ///
    /// # Errors
    ///
    /// Propagates [`gd_types::GdError::OutOfMemory`] when growth exceeds
    /// on-line free memory (the caller decides whether that models swapping
    /// or an on-lining stall).
    pub fn set_target(&mut self, mm: &mut MemoryManager, target: u64) -> Result<()> {
        if target == self.pages {
            return Ok(());
        }
        match self.alloc {
            None => {
                if target > 0 {
                    self.alloc = Some(mm.allocate(target, PageKind::UserMovable)?);
                    self.pages = target;
                }
            }
            Some(id) => {
                if target > self.pages {
                    mm.grow(id, target - self.pages)?;
                    self.pages = target;
                } else {
                    let freed = mm.shrink(id, self.pages - target)?;
                    self.pages = self.pages.saturating_sub(freed);
                    if self.pages == 0 {
                        self.alloc = None;
                    }
                }
            }
        }
        Ok(())
    }

    /// Releases everything.
    ///
    /// # Errors
    ///
    /// Propagates manager errors for unknown allocations (a driver bug).
    pub fn clear(&mut self, mm: &mut MemoryManager) -> Result<()> {
        if let Some(id) = self.alloc.take() {
            if self.pages > 0 {
                match mm.free(id) {
                    // KSM may have merged the allocation away entirely
                    // behind our back; nothing left to free is fine.
                    Err(gd_types::GdError::NotFound(_)) => {}
                    other => other?,
                }
            }
        }
        self.pages = 0;
        Ok(())
    }
}

/// The epoch engine.
#[derive(Debug)]
pub struct EpochSim {
    /// The simulated OS physical memory.
    pub mm: MemoryManager,
    /// The GreenDIMM daemon.
    pub daemon: Daemon,
    /// Optional KSM daemon.
    pub ksm: Option<Ksm>,
    /// Runtime invariant checking is on (see [`crate::verify`]).
    verify: bool,
    /// Invariant evaluations run so far.
    checks_run: u64,
    /// Optional deterministic telemetry (see [`gd_obs`]). `None` keeps the
    /// hot path to a single branch per tick.
    pub telemetry: Option<Telemetry>,
    /// How [`step`](Self::step) advances through idle monitor ticks.
    engine: EngineMode,
    now: SimTime,
    next_monitor: SimTime,
}

impl EpochSim {
    /// Creates an epoch simulation at t = 0.
    pub fn new(mm: MemoryManager, daemon: Daemon, ksm: Option<Ksm>) -> Self {
        let next_monitor = daemon.config().monitor_period;
        EpochSim {
            mm,
            daemon,
            ksm,
            verify: false,
            checks_run: 0,
            telemetry: None,
            engine: EngineMode::default(),
            now: SimTime::ZERO,
            next_monitor,
        }
    }

    /// Selects how [`step`](Self::step) advances time. Both engines are
    /// exact: they leave the same state and the same [`DaemonStats`]
    /// behind.
    ///
    /// * [`EngineMode::Stepped`] runs the daemon's body at every monitor
    ///   tick: the reference.
    /// * [`EngineMode::EventDriven`] (the default) runs the same ticks, but
    ///   with KSM, telemetry and verification off it jumps to the end of
    ///   the step once [`Daemon::is_idle`] holds. An idle tick changes
    ///   nothing but the tick counters, and without KSM nothing else moves
    ///   the memory manager within a step, so every tick left in the step
    ///   is idle too and [`Daemon::skip_idle_ticks`] accounts for them.
    ///
    /// [`DaemonStats`]: crate::daemon::DaemonStats
    pub fn set_engine(&mut self, engine: EngineMode) -> &mut Self {
        self.engine = engine;
        self
    }

    /// Enables deterministic telemetry: span events around every daemon
    /// tick and allocation stall, plus an end-of-run metrics harvest via
    /// [`export_telemetry`](Self::export_telemetry).
    pub fn enable_telemetry(&mut self) -> &mut Self {
        self.telemetry = Some(Telemetry::new());
        self
    }

    /// Enables runtime invariant checking: every [`crate::verify::check`]
    /// invariant runs after each daemon tick and each allocation stall, and
    /// the first violation aborts the simulation with
    /// [`gd_types::GdError::InvalidState`].
    pub fn enable_verification(&mut self) -> &mut Self {
        self.verify = true;
        self
    }

    /// Invariant evaluations run so far (0 while verification is off).
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Runs every invariant, `tick` included when given. The caller
    /// settles the memory manager first: the checks read the block layout.
    fn verify_state(&mut self, tick: Option<&DaemonTickObs>) -> Result<()> {
        let ksm = self.ksm.as_ref();
        self.checks_run += crate::verify::invariants_evaluated(ksm.is_some(), tick.is_some());
        gd_verify::strict(crate::verify::check(&self.daemon, &self.mm, ksm, tick))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Fraction of installed capacity currently off-lined.
    pub fn offline_fraction(&self) -> f64 {
        let info = self.mm.meminfo();
        if info.installed_pages == 0 {
            0.0
        } else {
            info.offline_pages as f64 / info.installed_pages as f64
        }
    }

    /// Fraction of sub-array groups in deep power-down.
    pub fn deep_pd_fraction(&self) -> f64 {
        self.daemon.deep_pd_fraction()
    }

    /// Advances simulated time by `dt`, running KSM continuously and the
    /// daemon at its monitor period (plus the KSM fast path).
    ///
    /// # Errors
    ///
    /// Propagates daemon/manager errors that indicate bugs; kernel-level
    /// off-lining failures are handled internally.
    pub fn step(&mut self, dt: SimTime) -> Result<TickReport> {
        let target = self.now + dt;
        let mut aggregate = TickReport::default();
        while self.now < target {
            if self.skip_idle_ticks(target) {
                break;
            }
            let next = self.next_monitor.min(target);
            let slice = next - self.now;
            let mut merged = 0;
            if let Some(ksm) = &mut self.ksm {
                merged = ksm.advance(slice, &mut self.mm)?;
            }
            self.now = next;
            let fast_path = merged > 0 && self.daemon.config().ksm_fast_path;
            if self.now >= self.next_monitor || fast_path {
                let free_before = self.mm.meminfo().free_pages;
                let hotplug_before = self.daemon.stats.hotplug_time;
                if let Some(t) = self.telemetry.as_mut() {
                    t.trace.span_open(self.now, "daemon.tick");
                }
                let r = self.daemon.tick(self.now, &mut self.mm)?;
                if let Some(t) = self.telemetry.as_mut() {
                    let info = self.mm.meminfo();
                    let latency = self.daemon.stats.hotplug_time - hotplug_before;
                    t.trace.span_close(
                        self.now,
                        "daemon.tick",
                        &[
                            ("free_before", Value::U64(free_before)),
                            ("free_after", Value::U64(info.free_pages)),
                            ("offlined", Value::U64(u64::from(r.offlined))),
                            ("onlined", Value::U64(u64::from(r.onlined))),
                            ("failures", Value::U64(u64::from(r.failures))),
                            ("off_thr", Value::F64(self.daemon.effective_off_thr())),
                            ("latency_us", Value::U64(latency.as_micros())),
                        ],
                    );
                    t.registry
                        .counter_add("daemon.tick_latency_us_total", latency.as_micros());
                }
                if self.verify {
                    self.mm.settle();
                    let info = self.mm.meminfo();
                    let block_pages = self.mm.block_pages();
                    let obs = DaemonTickObs {
                        free_before,
                        free_after: info.free_pages,
                        total_after: info.total_pages,
                        offlined_pages: u64::from(r.offlined) * block_pages,
                        onlined_pages: u64::from(r.onlined) * block_pages,
                        off_thr: self.daemon.effective_off_thr(),
                        on_thr: self.daemon.config().on_thr,
                    };
                    self.verify_state(Some(&obs))?;
                }
                aggregate.offlined += r.offlined;
                aggregate.onlined += r.onlined;
                aggregate.failures += r.failures;
                if self.now >= self.next_monitor {
                    self.next_monitor += self.daemon.config().monitor_period;
                }
            }
        }
        Ok(aggregate)
    }

    /// On the event-driven engine, with KSM, telemetry and verification
    /// off and the daemon idle, accounts every monitor tick up to `target`
    /// and moves there; returns whether it did.
    fn skip_idle_ticks(&mut self, target: SimTime) -> bool {
        let skip = self.engine == EngineMode::EventDriven
            && self.ksm.is_none()
            && self.telemetry.is_none()
            && !self.verify
            && self.daemon.is_idle(&self.mm);
        if skip {
            if self.next_monitor <= target {
                let period = self.daemon.config().monitor_period;
                let ticks = (target - self.next_monitor).0 / period.0 + 1;
                self.daemon.skip_idle_ticks(ticks);
                self.next_monitor += period * ticks;
            }
            self.now = target;
        }
        skip
    }

    /// Resizes a footprint, modelling the kernel's demand-driven on-lining
    /// when growth outruns on-line free memory: the allocation stalls, the
    /// daemon on-lines blocks, and the allocation retries.
    ///
    /// # Errors
    ///
    /// Returns [`gd_types::GdError::OutOfMemory`] only if the target exceeds
    /// even the fully on-lined capacity.
    pub fn set_footprint(&mut self, fp: &mut FootprintDriver, target: u64) -> Result<()> {
        match fp.set_target(&mut self.mm, target) {
            Ok(()) => Ok(()),
            Err(gd_types::GdError::OutOfMemory {
                requested_pages, ..
            }) => {
                let now = self.now;
                if let Some(t) = self.telemetry.as_mut() {
                    // The stall count itself lives in DaemonStats (recorded
                    // even when nothing can be woken) and is exported with
                    // the other daemon counters.
                    t.trace.span_open(now, "daemon.allocation_stall");
                }
                self.daemon
                    .handle_allocation_stall(now, &mut self.mm, requested_pages)?;
                if let Some(t) = self.telemetry.as_mut() {
                    t.trace.span_close(
                        now,
                        "daemon.allocation_stall",
                        &[("requested_pages", Value::U64(requested_pages))],
                    );
                }
                if self.verify {
                    // The stall path changed hotplug + register state outside
                    // a monitor tick; re-check the state invariants.
                    self.mm.settle();
                    self.verify_state(None)?;
                }
                fp.set_target(&mut self.mm, target)
            }
            Err(e) => Err(e),
        }
    }

    /// Harvests end-of-run metrics into the enabled telemetry sink under
    /// the dotted `scope` prefix: hotplug counters and meminfo gauges from
    /// the memory manager, KSM scan/merge counters and rates, daemon
    /// counters, and per-group deep power-down dwell (ns) from the register
    /// file. No-op when telemetry is disabled.
    pub fn export_telemetry(&mut self, scope: &str) {
        let Some(mut tele) = self.telemetry.take() else {
            return;
        };
        let now = self.now;
        self.mm.export_telemetry(&mut tele, scope);
        if let Some(ksm) = &self.ksm {
            ksm.export_telemetry(&mut tele, scope, now);
        }
        let s = self.daemon.stats;
        let reg = &mut tele.registry;
        reg.counter_add(&format!("{scope}.daemon.ticks"), s.ticks);
        reg.counter_add(&format!("{scope}.daemon.offline_events"), s.offline_events);
        reg.counter_add(&format!("{scope}.daemon.online_events"), s.online_events);
        reg.counter_add(&format!("{scope}.daemon.failures_ebusy"), s.failures_ebusy);
        reg.counter_add(
            &format!("{scope}.daemon.failures_eagain"),
            s.failures_eagain,
        );
        reg.counter_add(&format!("{scope}.daemon.failures"), s.failures());
        reg.counter_add(
            &format!("{scope}.daemon.hotplug_events"),
            s.hotplug_events(),
        );
        reg.counter_add(
            &format!("{scope}.daemon.allocation_stalls"),
            s.allocation_stalls,
        );
        reg.counter_add(
            &format!("{scope}.daemon.stalls_unserved"),
            s.stalls_unserved,
        );
        reg.counter_add(&format!("{scope}.daemon.deep_pd_nacks"), s.deep_pd_nacks);
        reg.counter_add(&format!("{scope}.daemon.retries"), s.retries);
        reg.counter_add(&format!("{scope}.daemon.mrs_ack_delays"), s.mrs_ack_delays);
        reg.counter_add(
            &format!("{scope}.daemon.buddy_wake_failures"),
            s.buddy_wake_failures,
        );
        reg.counter_add(
            &format!("{scope}.daemon.hotplug_time_us"),
            s.hotplug_time.as_micros(),
        );
        reg.gauge_set(
            &format!("{scope}.daemon.degraded_groups"),
            self.daemon.degraded_groups() as f64,
        );
        // Per-site fault counters from the daemon's injector (inactive
        // injectors export nothing).
        if let Some(f) = self.daemon.fault_injector() {
            f.export_telemetry(&mut tele, scope);
        }
        let reg = &mut tele.registry;
        let regs = self.daemon.registers();
        for g in 0..regs.groups() {
            let dwell = regs.residency(SubArrayGroup::new(g), now);
            if dwell > SimTime::ZERO {
                reg.residency_add_unit(
                    &format!("{scope}.daemon.deep_pd_dwell"),
                    &format!("g{g:02}"),
                    dwell.as_nanos(),
                    "ns",
                );
            }
        }
        reg.gauge_set(
            &format!("{scope}.daemon.mean_down_fraction"),
            regs.mean_down_fraction(now),
        );
        self.telemetry = Some(tele);
    }

    /// Runs the daemon with no workload until off-lining converges (steady
    /// state before an experiment starts), up to `max_secs`.
    ///
    /// # Errors
    ///
    /// Propagates [`step`](Self::step) errors.
    pub fn settle(&mut self, max_secs: u64) -> Result<()> {
        let mut last_offline = usize::MAX;
        for _ in 0..max_secs {
            self.step(SimTime::from_secs(1))?;
            let now_offline = self.mm.offline_block_count();
            if now_offline == last_offline {
                break;
            }
            last_offline = now_offline;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GreenDimmConfig;
    use crate::groupmap::GroupMap;
    use gd_mmsim::MmConfig;

    fn sim() -> EpochSim {
        let mm = MemoryManager::new(MmConfig::small_test()).unwrap();
        let map = GroupMap::new(256 << 20, 16, 16 << 20).unwrap();
        let daemon = Daemon::new(GreenDimmConfig::paper_default(), map);
        EpochSim::new(mm, daemon, None)
    }

    #[test]
    fn settle_reaches_reserve_steady_state() {
        let mut s = sim();
        s.settle(30).unwrap();
        assert!(s.offline_fraction() > 0.7, "{}", s.offline_fraction());
        let before = s.mm.offline_block_count();
        s.step(SimTime::from_secs(5)).unwrap();
        assert_eq!(s.mm.offline_block_count(), before, "steady state");
    }

    #[test]
    fn footprint_growth_triggers_onlining() {
        let mut s = sim();
        s.settle(30).unwrap();
        let mut fp = FootprintDriver::new();
        // Target 60% of installed capacity: far beyond the 10% reserve.
        let target = s.mm.meminfo().installed_pages * 6 / 10;
        // Growth may require on-lining first; grow in steps as an app would.
        let mut current = 0;
        for _ in 0..200 {
            let step_target = (current + 2000).min(target);
            if fp.set_target(&mut s.mm, step_target).is_ok() {
                current = step_target;
            }
            s.step(SimTime::from_secs(1)).unwrap();
            if current == target {
                break;
            }
        }
        assert_eq!(current, target, "growth must eventually succeed");
        assert!(s.daemon.stats.online_events > 0);
    }

    #[test]
    fn footprint_shrink_triggers_offlining() {
        let mut s = sim();
        let mut fp = FootprintDriver::new();
        let half = s.mm.meminfo().installed_pages / 2;
        fp.set_target(&mut s.mm, half).unwrap();
        s.step(SimTime::from_secs(5)).unwrap();
        let offline_with_app = s.mm.offline_block_count();
        fp.set_target(&mut s.mm, half / 8).unwrap();
        s.step(SimTime::from_secs(10)).unwrap();
        assert!(
            s.mm.offline_block_count() > offline_with_app,
            "freed memory must be off-lined"
        );
    }

    #[test]
    fn set_footprint_stalls_and_onlines_on_demand() {
        let mut s = sim();
        s.settle(30).unwrap();
        assert!(s.offline_fraction() > 0.5);
        let mut fp = FootprintDriver::new();
        // One shot far beyond the on-line reserve: must stall + on-line.
        let target = s.mm.meminfo().installed_pages * 7 / 10;
        s.set_footprint(&mut fp, target).unwrap();
        assert_eq!(fp.pages(), target);
        assert!(s.daemon.stats.online_events > 0);
    }

    #[test]
    fn driver_clear_releases_all() {
        let mut s = sim();
        let mut fp = FootprintDriver::new();
        fp.set_target(&mut s.mm, 5000).unwrap();
        assert_eq!(fp.pages(), 5000);
        fp.clear(&mut s.mm).unwrap();
        assert_eq!(fp.pages(), 0);
        assert_eq!(s.mm.meminfo().used_pages, 0);
    }

    #[test]
    fn telemetry_spans_every_tick_and_exports_identically() {
        let run = || {
            let mut s = sim();
            s.enable_telemetry();
            s.step(SimTime::from_secs(10)).unwrap();
            s.export_telemetry("test");
            s
        };
        let s = run();
        let tele = s.telemetry.as_ref().unwrap();
        // One span_open + span_close pair per monitor tick.
        assert_eq!(tele.trace.events().len() as u64, s.daemon.stats.ticks * 2);
        assert_eq!(
            tele.registry.counter("test.daemon.ticks"),
            s.daemon.stats.ticks
        );
        assert!(tele.registry.counter("test.mm.offline_success") > 0);
        // Deterministic by construction: two identical runs render the
        // same bytes.
        let again = run();
        assert_eq!(
            tele.render_jsonl("p"),
            again.telemetry.as_ref().unwrap().render_jsonl("p")
        );
    }

    #[test]
    fn time_advances_and_monitor_fires_once_per_period() {
        let mut s = sim();
        s.step(SimTime::from_secs(10)).unwrap();
        assert_eq!(s.now(), SimTime::from_secs(10));
        assert_eq!(s.daemon.stats.ticks, 10);
    }
}
