//! The full memory system: address mapper + per-channel controllers +
//! GreenDIMM's sub-array-group deep power-down register.

use crate::addrmap::AddressMapper;
use crate::channel::ChannelCtrl;
use crate::command::{MemRequest, PendingRequest};
use crate::policy::LowPowerPolicy;
use crate::stats::RunStats;
use gd_types::config::DramConfig;
use gd_types::ids::SubArrayGroup;
use gd_types::{GdError, Result};

/// How the run loops advance simulated time.
///
/// Both modes are *exact*: they produce bit-identical [`RunStats`] and
/// telemetry — every state transition (command issue, wake-up completion,
/// refresh, governor demotion) lands on the same cycle either way.
/// `Stepped` is the reference implementation the equivalence suite checks
/// the fast path against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Reference semantics: poll every channel on every cycle.
    Stepped,
    /// Event-driven fast-forward (default): each channel carries an
    /// *attention time* — the earliest cycle it could possibly act, taken
    /// from [`ChannelCtrl::next_event`] (queued-request readiness, wake-up
    /// completion, tREFI deadline, idle-timeout governor deadline). Channels
    /// whose attention time lies in the future are skipped, and the clock
    /// jumps straight to the next horizon (minimum attention time or next
    /// request arrival) instead of stepping cycle by cycle. Because
    /// `next_event` is exact for issue gates too, the jump happens after
    /// *successful* polls as well — the batched-arbitration property that
    /// makes traffic-dense traces cheap. Per-state residency needs no
    /// special casing: it is integrated at transition boundaries, which
    /// both modes hit on identical cycles.
    #[default]
    EventDriven,
}

/// Deterministic work counts of a [`MemorySystem`]'s run loops.
///
/// Kept out of [`RunStats`] on purpose: the engines differ here by design —
/// [`EngineMode::Stepped`] polls every channel on every cycle, while
/// [`EngineMode::EventDriven`] polls a channel only when it could act. The
/// counts do not depend on the machine, so a test can pin how much work the
/// event engine does per command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollCounts {
    /// Channel polls (`try_issue` calls).
    pub polls: u64,
    /// Polls on which the channel issued a command, power-down and
    /// self-refresh entries and exits included.
    pub issuing: u64,
    /// Banks the channels' arbitration scans and `next_event` examined.
    /// Both visit only banks with a request queued, so this grows with the
    /// queued work, not with the number of banks a channel has.
    pub bank_visits: u64,
    /// ACTs that reopened the row their bank's last row-conflict PRE
    /// closed: each is a PRE/ACT pair spent on a row the bank already had
    /// open. It counts scheduler decisions, so both engines read the same.
    pub reopened_rows: u64,
}

impl PollCounts {
    fn record(&mut self, issued: bool) {
        self.polls += 1;
        self.issuing += u64::from(issued);
    }
}

/// A simulated multi-channel memory system (DDR4, DDR5 or LPDDR4-PASR,
/// per the configuration's [`MemSpecKind`]).
///
/// The system exposes GreenDIMM's hardware interface: a bit-vector register
/// with one bit per sub-array group ([`set_group_deep_pd`]). While a group's
/// bit is set, its sub-arrays are not refreshed and their peripheral/IO
/// circuits are power-gated; the simulator enforces the OS contract that no
/// request ever targets a deep-powered-down group.
///
/// [`set_group_deep_pd`]: MemorySystem::set_group_deep_pd
#[derive(Debug)]
pub struct MemorySystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    channels: Vec<ChannelCtrl>,
    clock: u64,
    mode: EngineMode,
    /// Earliest cycle each channel could act (the next cycle in Stepped
    /// mode); a value `<= clock` means the channel must be polled.
    attention: Vec<u64>,
    /// The first cycle the channels have not been polled on. It outlives
    /// each run call, so a request arriving on the cycle a call ended does
    /// not get its channel polled on that cycle a second time.
    first_unpolled: u64,
    group_pd: Vec<bool>,
    group_pd_since: Vec<u64>,
    group_pd_cycles: Vec<u64>,
    polls: PollCounts,
}

impl MemorySystem {
    /// Builds a memory system.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] for inconsistent configurations.
    pub fn new(cfg: DramConfig, policy: LowPowerPolicy) -> Result<Self> {
        cfg.validate()?;
        let mapper = AddressMapper::new(&cfg)?;
        let channels = (0..cfg.org.channels)
            .map(|i| ChannelCtrl::with_index(&cfg, policy, i))
            .collect();
        let groups = cfg.org.subarray_groups() as usize;
        let n_channels = cfg.org.channels as usize;
        Ok(MemorySystem {
            cfg,
            mapper,
            channels,
            clock: 0,
            mode: EngineMode::default(),
            attention: vec![0; n_channels],
            first_unpolled: 0,
            group_pd: vec![false; groups],
            group_pd_since: vec![0; groups],
            group_pd_cycles: vec![0; groups],
            polls: PollCounts::default(),
        })
    }

    /// Builds a memory system whose power-down/self-refresh wake latencies
    /// (tXP, tXS) are stretched `mult`× — the `gd-faults` WakeStretch
    /// site's worst-case wake model. The stretch is applied to the
    /// configuration before any channel is built, so both engine modes see
    /// identical timing and stay bit-equivalent.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] when `mult` is 0 (a wake-up cannot
    /// take no time) and for inconsistent configurations.
    pub fn with_wake_stretch(
        mut cfg: DramConfig,
        policy: LowPowerPolicy,
        mult: u64,
    ) -> Result<Self> {
        if mult == 0 {
            return Err(GdError::InvalidConfig(
                "wake stretch multiplier must be at least 1, got 0".into(),
            ));
        }
        cfg.timing.t_xp *= mult;
        cfg.timing.t_xs *= mult;
        MemorySystem::new(cfg, policy)
    }

    /// Selects the time-advance engine (see [`EngineMode`]).
    #[must_use]
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        // Poll every channel on the first cycle not yet polled.
        self.attention.fill(self.clock.max(self.first_unpolled));
        self
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address mapper (decode/encode, sub-array group ranges).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Current simulated clock, in memory cycles.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Channel polls made so far, how many of them issued something, and
    /// how many banks they examined (see [`PollCounts`]).
    pub fn poll_counts(&self) -> PollCounts {
        PollCounts {
            bank_visits: self.channels.iter().map(ChannelCtrl::bank_visits).sum(),
            reopened_rows: self.channels.iter().map(ChannelCtrl::reopened_rows).sum(),
            ..self.polls
        }
    }

    /// Enables command logging on every channel (see
    /// [`crate::validate::TimingChecker`]).
    pub fn enable_command_log(&mut self) {
        for ch in &mut self.channels {
            ch.enable_log();
        }
    }

    /// Drains the accumulated command logs of every channel, concatenated
    /// channel-by-channel (each channel's slice is cycle-ordered).
    pub fn take_command_log(&mut self) -> Vec<crate::validate::CommandRecord> {
        let mut out = Vec::new();
        for ch in &mut self.channels {
            out.extend(ch.take_log());
        }
        out
    }

    /// Drains the command logs and replays them through the full protocol
    /// validator (JEDEC timing, rank power-state machine, and the GreenDIMM
    /// sub-array-group safety checks). Returns every violation found.
    ///
    /// `neighbor_pairs` additionally forbids traffic to the sense-amp buddy
    /// of a deep-powered-down group; enable it when the OS daemon runs with
    /// the §6.1 neighbor constraint.
    pub fn validate_command_log(
        &mut self,
        neighbor_pairs: bool,
    ) -> Vec<crate::validate::TimingViolation> {
        let log = self.take_command_log();
        crate::validate::TimingChecker::for_config(&self.cfg)
            .with_neighbor_pairs(neighbor_pairs)
            .check(&log)
    }

    /// Programs one bit of the deep power-down register.
    ///
    /// Entering deep power-down is immediate (an MRS broadcast); exiting
    /// costs [`DramTiming::deep_power_down_exit_ns`] before the group can
    /// serve requests, which callers (the GreenDIMM daemon) model by polling
    /// a ready bit — simulated here by advancing the clock.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an out-of-range group.
    ///
    /// [`DramTiming::deep_power_down_exit_ns`]: gd_types::config::DramTiming::deep_power_down_exit_ns
    pub fn set_group_deep_pd(&mut self, group: SubArrayGroup, on: bool) -> Result<()> {
        let g = group.index();
        if g >= self.group_pd.len() {
            return Err(GdError::NotFound(format!("sub-array group {group}")));
        }
        if self.group_pd[g] == on {
            return Ok(()); // idempotent
        }
        // Log the broadcast MRS write into every channel's log, so the
        // protocol validator replays the bit vector against each channel's
        // traffic in issue order.
        for ch in &mut self.channels {
            ch.record_mrs(self.clock, g as u32, on);
        }
        if on {
            self.group_pd_since[g] = self.clock;
        } else {
            self.group_pd_cycles[g] += self.clock - self.group_pd_since[g];
            // Model the 18 ns exit latency: the register write completes and
            // the ready bit flips after the exit interval.
            let exit_cycles =
                gd_types::SimTime::from_secs_f64(self.cfg.timing.deep_power_down_exit_ns * 1e-9)
                    .to_cycles(self.cfg.timing.clock_mhz)
                    .as_u64();
            self.clock += exit_cycles;
        }
        self.group_pd[g] = on;
        Ok(())
    }

    /// Whether a group is currently in deep power-down.
    pub fn group_deep_pd(&self, group: SubArrayGroup) -> bool {
        self.group_pd.get(group.index()).copied().unwrap_or(false)
    }

    /// Number of groups currently in deep power-down.
    pub fn groups_in_deep_pd(&self) -> usize {
        self.group_pd.iter().filter(|b| **b).count()
    }

    /// Runs a request trace (sorted by arrival cycle) to completion and
    /// returns cumulative statistics. The clock stops on the cycle the last
    /// request is served.
    ///
    /// # Errors
    ///
    /// * [`GdError::AddressOutOfRange`] for addresses beyond capacity.
    /// * [`GdError::InvalidState`] if a request targets a sub-array group in
    ///   deep power-down — the OS contract GreenDIMM relies on (off-lined
    ///   blocks receive no traffic) has been violated.
    pub fn run_trace<I>(&mut self, requests: I) -> Result<RunStats>
    where
        I: IntoIterator<Item = MemRequest>,
    {
        self.advance(requests.into_iter(), None)?;
        Ok(self.snapshot_stats())
    }

    /// Advances the system with no new traffic for `cycles` cycles
    /// (refresh and the low-power governor keep running), then returns
    /// cumulative statistics. Used for idle-power measurements (Fig. 2).
    ///
    /// In [`EngineMode::EventDriven`] a long idle stretch costs one loop
    /// iteration per cycle on which some channel can act — a refresh (the
    /// power-down exit, the REF, the re-entry once its tRFC window closes),
    /// a governor demotion, a wake-up completion — never one per cycle in
    /// between; once every rank sits in self-refresh the remaining horizon
    /// is covered in a single jump.
    pub fn run_idle(&mut self, cycles: u64) -> RunStats {
        let until = self.clock + cycles;
        self.advance(std::iter::empty(), Some(until))
            .expect("invariant: an idle run enqueues nothing, so nothing is rejected");
        self.snapshot_stats()
    }

    /// The advance loop of both run calls and both engines: enqueue the
    /// arrivals due by the clock, poll the channels whose attention time has
    /// come, and move the clock to the earliest attention time or arrival,
    /// never past `until`. It stops on reaching `until`, a cycle it does not
    /// poll; without one, on the cycle a poll leaves no request queued and
    /// none to arrive. The engines differ only in how `poll_channels`
    /// re-arms a channel; under the stepped rule the earliest attention
    /// time is always the next cycle.
    fn advance<I>(&mut self, arrivals: I, until: Option<u64>) -> Result<()>
    where
        I: Iterator<Item = MemRequest>,
    {
        let mut arrivals = arrivals.peekable();
        let end = until.unwrap_or(u64::MAX);
        while self.clock < end {
            while let Some(req) = arrivals.next_if(|r| r.arrival <= self.clock) {
                self.enqueue(req)?;
            }
            self.poll_channels();
            let next_arrival = arrivals.peek().map(|r| r.arrival);
            if until.is_none()
                && next_arrival.is_none()
                && !self.channels.iter().any(ChannelCtrl::busy)
            {
                break;
            }
            let next_attention = self.attention.iter().copied().min();
            self.clock = next_attention
                .unwrap_or(u64::MAX)
                .min(next_arrival.unwrap_or(u64::MAX))
                .max(self.clock + 1)
                .min(end);
        }
        Ok(())
    }

    /// Polls the channels whose attention time has arrived at the current
    /// cycle, and re-arms each one it visits: the event-driven mode to
    /// [`ChannelCtrl::next_poll`], "when could it act next", which is
    /// exactly what the batched-arbitration jump in the advance loop
    /// consumes; the stepped mode to the next cycle. The cycle then counts
    /// as polled for every channel, skipped ones included: an arrival later
    /// in it arms its channel for the next cycle (see `enqueue`). So a
    /// channel is polled, and issues a command, at most once per cycle, and
    /// both modes first see an arrival on the same cycle.
    fn poll_channels(&mut self) {
        let now = self.clock;
        for (ch, attn) in self.channels.iter_mut().zip(self.attention.iter_mut()) {
            if *attn > now {
                continue;
            }
            self.polls.record(ch.try_issue(now));
            *attn = match self.mode {
                EngineMode::Stepped => now + 1,
                EngineMode::EventDriven => ch.next_poll(now, u64::MAX),
            };
        }
        self.first_unpolled = now + 1;
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<()> {
        let coord = self.mapper.decode(req.addr)?;
        let group = coord.subarray_group();
        if self.group_deep_pd(group) {
            return Err(GdError::InvalidState(format!(
                "request {:#x} targets sub-array group {} which is in deep power-down",
                req.addr,
                group.index()
            )));
        }
        let ch = coord.channel.index();
        // A new arrival can unblock the channel on the first cycle it has
        // not been polled on yet.
        self.attention[ch] = self.clock.max(self.first_unpolled);
        self.channels[ch].enqueue(PendingRequest { req, coord }, self.clock);
        Ok(())
    }

    /// Collects cumulative statistics without consuming the system.
    pub fn snapshot_stats(&mut self) -> RunStats {
        for ch in &mut self.channels {
            ch.finish(self.clock);
        }
        let mut stats = RunStats {
            cycles: self.clock,
            ..Default::default()
        };
        for ch in &self.channels {
            let c = &ch.counters;
            stats.reads += c.reads;
            stats.writes += c.writes;
            stats.activates += c.activates;
            stats.precharges += c.precharges;
            stats.refreshes += c.refreshes;
            stats.row_hits += c.row_hits;
            stats.row_misses += c.row_misses;
            stats.row_conflicts += c.row_conflicts;
            stats.read_latency.merge(&c.read_latency);
            let (pd, sr) = ch.lp_entries();
            stats.pd_entries += pd;
            stats.sr_entries += sr;
            stats.rank_residency.extend(ch.residencies());
        }
        stats.group_deep_pd_cycles = self
            .group_pd_cycles
            .iter()
            .zip(self.group_pd.iter().zip(self.group_pd_since.iter()))
            .map(|(acc, (on, since))| {
                if *on {
                    acc + (self.clock - since)
                } else {
                    *acc
                }
            })
            .collect();
        stats
    }

    /// Exports cumulative DRAM telemetry into `tele` under the dotted
    /// `scope` prefix: per-channel command counters and queue depths,
    /// per-rank power-state residency histograms (cycles), low-power entry
    /// counts, and per-group deep power-down dwell (non-zero groups only).
    ///
    /// Residency is integrated at transition boundaries, so both
    /// [`EngineMode`]s export bit-identical values — the property the
    /// telemetry-determinism tests pin down.
    pub fn export_telemetry(&mut self, tele: &mut gd_obs::Telemetry, scope: &str) {
        for ch in &mut self.channels {
            ch.finish(self.clock);
        }
        let reg = &mut tele.registry;
        reg.counter_add(&format!("{scope}.dram.cycles"), self.clock);
        for (ci, ch) in self.channels.iter().enumerate() {
            let p = format!("{scope}.dram.ch{ci}");
            let c = &ch.counters;
            reg.counter_add(&format!("{p}.reads"), c.reads);
            reg.counter_add(&format!("{p}.writes"), c.writes);
            reg.counter_add(&format!("{p}.activates"), c.activates);
            reg.counter_add(&format!("{p}.precharges"), c.precharges);
            reg.counter_add(&format!("{p}.refreshes"), c.refreshes);
            reg.counter_add(&format!("{p}.row_hits"), c.row_hits);
            reg.counter_add(&format!("{p}.row_conflicts"), c.row_conflicts);
            let (pd, sr) = ch.lp_entries();
            reg.counter_add(&format!("{p}.pd_entries"), pd);
            reg.counter_add(&format!("{p}.sr_entries"), sr);
            reg.gauge_set(&format!("{p}.queue_depth"), ch.queue_len() as f64);
            for (ri, r) in ch.residencies().iter().enumerate() {
                let key = format!("{p}.rank{ri}");
                reg.residency_add(&key, "ActiveStandby", r.active_standby);
                reg.residency_add(&key, "PrechargeStandby", r.precharge_standby);
                reg.residency_add(&key, "PowerDown", r.power_down);
                reg.residency_add(&key, "SelfRefresh", r.self_refresh);
            }
        }
        for (g, acc) in self.group_pd_cycles.iter().enumerate() {
            let live = if self.group_pd[g] {
                self.clock - self.group_pd_since[g]
            } else {
                0
            };
            let dwell = acc + live;
            if dwell > 0 {
                reg.counter_add(&format!("{scope}.dram.group{g:02}.deep_pd_cycles"), dwell);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_types::config::InterleaveMode;

    fn sys(mode: InterleaveMode, policy: LowPowerPolicy) -> MemorySystem {
        MemorySystem::new(DramConfig::small_test().with_interleave(mode), policy).unwrap()
    }

    fn seq_reads(n: u64, stride: u64, gap: u64) -> Vec<MemRequest> {
        (0..n)
            .map(|i| MemRequest::read(i * stride, i * gap))
            .collect()
    }

    #[test]
    fn trace_of_reads_completes() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        let stats = s.run_trace(seq_reads(256, 64, 4)).unwrap();
        assert_eq!(stats.reads, 256);
        assert!(stats.cycles > 0);
        assert_eq!(stats.read_latency.count(), 256);
    }

    #[test]
    fn interleaving_beats_linear_on_streaming_bandwidth() {
        // A dense streaming read pattern finishes much faster with channel
        // interleaving than when it serializes on one rank (Fig. 3a).
        let reqs = seq_reads(2048, 64, 1);
        let mut inter = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        let si = inter.run_trace(reqs.clone()).unwrap();
        let mut lin = sys(InterleaveMode::Linear, LowPowerPolicy::disabled());
        let sl = lin.run_trace(reqs).unwrap();
        assert!(
            (si.cycles as f64) < sl.cycles as f64 * 0.6,
            "interleaved {} vs linear {}",
            si.cycles,
            sl.cycles
        );
    }

    #[test]
    fn linear_mode_lets_idle_ranks_self_refresh() {
        // Small footprint + linear mapping: only rank 0 of channel 0 sees
        // traffic; everyone else enters self-refresh (Fig. 3b). The trace
        // loops over a 64 KB footprint, as a real working set would.
        let reqs: Vec<MemRequest> = (0..2048u64)
            .map(|i| MemRequest::read((i * 64 * 13) % 65_536, i * 50))
            .collect();
        let mut lin = sys(InterleaveMode::Linear, LowPowerPolicy::srf_default());
        let sl = lin.run_trace(reqs.clone()).unwrap();
        assert!(
            sl.mean_self_refresh_fraction() > 0.3,
            "linear SR fraction {}",
            sl.mean_self_refresh_fraction()
        );
        // With interleaving the same trace touches every rank often enough
        // that self-refresh residency collapses.
        let mut inter = sys(InterleaveMode::Interleaved, LowPowerPolicy::srf_default());
        let si = inter.run_trace(reqs).unwrap();
        assert!(
            si.mean_self_refresh_fraction() < sl.mean_self_refresh_fraction() / 2.0,
            "interleaved {} vs linear {}",
            si.mean_self_refresh_fraction(),
            sl.mean_self_refresh_fraction()
        );
    }

    #[test]
    fn deep_pd_register_tracks_residency() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        s.set_group_deep_pd(SubArrayGroup::new(7), true).unwrap();
        let stats = s.run_idle(10_000);
        assert!(stats.group_deep_pd_cycles[7] >= 10_000);
        assert_eq!(stats.group_deep_pd_cycles[0], 0);
        assert_eq!(s.groups_in_deep_pd(), 1);
    }

    #[test]
    fn request_to_deep_pd_group_is_rejected() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        // Group of address at the top of the address space.
        let cap = s.mapper().capacity_bytes();
        let addr = cap - 64;
        let g = s.mapper().subarray_group_of(addr).unwrap();
        s.set_group_deep_pd(g, true).unwrap();
        let err = s.run_trace([MemRequest::read(addr, 0)]).unwrap_err();
        assert!(matches!(err, GdError::InvalidState(_)));
        // Address 0 lives in group 0 and still works.
        assert!(s.run_trace([MemRequest::read(0, 0)]).is_ok());
    }

    #[test]
    fn deep_pd_exit_is_idempotent_and_costs_time() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        let g = SubArrayGroup::new(2);
        s.set_group_deep_pd(g, true).unwrap();
        s.set_group_deep_pd(g, true).unwrap(); // no-op
        let before = s.clock();
        s.set_group_deep_pd(g, false).unwrap();
        assert!(s.clock() > before, "exit latency must advance the clock");
        s.set_group_deep_pd(g, false).unwrap(); // no-op
        assert!(!s.group_deep_pd(g));
    }

    #[test]
    fn ddr5_same_bank_refresh_drains_and_completes() {
        let cfg = DramConfig::small_test_ddr5();
        let mut s = MemorySystem::new(cfg, LowPowerPolicy::disabled()).unwrap();
        s.enable_command_log();
        let reqs: Vec<MemRequest> = (0..512u64)
            .map(|i| MemRequest::read((i * 64 * 17) % (1 << 20), i * 40))
            .collect();
        let stats = s.run_trace(reqs).unwrap();
        // The controller's REFsb schedule must satisfy the independent
        // DDR5 legality table (set precharged, tRFCsb spacing).
        let violations = s.validate_command_log(false);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.reads, 512);
        // Same-bank refresh fires `sets` times per tREFI per rank, so over
        // the run the REFsb count dwarfs what all-bank REF would issue.
        let intervals = stats.cycles / cfg.timing.t_refi;
        assert!(
            stats.refreshes >= intervals,
            "REFsb count {} should exceed the all-bank interval count {}",
            stats.refreshes,
            intervals
        );
    }

    #[test]
    fn idle_run_accumulates_low_power_residency() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::srf_default());
        let stats = s.run_idle(200_000);
        let res = stats.total_residency();
        assert!(
            res.self_refresh + res.power_down > res.total() / 2,
            "idle DRAM should mostly sit in low-power states: {res:?}"
        );
        // Refreshes happened before the ranks entered self-refresh or the
        // first interval elapsed.
        assert_eq!(stats.reads + stats.writes, 0);
    }

    #[test]
    fn telemetry_residency_sums_to_clock() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::srf_default());
        s.run_idle(100_000);
        let mut tele = gd_obs::Telemetry::new();
        s.export_telemetry(&mut tele, "t");
        let clock = s.clock();
        let mut ranks = 0;
        for (key, h) in tele.registry.residencies() {
            assert_eq!(h.total(), clock, "residency of {key} must sum to clock");
            ranks += 1;
        }
        let cfg = DramConfig::small_test();
        assert_eq!(
            ranks,
            (cfg.org.channels * cfg.org.ranks_per_channel) as usize
        );
        assert_eq!(tele.registry.counter("t.dram.cycles"), clock);
    }

    #[test]
    fn wake_stretch_slows_wakes_but_a_1x_stretch_is_identity() {
        let cfg = DramConfig::small_test();
        let plain = MemorySystem::new(cfg, LowPowerPolicy::srf_default()).unwrap();
        let one = MemorySystem::with_wake_stretch(cfg, LowPowerPolicy::srf_default(), 1).unwrap();
        assert_eq!(plain.config(), one.config(), "1x stretch changes nothing");
        let four = MemorySystem::with_wake_stretch(cfg, LowPowerPolicy::srf_default(), 4).unwrap();
        assert_eq!(four.config().timing.t_xp, cfg.timing.t_xp * 4);
        assert_eq!(four.config().timing.t_xs, cfg.timing.t_xs * 4);
        // A sparse trace that forces low-power entries between requests
        // pays the stretched wake latency on every re-entry.
        let reqs = seq_reads(64, 64, 20_000);
        let mut fast = MemorySystem::new(cfg, LowPowerPolicy::srf_default()).unwrap();
        let mut slow =
            MemorySystem::with_wake_stretch(cfg, LowPowerPolicy::srf_default(), 16).unwrap();
        let fast_lat = fast
            .run_trace(reqs.clone())
            .unwrap()
            .read_latency
            .mean()
            .unwrap_or(0.0);
        let slow_lat = slow
            .run_trace(reqs)
            .unwrap()
            .read_latency
            .mean()
            .unwrap_or(0.0);
        assert!(
            slow_lat > fast_lat,
            "stretched wakes must raise mean latency: {slow_lat} vs {fast_lat}"
        );
    }

    #[test]
    fn zero_wake_stretch_is_rejected() {
        let err = MemorySystem::with_wake_stretch(
            DramConfig::small_test(),
            LowPowerPolicy::srf_default(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, GdError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn writes_complete_too() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        let reqs: Vec<_> = (0..128).map(|i| MemRequest::write(i * 64, i)).collect();
        let stats = s.run_trace(reqs).unwrap();
        assert_eq!(stats.writes, 128);
    }
}
