//! The full memory system: address mapper + per-channel controllers +
//! GreenDIMM's sub-array-group deep power-down register.

use crate::addrmap::AddressMapper;
use crate::channel::ChannelCtrl;
use crate::command::{MemRequest, PendingRequest};
use crate::policy::LowPowerPolicy;
use crate::stats::RunStats;
use gd_types::config::{DramConfig, MemSpecKind, PASR_SEGMENTS};
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

/// A simulated multi-channel DDR4 memory system.
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
    /// Earliest cycle each channel could act (EventDriven mode only); a
    /// value `<= clock` means the channel must be polled.
    attention: Vec<u64>,
    group_pd: Vec<bool>,
    group_pd_since: Vec<u64>,
    group_pd_cycles: Vec<u64>,
    /// LPDDR4 PASR segment mask (MR17): masked segments are excluded from
    /// self-refresh and must receive no traffic. Empty on other backends.
    pasr_mask: Vec<bool>,
    pasr_mask_since: Vec<u64>,
    pasr_mask_cycles: Vec<u64>,
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
        let segments = if cfg.kind == MemSpecKind::Lpddr4Pasr {
            PASR_SEGMENTS as usize
        } else {
            0
        };
        Ok(MemorySystem {
            cfg,
            mapper,
            channels,
            clock: 0,
            mode: EngineMode::default(),
            attention: vec![0; n_channels],
            group_pd: vec![false; groups],
            group_pd_since: vec![0; groups],
            group_pd_cycles: vec![0; groups],
            pasr_mask: vec![false; segments],
            pasr_mask_since: vec![0; segments],
            pasr_mask_cycles: vec![0; segments],
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
    /// Returns [`GdError::InvalidConfig`] for inconsistent configurations.
    pub fn with_wake_stretch(
        mut cfg: DramConfig,
        policy: LowPowerPolicy,
        mult: u64,
    ) -> Result<Self> {
        cfg.timing.t_xp *= mult.max(1);
        cfg.timing.t_xs *= mult.max(1);
        MemorySystem::new(cfg, policy)
    }

    /// Selects the time-advance engine (see [`EngineMode`]).
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
        // Force a poll of every channel on the next iteration.
        self.attention.fill(0);
    }

    /// Builder form of [`set_engine_mode`](Self::set_engine_mode).
    #[must_use]
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.set_engine_mode(mode);
        self
    }

    /// The active time-advance engine.
    pub fn engine_mode(&self) -> EngineMode {
        self.mode
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
        // Log the MRS write (channel 0 carries the broadcast register
        // traffic) so the protocol validator can replay the bit vector.
        self.channels[0].record_mrs(self.clock, g as u32, on);
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

    /// Programs one bit of the LPDDR4 PASR segment mask (MR17). While a
    /// segment's bit is set it is excluded from self-refresh — its contents
    /// are lost — so the simulator enforces the same OS contract as deep
    /// power-down: no request may target a masked segment.
    ///
    /// # Errors
    ///
    /// * [`GdError::InvalidState`] when the configuration's backend is not
    ///   [`MemSpecKind::Lpddr4Pasr`] — PASR is an LPDDR feature.
    /// * [`GdError::NotFound`] for a segment index beyond
    ///   [`PASR_SEGMENTS`].
    pub fn set_pasr_segment(&mut self, segment: u32, masked: bool) -> Result<()> {
        if self.cfg.kind != MemSpecKind::Lpddr4Pasr {
            return Err(GdError::InvalidState(format!(
                "PASR segment mask requires the lpddr4-pasr backend, \
                 configuration is {}",
                self.cfg.kind
            )));
        }
        let s = segment as usize;
        if s >= self.pasr_mask.len() {
            return Err(GdError::NotFound(format!("PASR segment {segment}")));
        }
        if self.pasr_mask[s] == masked {
            return Ok(()); // idempotent
        }
        // Log the MR17 write (channel 0 carries the broadcast register
        // traffic) so the protocol validator can replay the mask.
        self.channels[0].record_pasr(self.clock, segment, masked);
        if masked {
            self.pasr_mask_since[s] = self.clock;
        } else {
            self.pasr_mask_cycles[s] += self.clock - self.pasr_mask_since[s];
        }
        self.pasr_mask[s] = masked;
        Ok(())
    }

    /// Whether a PASR segment is currently masked out of self-refresh.
    pub fn pasr_segment_masked(&self, segment: u32) -> bool {
        self.pasr_mask
            .get(segment as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Fraction of PASR segments currently masked (0 on non-PASR backends).
    pub fn pasr_masked_fraction(&self) -> f64 {
        if self.pasr_mask.is_empty() {
            0.0
        } else {
            self.pasr_mask.iter().filter(|b| **b).count() as f64 / self.pasr_mask.len() as f64
        }
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
    /// returns cumulative statistics.
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
        let mut iter = requests.into_iter().peekable();
        loop {
            // Feed due arrivals.
            while let Some(r) = iter.peek() {
                if r.arrival <= self.clock {
                    let req = *r;
                    iter.next();
                    self.enqueue(req)?;
                } else {
                    break;
                }
            }
            self.poll_channels();
            let busy = self.channels.iter().any(|c| c.busy());
            if !busy && iter.peek().is_none() {
                break;
            }
            if self.mode == EngineMode::Stepped {
                self.clock += 1;
            } else {
                // Jump to the next attention time or arrival. The attention
                // times are refreshed after *every* poll (successful or
                // not), so issue-dense phases advance in issue-sized steps
                // rather than `now + 1` crawls.
                let mut next = self.next_horizon();
                if let Some(r) = iter.peek() {
                    next = next.min(r.arrival);
                }
                self.clock = next.max(self.clock + 1);
            }
        }
        Ok(self.snapshot_stats())
    }

    /// Advances the system with no new traffic for `cycles` cycles
    /// (refresh and the low-power governor keep running), then returns
    /// cumulative statistics. Used for idle-power measurements (Fig. 2).
    ///
    /// In [`EngineMode::EventDriven`] a long idle stretch costs one loop
    /// iteration per *event* (refresh deadline, governor demotion, wake-up)
    /// rather than one per cycle; once every rank sits in self-refresh the
    /// remaining horizon is covered in a single jump.
    pub fn run_idle(&mut self, cycles: u64) -> RunStats {
        let target = self.clock + cycles;
        while self.clock < target {
            self.poll_channels();
            if self.mode == EngineMode::Stepped {
                self.clock += 1;
            } else {
                self.clock = self.next_horizon().max(self.clock + 1).min(target);
            }
        }
        self.snapshot_stats()
    }

    /// Polls channels at the current cycle. In the event-driven mode only
    /// channels whose attention time has arrived are visited, and every
    /// visit — successful issue or not — refreshes that channel's attention
    /// time from [`ChannelCtrl::next_poll`]. A channel issues at most one
    /// action per cycle, so the post-issue attention time is simply "when
    /// could it act next", which is exactly what the batched-arbitration
    /// jump in the run loops consumes.
    fn poll_channels(&mut self) {
        let now = self.clock;
        match self.mode {
            EngineMode::Stepped => {
                for ch in &mut self.channels {
                    ch.try_issue(now);
                }
            }
            EngineMode::EventDriven => {
                for (ch, attn) in self.channels.iter_mut().zip(self.attention.iter_mut()) {
                    if *attn > now {
                        continue;
                    }
                    ch.try_issue(now);
                    *attn = ch.next_poll(now, u64::MAX);
                }
            }
        }
    }

    /// Earliest cycle any channel needs attention (event-driven mode).
    fn next_horizon(&self) -> u64 {
        self.attention.iter().copied().min().unwrap_or(u64::MAX)
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
        if !self.pasr_mask.is_empty() {
            let seg =
                coord.full_row(self.cfg.org.rows_per_subarray) / self.cfg.rows_per_pasr_segment();
            if self.pasr_mask.get(seg as usize).copied().unwrap_or(false) {
                return Err(GdError::InvalidState(format!(
                    "request {:#x} targets PASR segment {seg} which is masked \
                     out of self-refresh",
                    req.addr
                )));
            }
        }
        let ch = coord.channel.index();
        // A new arrival can unblock the channel immediately.
        self.attention[ch] = self.clock;
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
        // Emitted only when a segment was actually masked, so non-PASR
        // telemetry stays byte-identical to the pre-PASR format.
        for (s, acc) in self.pasr_mask_cycles.iter().enumerate() {
            let live = if self.pasr_mask[s] {
                self.clock - self.pasr_mask_since[s]
            } else {
                0
            };
            let dwell = acc + live;
            if dwell > 0 {
                reg.counter_add(&format!("{scope}.dram.pasr.seg{s}.masked_cycles"), dwell);
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
    fn pasr_mask_requires_lpddr4_backend() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        let err = s.set_pasr_segment(0, true).unwrap_err();
        assert!(matches!(err, GdError::InvalidState(_)), "{err}");
    }

    #[test]
    fn pasr_masked_segment_rejects_traffic() {
        let cfg = DramConfig::small_test_lpddr4();
        let mut s = MemorySystem::new(cfg, LowPowerPolicy::disabled()).unwrap();
        // The top of the address space lives in the last segment; address 0
        // in segment 0.
        let cap = s.mapper().capacity_bytes();
        let top = cap - 64;
        let seg = gd_types::config::PASR_SEGMENTS - 1;
        s.set_pasr_segment(seg, true).unwrap();
        s.set_pasr_segment(seg, true).unwrap(); // idempotent
        let err = s.run_trace([MemRequest::read(top, 0)]).unwrap_err();
        assert!(matches!(err, GdError::InvalidState(_)), "{err}");
        assert!(s.run_trace([MemRequest::read(0, 0)]).is_ok());
        assert_eq!(s.pasr_masked_fraction(), 1.0 / f64::from(seg + 1));
        // Unmasking restores service and stops the dwell clock.
        s.set_pasr_segment(seg, false).unwrap();
        assert!(s.run_trace([MemRequest::read(top, 1)]).is_ok());
        assert_eq!(s.pasr_masked_fraction(), 0.0);
        let mut tele = gd_obs::Telemetry::new();
        s.export_telemetry(&mut tele, "t");
        assert!(
            tele.registry
                .counter(&format!("t.dram.pasr.seg{seg}.masked_cycles"))
                > 0
        );
    }

    #[test]
    fn out_of_range_pasr_segment_is_not_found() {
        let cfg = DramConfig::small_test_lpddr4();
        let mut s = MemorySystem::new(cfg, LowPowerPolicy::disabled()).unwrap();
        let err = s
            .set_pasr_segment(gd_types::config::PASR_SEGMENTS, true)
            .unwrap_err();
        assert!(matches!(err, GdError::NotFound(_)), "{err}");
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
    fn writes_complete_too() {
        let mut s = sys(InterleaveMode::Interleaved, LowPowerPolicy::disabled());
        let reqs: Vec<_> = (0..128).map(|i| MemRequest::write(i * 64, i)).collect();
        let stats = s.run_trace(reqs).unwrap();
        assert_eq!(stats.writes, 128);
    }
}
