//! Per-rank power-state machine, refresh bookkeeping, and ACT-window
//! constraints.

use gd_types::config::DramTiming;
use std::collections::VecDeque;

/// The low-power states a DDR4 rank can occupy, as tracked for both
/// scheduling (wake-up latencies) and the power model (per-state residency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankPowerState {
    /// At least one bank has an open row; CKE high.
    ActiveStandby,
    /// All banks precharged; CKE high.
    PrechargeStandby,
    /// Precharge power-down: CKE low, clock gated, I/O off
    /// (~40–70 % of active power; 18 ns exit).
    PowerDown,
    /// Self-refresh: DLL off, DRAM refreshes itself
    /// (down to ~10 % of active power; 768 ns exit).
    SelfRefresh,
}

impl RankPowerState {
    /// True if the rank must be woken before serving a command.
    pub fn is_low_power(self) -> bool {
        matches!(
            self,
            RankPowerState::PowerDown | RankPowerState::SelfRefresh
        )
    }
}

/// Cycles spent in each rank power state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankResidency {
    /// Cycles with a row open.
    pub active_standby: u64,
    /// Cycles idle with CKE high.
    pub precharge_standby: u64,
    /// Cycles in power-down.
    pub power_down: u64,
    /// Cycles in self-refresh.
    pub self_refresh: u64,
}

impl RankResidency {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.active_standby + self.precharge_standby + self.power_down + self.self_refresh
    }

    /// Fraction of cycles in self-refresh (the paper's Fig. 3b metric).
    pub fn self_refresh_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.self_refresh as f64 / self.total() as f64
        }
    }

    pub(crate) fn add_state(&mut self, state: RankPowerState, cycles: u64) {
        match state {
            RankPowerState::ActiveStandby => self.active_standby += cycles,
            RankPowerState::PrechargeStandby => self.precharge_standby += cycles,
            RankPowerState::PowerDown => self.power_down += cycles,
            RankPowerState::SelfRefresh => self.self_refresh += cycles,
        }
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &RankResidency) {
        self.active_standby += other.active_standby;
        self.precharge_standby += other.precharge_standby;
        self.power_down += other.power_down;
        self.self_refresh += other.self_refresh;
    }
}

/// Scheduling and power state of one rank.
#[derive(Debug, Clone)]
pub(crate) struct RankCtl {
    /// Current power state.
    pub power: RankPowerState,
    /// Cycle the current power state was entered.
    pub state_since: u64,
    /// If a wake-up (PDX/SRX) is in flight, the cycle it completes.
    pub wake_at: Option<u64>,
    /// Next scheduled auto-refresh.
    pub next_refresh: u64,
    /// Refresh in progress until this cycle.
    pub refresh_until: u64,
    /// Rotating same-bank refresh set (DDR5 REFsb): the bank-in-group index
    /// the next REFsb targets. Always 0 under all-bank refresh.
    pub refresh_set: u32,
    /// Number of banks with an open row.
    pub open_banks: u32,
    /// Timestamps of the most recent ACTs (for tFAW), most recent first
    /// capped at 4.
    pub act_window: VecDeque<u64>,
    /// Earliest next ACT due to tRRD_S (any bank group).
    pub next_act_any: u64,
    /// Earliest next ACT per bank group due to tRRD_L.
    pub next_act_bg: Vec<u64>,
    /// Earliest next READ / WRITE issue due to bus-turnaround constraints.
    pub next_read: u64,
    /// Earliest next WRITE issue.
    pub next_write: u64,
    /// Last cycle this rank issued a command or had a queued request.
    pub idle_since: u64,
    /// Accumulated residency.
    pub residency: RankResidency,
    /// Number of power-down entries.
    pub pd_entries: u64,
    /// Number of self-refresh entries.
    pub sr_entries: u64,
}

impl RankCtl {
    pub fn new(bank_groups: u32, refresh_offset: u64) -> Self {
        RankCtl {
            power: RankPowerState::PrechargeStandby,
            state_since: 0,
            wake_at: None,
            next_refresh: refresh_offset,
            refresh_until: 0,
            refresh_set: 0,
            open_banks: 0,
            act_window: VecDeque::with_capacity(4),
            next_act_any: 0,
            next_act_bg: vec![0; bank_groups as usize],
            next_read: 0,
            next_write: 0,
            idle_since: 0,
            residency: RankResidency::default(),
            pd_entries: 0,
            sr_entries: 0,
        }
    }

    /// Moves to `state` at cycle `now`, accumulating residency for the state
    /// being left.
    pub fn set_power(&mut self, now: u64, state: RankPowerState) {
        debug_assert!(now >= self.state_since, "time went backwards");
        self.residency.add_state(self.power, now - self.state_since);
        self.power = state;
        self.state_since = now;
        match state {
            RankPowerState::PowerDown => self.pd_entries += 1,
            RankPowerState::SelfRefresh => self.sr_entries += 1,
            _ => {}
        }
    }

    /// Finalizes residency accounting at the end of a run.
    pub fn finish(&mut self, now: u64) {
        self.residency
            .add_state(self.power, now.saturating_sub(self.state_since));
        self.state_since = now;
    }

    /// Earliest cycle an ACT is allowed rank-wide (tRRD and tFAW).
    pub fn act_allowed_at(&self, bank_group: usize) -> u64 {
        let faw = if self.act_window.len() == 4 {
            // 4 ACTs in the window: the oldest + tFAW gates the next.
            self.act_window
                .back()
                .copied()
                .expect("invariant: a 4-entry ACT window has a back")
        } else {
            0
        };
        self.next_act_any.max(self.next_act_bg[bank_group]).max(faw)
    }

    /// Records an ACT at `now` and updates tRRD/tFAW bookkeeping.
    pub fn on_activate(&mut self, now: u64, bank_group: usize, t: &DramTiming) {
        self.next_act_any = self.next_act_any.max(now + t.t_rrd_s);
        self.next_act_bg[bank_group] = self.next_act_bg[bank_group].max(now + t.t_rrd_l);
        if self.act_window.len() == 4 {
            self.act_window.pop_back();
        }
        // Store the gate time directly: the cycle after which a 5th ACT is ok.
        self.act_window.push_front(now + t.t_faw);
        self.open_banks += 1;
    }

    /// Records a PRE (or one bank closing during PREA).
    pub fn on_precharge_bank(&mut self) {
        debug_assert!(self.open_banks > 0);
        self.open_banks = self.open_banks.saturating_sub(1);
    }

    /// True if the rank is fully precharged (required for REF, PDE, SRE).
    pub fn all_precharged(&self) -> bool {
        self.open_banks == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr4_2133_4gb()
    }

    #[test]
    fn residency_accumulates_on_transition() {
        let mut r = RankCtl::new(4, 0);
        r.set_power(100, RankPowerState::PowerDown);
        r.set_power(300, RankPowerState::PrechargeStandby);
        r.finish(350);
        assert_eq!(r.residency.precharge_standby, 100 + 50);
        assert_eq!(r.residency.power_down, 200);
        assert_eq!(r.residency.total(), 350);
        assert_eq!(r.pd_entries, 1);
    }

    #[test]
    fn faw_gates_fifth_activate() {
        let timing = t();
        let mut r = RankCtl::new(4, 0);
        for (i, now) in [0u64, 10, 20, 30].iter().enumerate() {
            r.on_activate(*now, i % 4, &timing);
        }
        // The 5th ACT must wait until the 1st + tFAW.
        assert!(r.act_allowed_at(0) >= timing.t_faw);
    }

    #[test]
    fn rrd_long_exceeds_short() {
        let timing = t();
        let mut r = RankCtl::new(4, 0);
        r.on_activate(100, 2, &timing);
        assert_eq!(r.next_act_any, 100 + timing.t_rrd_s);
        assert_eq!(r.next_act_bg[2], 100 + timing.t_rrd_l);
        assert_eq!(r.next_act_bg[0], 0);
    }

    #[test]
    fn open_bank_counting() {
        let timing = t();
        let mut r = RankCtl::new(4, 0);
        assert!(r.all_precharged());
        r.on_activate(0, 0, &timing);
        r.on_activate(5, 1, &timing);
        assert!(!r.all_precharged());
        r.on_precharge_bank();
        r.on_precharge_bank();
        assert!(r.all_precharged());
    }

    #[test]
    fn low_power_classification() {
        assert!(RankPowerState::PowerDown.is_low_power());
        assert!(RankPowerState::SelfRefresh.is_low_power());
        assert!(!RankPowerState::ActiveStandby.is_low_power());
        assert!(!RankPowerState::PrechargeStandby.is_low_power());
    }

    #[test]
    fn residency_fractions() {
        let res = RankResidency {
            active_standby: 25,
            precharge_standby: 25,
            power_down: 0,
            self_refresh: 50,
        };
        assert_eq!(res.self_refresh_fraction(), 0.5);
        assert_eq!(RankResidency::default().self_refresh_fraction(), 0.0);
    }
}
