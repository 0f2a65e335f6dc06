//! Command-log recording and independent protocol validation.
//!
//! The controller can record every command it issues; the [`TimingChecker`]
//! then replays the log against the JEDEC constraints *independently* of
//! the scheduler's own bookkeeping. Any scheduler bug that issues a command
//! early surfaces as a [`TimingViolation`] instead of silently producing
//! optimistic latencies.
//!
//! Beyond the classic bank/rank timing constraints, the checker runs a
//! per-rank power-state machine over the PDE/PDX/SRE/SRX records the
//! controller's low-power governor emits:
//!
//! * commands issued while the rank is in power-down or self-refresh,
//! * missing tXP / tXS recovery gaps after a PDX / SRX,
//! * tCKE minimum residency between a power-down entry and its exit,
//! * REF issued while the rank is refreshing itself,
//! * entries with open banks, exits without a matching entry.
//!
//! The command bus carries one command per cycle: a channel whose log shows
//! two scheduler-issued commands in the same cycle is flagged.
//!
//! It also validates GreenDIMM's safety properties against the MRS records
//! that program the sub-array-group deep power-down bit vector: traffic
//! (ACT/RD/WR) must never touch a group whose deep-PD bit is set, and —
//! when the neighbor constraint is enabled — must not touch the sense-amp
//! buddy of a powered-down group either (§6.1 of the paper: a group in
//! deep power-down loses the sense amplifiers it shares with its
//! neighbor).

use crate::command::DramCommand;
use gd_types::config::{DramConfig, DramTiming, RefreshScheme};
use std::collections::VecDeque;
use std::fmt;

/// One logged command issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Issue cycle.
    pub cycle: u64,
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Flat bank index within the rank (bank group × banks + bank), or 0
    /// for rank-level commands. For [`DramCommand::ModeRegisterSet`]
    /// records this carries the deep power-down bit being written (1 =
    /// enter deep-PD, 0 = exit).
    pub bank: u32,
    /// Bank group index (for tRRD_L/tCCD_L checks).
    pub bank_group: u32,
    /// Full row index within the bank (sub-array × rows-per-sub-array +
    /// row) for ACT/RD/WR; 0 for other bank/rank commands. For
    /// [`DramCommand::ModeRegisterSet`] records this carries the sub-array
    /// group index being programmed.
    pub row: u32,
    /// The command.
    pub command: DramCommand,
}

/// A detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingViolation {
    /// The offending record.
    pub record: CommandRecord,
    /// Which constraint was violated.
    pub constraint: &'static str,
    /// Earliest legal cycle (equals the record's own cycle for state
    /// violations that no amount of waiting would fix).
    pub earliest_legal: u64,
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at cycle {} on ch{}/r{}/b{} violates {} (earliest legal {})",
            self.record.command,
            self.record.cycle,
            self.record.channel,
            self.record.rank,
            self.record.bank,
            self.constraint,
            self.earliest_legal
        )
    }
}

#[derive(Debug, Clone, Default)]
struct BankTrack {
    last_act: Option<u64>,
    last_read: Option<u64>,
    last_write: Option<u64>,
    last_pre: Option<u64>,
    open: bool,
}

/// Power state of a rank as reconstructed from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum PowerState {
    /// CKE high: active or precharge standby.
    #[default]
    Awake,
    /// Precharge power-down (CKE low).
    PowerDown,
    /// Self-refresh.
    SelfRefresh,
}

#[derive(Debug, Clone, Default)]
struct RankTrack {
    acts: VecDeque<u64>,
    last_act_any: Option<u64>,
    last_act_bg: Vec<Option<u64>>,
    last_ref: Option<u64>,
    /// Cycle and target set of the most recent same-bank refresh (DDR5).
    last_refsb: Option<u64>,
    last_refsb_set: u32,
    power: PowerState,
    /// Cycle of the entry command for the current low-power state.
    pde_cycle: Option<u64>,
    sre_cycle: Option<u64>,
    /// Cycle of the most recent exits (tXP / tXS recovery gates).
    last_pdx: Option<u64>,
    last_srx: Option<u64>,
}

/// Replays a command log and reports every timing or state violation.
#[derive(Debug)]
pub struct TimingChecker {
    timing: DramTiming,
    banks_per_rank: u32,
    banks_per_group: u32,
    /// Rows per sub-array; 0 disables the GreenDIMM sub-array-group checks
    /// (the group of an ACT/RD/WR is `row / rows_per_subarray`).
    rows_per_subarray: u32,
    /// The configuration's refresh scheme: REFsb records are only legal
    /// under [`RefreshScheme::SameBank`].
    scheme: RefreshScheme,
    /// When set, traffic to the sense-amp buddy (`group ^ 1`) of a
    /// deep-powered-down group is also a violation.
    neighbor_pairs: bool,
}

impl TimingChecker {
    /// Creates a checker with the GreenDIMM group checks disabled (pure
    /// JEDEC timing plus the rank power-state machine), assuming the DDR4
    /// all-bank-refresh legality table.
    pub fn new(timing: DramTiming, bank_groups: u32, banks_per_group: u32) -> Self {
        TimingChecker {
            timing,
            banks_per_rank: bank_groups * banks_per_group,
            banks_per_group,
            rows_per_subarray: 0,
            scheme: RefreshScheme::AllBank,
            neighbor_pairs: false,
        }
    }

    /// Creates a checker for a full configuration, enabling the GreenDIMM
    /// sub-array-group safety checks and the generation-specific refresh
    /// legality table (DDR5 same-bank refresh).
    pub fn for_config(cfg: &DramConfig) -> Self {
        TimingChecker {
            timing: cfg.timing,
            banks_per_rank: cfg.org.bank_groups * cfg.org.banks_per_group,
            banks_per_group: cfg.org.banks_per_group,
            rows_per_subarray: cfg.org.rows_per_subarray,
            scheme: cfg.refresh_scheme(),
            neighbor_pairs: false,
        }
    }

    /// Also flags traffic to the sense-amp buddy of a deep-powered-down
    /// group (the paper's §6.1 neighbor constraint).
    pub fn with_neighbor_pairs(mut self, enabled: bool) -> Self {
        self.neighbor_pairs = enabled;
        self
    }

    /// Checks a log (commands of one channel must appear in cycle order;
    /// the channels' slices may follow one another). MRS register writes
    /// apply to the traffic of the channel whose slice carries them.
    /// Returns all violations found.
    pub fn check(&self, log: &[CommandRecord]) -> Vec<TimingViolation> {
        let t = &self.timing;
        let mut violations = Vec::new();
        let mut banks: std::collections::HashMap<(u32, u32, u32), BankTrack> =
            std::collections::HashMap::new();
        let mut ranks: std::collections::HashMap<(u32, u32), RankTrack> =
            std::collections::HashMap::new();
        let mut last_cycle: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        // Cycle of each channel's latest command-bus record.
        let mut last_bus_cycle: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        // Deep power-down bit per sub-array group (the index is global:
        // sub-array `g` of every bank), per channel, reconstructed from that
        // channel's MRS records. Register writes are broadcast into every
        // channel's log, so each channel's slice orders them against its
        // own traffic.
        let mut deep_pd_by_channel: std::collections::HashMap<u32, Vec<bool>> =
            std::collections::HashMap::new();

        for rec in log {
            let deep_pd = deep_pd_by_channel.entry(rec.channel).or_default();
            if let Some(prev) = last_cycle.get(&rec.channel) {
                if rec.cycle < *prev {
                    violations.push(TimingViolation {
                        record: *rec,
                        constraint: "log order (per channel)",
                        earliest_legal: *prev,
                    });
                }
            }
            last_cycle.insert(rec.channel, rec.cycle);
            let bank_key = (rec.channel, rec.rank, rec.bank);
            let rank_key = (rec.channel, rec.rank);
            let rank = ranks.entry(rank_key).or_insert_with(|| RankTrack {
                last_act_bg: vec![None; 16],
                ..Default::default()
            });
            fn gap_violation(
                rec: &CommandRecord,
                cond: Option<u64>,
                constraint: &'static str,
                min_gap: u64,
            ) -> Option<TimingViolation> {
                let prev = cond?;
                (rec.cycle < prev + min_gap).then(|| TimingViolation {
                    record: *rec,
                    constraint,
                    earliest_legal: prev + min_gap,
                })
            }
            fn state_violation(rec: &CommandRecord, constraint: &'static str) -> TimingViolation {
                TimingViolation {
                    record: *rec,
                    constraint,
                    earliest_legal: rec.cycle,
                }
            }
            let check = |cond: Option<u64>, constraint: &'static str, min_gap: u64| {
                gap_violation(rec, cond, constraint, min_gap)
            };
            let mut pending: Vec<TimingViolation> = Vec::new();

            // --- Command bus: at most one scheduler-issued command per
            // channel per cycle. MRS records are exempt: the OS writes the
            // register through the sideband SPD bus (§4.3), not the command
            // bus, and stamps them with the system clock, which may equal
            // the cycle of a scheduler command. ---
            if rec.command != DramCommand::ModeRegisterSet
                && last_bus_cycle.insert(rec.channel, rec.cycle) == Some(rec.cycle)
            {
                pending.push(TimingViolation {
                    record: *rec,
                    constraint: "one command per channel per cycle",
                    earliest_legal: rec.cycle + 1,
                });
            }

            // --- Rank power-state machine (MRS is a sideband register write
            // through the SPD bus and exempt, §4.3). ---
            match rec.command {
                DramCommand::ModeRegisterSet => {}
                DramCommand::PowerDownExit => {
                    if rank.power == PowerState::PowerDown {
                        pending.extend(check(rank.pde_cycle, "tCKE", t.t_cke));
                    } else {
                        pending.push(state_violation(rec, "PDX without PDE"));
                    }
                    rank.power = PowerState::Awake;
                    rank.last_pdx = Some(rec.cycle);
                    rank.pde_cycle = None;
                }
                DramCommand::SelfRefreshExit => {
                    if rank.power == PowerState::SelfRefresh {
                        pending.extend(check(rank.sre_cycle, "tCKE", t.t_cke));
                    } else {
                        pending.push(state_violation(rec, "SRX without SRE"));
                    }
                    rank.power = PowerState::Awake;
                    rank.last_srx = Some(rec.cycle);
                    rank.sre_cycle = None;
                }
                DramCommand::PowerDownEnter => {
                    match rank.power {
                        PowerState::Awake => {
                            pending.extend(check(rank.last_pdx, "tXP", t.t_xp));
                            pending.extend(check(rank.last_srx, "tXS", t.t_xs));
                            if self.any_bank_open(&banks, rec.channel, rec.rank) {
                                pending.push(state_violation(rec, "PDE with open bank"));
                            }
                        }
                        PowerState::PowerDown => {
                            pending.push(state_violation(rec, "redundant PDE"));
                        }
                        PowerState::SelfRefresh => {
                            pending.push(state_violation(rec, "PDE in self-refresh"));
                        }
                    }
                    rank.power = PowerState::PowerDown;
                    rank.pde_cycle = Some(rec.cycle);
                }
                DramCommand::SelfRefreshEnter => {
                    match rank.power {
                        PowerState::Awake => {
                            pending.extend(check(rank.last_pdx, "tXP", t.t_xp));
                            pending.extend(check(rank.last_srx, "tXS", t.t_xs));
                            if self.any_bank_open(&banks, rec.channel, rec.rank) {
                                pending.push(state_violation(rec, "SRE with open bank"));
                            }
                        }
                        // Power-down → self-refresh promotion is legal: the
                        // governor deepens an already-gated rank without an
                        // intervening PDX.
                        PowerState::PowerDown => {}
                        PowerState::SelfRefresh => {
                            pending.push(state_violation(rec, "redundant SRE"));
                        }
                    }
                    rank.power = PowerState::SelfRefresh;
                    rank.sre_cycle = Some(rec.cycle);
                    rank.pde_cycle = None;
                }
                _ => match rank.power {
                    PowerState::PowerDown => {
                        pending.push(state_violation(rec, "command in power-down"));
                    }
                    PowerState::SelfRefresh => {
                        pending.push(state_violation(
                            rec,
                            if rec.command == DramCommand::Refresh {
                                "REF during self-refresh"
                            } else {
                                "command in self-refresh"
                            },
                        ));
                    }
                    PowerState::Awake => {
                        pending.extend(check(rank.last_pdx, "tXP", t.t_xp));
                        pending.extend(check(rank.last_srx, "tXS", t.t_xs));
                    }
                },
            }

            // --- GreenDIMM sub-array-group safety (deep-PD bit vector). ---
            // `rows_per_subarray == 0` (geometry unknown) disables these
            // checks: `checked_div` folds that gate into the division.
            match rec.command {
                DramCommand::ModeRegisterSet if self.rows_per_subarray > 0 => {
                    let g = rec.row as usize;
                    if deep_pd.len() <= g {
                        deep_pd.resize(g + 1, false);
                    }
                    deep_pd[g] = rec.bank != 0;
                }
                DramCommand::Activate | DramCommand::Read | DramCommand::Write => {
                    if let Some(g) = rec.row.checked_div(self.rows_per_subarray) {
                        let g = g as usize;
                        if deep_pd.get(g).copied().unwrap_or(false) {
                            pending.push(state_violation(rec, "deep power-down group traffic"));
                        }
                        if self.neighbor_pairs && deep_pd.get(g ^ 1).copied().unwrap_or(false) {
                            pending.push(state_violation(rec, "neighbor sense-amp pair"));
                        }
                    }
                }
                _ => {}
            }

            // --- Bank/rank timing constraints. ---
            match rec.command {
                DramCommand::Activate => {
                    let bank = banks.entry(bank_key).or_default();
                    pending.extend(check(bank.last_act, "tRC", t.t_rc));
                    pending.extend(check(bank.last_pre, "tRP", t.t_rp));
                    pending.extend(check(rank.last_act_any, "tRRD_S", t.t_rrd_s));
                    pending.extend(check(
                        rank.last_act_bg
                            .get(rec.bank_group as usize)
                            .copied()
                            .flatten(),
                        "tRRD_L",
                        t.t_rrd_l,
                    ));
                    pending.extend(check(rank.last_ref, "tRFC", t.t_rfc));
                    // A same-bank refresh only stalls its target set: ACTs
                    // to banks of that set must wait tRFCsb; other banks
                    // are free.
                    if rank.last_refsb.is_some()
                        && self.banks_per_group > 0
                        && rec.bank % self.banks_per_group == rank.last_refsb_set
                    {
                        pending.extend(check(rank.last_refsb, "tRFCsb", t.t_rfc_sb));
                    }
                    if let Some(fourth_back) = rank.acts.iter().rev().nth(3).copied() {
                        if rec.cycle < fourth_back + t.t_faw {
                            pending.push(TimingViolation {
                                record: *rec,
                                constraint: "tFAW",
                                earliest_legal: fourth_back + t.t_faw,
                            });
                        }
                    }
                    let bank = banks.entry(bank_key).or_default();
                    bank.last_act = Some(rec.cycle);
                    bank.open = true;
                    rank.last_act_any = Some(rec.cycle);
                    if (rec.bank_group as usize) < rank.last_act_bg.len() {
                        rank.last_act_bg[rec.bank_group as usize] = Some(rec.cycle);
                    }
                    rank.acts.push_back(rec.cycle);
                    if rank.acts.len() > 8 {
                        rank.acts.pop_front();
                    }
                }
                DramCommand::Read | DramCommand::Write => {
                    let bank = banks.entry(bank_key).or_default();
                    if !bank.open {
                        pending.push(TimingViolation {
                            record: *rec,
                            constraint: "column to closed bank",
                            earliest_legal: rec.cycle,
                        });
                    }
                    pending.extend(check(bank.last_act, "tRCD", t.t_rcd));
                    let bank = banks.entry(bank_key).or_default();
                    if rec.command == DramCommand::Read {
                        bank.last_read = Some(rec.cycle);
                    } else {
                        bank.last_write = Some(rec.cycle);
                    }
                }
                DramCommand::Precharge => {
                    let bank = banks.entry(bank_key).or_default();
                    pending.extend(check(bank.last_act, "tRAS", t.t_ras));
                    pending.extend(check(bank.last_read, "tRTP", t.t_rtp));
                    if let Some(w) = bank.last_write {
                        let min = t.cwl + t.burst_cycles() + t.t_wr;
                        if rec.cycle < w + min {
                            pending.push(TimingViolation {
                                record: *rec,
                                constraint: "tWR",
                                earliest_legal: w + min,
                            });
                        }
                    }
                    let bank = banks.entry(bank_key).or_default();
                    bank.last_pre = Some(rec.cycle);
                    bank.open = false;
                }
                DramCommand::PrechargeAll => {
                    for b in 0..self.banks_per_rank {
                        let bank = banks.entry((rec.channel, rec.rank, b)).or_default();
                        if bank.open {
                            bank.last_pre = Some(rec.cycle);
                            bank.open = false;
                        }
                    }
                }
                DramCommand::Refresh => {
                    // All banks of the rank must be precharged.
                    for b in 0..self.banks_per_rank {
                        if banks
                            .get(&(rec.channel, rec.rank, b))
                            .map(|bk| bk.open)
                            .unwrap_or(false)
                        {
                            pending.push(TimingViolation {
                                record: *rec,
                                constraint: "REF with open bank",
                                earliest_legal: rec.cycle,
                            });
                        }
                    }
                    pending.extend(check(rank.last_ref, "tRFC (back-to-back REF)", t.t_rfc));
                    rank.last_ref = Some(rec.cycle);
                }
                DramCommand::RefreshSameBank => {
                    if !matches!(self.scheme, RefreshScheme::SameBank { .. }) {
                        pending.push(state_violation(rec, "REFsb on all-bank refresh device"));
                    }
                    // Only the target set — one bank per group, flat index
                    // `bg * banks_per_group + set` — must be precharged.
                    let set = rec.bank;
                    let groups = self
                        .banks_per_rank
                        .checked_div(self.banks_per_group)
                        .unwrap_or(0);
                    for bg in 0..groups {
                        let b = bg * self.banks_per_group + set;
                        if banks
                            .get(&(rec.channel, rec.rank, b))
                            .map(|bk| bk.open)
                            .unwrap_or(false)
                        {
                            pending.push(state_violation(rec, "REFsb with open bank in set"));
                        }
                    }
                    pending.extend(check(
                        rank.last_refsb,
                        "tRFCsb (back-to-back REFsb)",
                        t.t_rfc_sb,
                    ));
                    rank.last_refsb = Some(rec.cycle);
                    rank.last_refsb_set = set;
                }
                _ => {}
            }
            violations.append(&mut pending);
        }
        violations
    }

    fn any_bank_open(
        &self,
        banks: &std::collections::HashMap<(u32, u32, u32), BankTrack>,
        channel: u32,
        rank: u32,
    ) -> bool {
        (0..self.banks_per_rank).any(|b| {
            banks
                .get(&(channel, rank, b))
                .map(|bk| bk.open)
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> TimingChecker {
        TimingChecker::new(DramTiming::ddr4_2133_4gb(), 4, 4)
    }

    fn rec(cycle: u64, bank: u32, bg: u32, command: DramCommand) -> CommandRecord {
        CommandRecord {
            cycle,
            channel: 0,
            rank: 0,
            bank,
            bank_group: bg,
            row: 0,
            command,
        }
    }

    /// A rank-level power record.
    fn prec(cycle: u64, command: DramCommand) -> CommandRecord {
        rec(cycle, 0, 0, command)
    }

    /// An MRS record programming group `g`'s deep-PD bit.
    fn mrs(cycle: u64, group: u32, down: bool) -> CommandRecord {
        CommandRecord {
            cycle,
            channel: 0,
            rank: 0,
            bank: u32::from(down),
            bank_group: 0,
            row: group,
            command: DramCommand::ModeRegisterSet,
        }
    }

    /// An ACT targeting a specific full row.
    fn act_row(cycle: u64, row: u32) -> CommandRecord {
        CommandRecord {
            cycle,
            channel: 0,
            rank: 0,
            bank: 0,
            bank_group: 0,
            row,
            command: DramCommand::Activate,
        }
    }

    #[test]
    fn legal_sequence_passes() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            rec(0, 0, 0, DramCommand::Activate),
            rec(t.t_rcd, 0, 0, DramCommand::Read),
            rec(t.t_ras, 0, 0, DramCommand::Precharge),
            rec(t.t_ras + t.t_rp, 0, 0, DramCommand::Activate),
        ];
        assert!(checker().check(&log).is_empty());
    }

    #[test]
    fn early_read_violates_trcd() {
        let log = vec![
            rec(0, 0, 0, DramCommand::Activate),
            rec(5, 0, 0, DramCommand::Read),
        ];
        let v = checker().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].constraint, "tRCD");
        assert!(v[0].to_string().contains("tRCD"));
    }

    #[test]
    fn early_precharge_violates_tras() {
        let log = vec![
            rec(0, 0, 0, DramCommand::Activate),
            rec(10, 0, 0, DramCommand::Precharge),
        ];
        let v = checker().check(&log);
        assert!(v.iter().any(|x| x.constraint == "tRAS"));
    }

    #[test]
    fn five_acts_in_window_violate_tfaw() {
        let t = DramTiming::ddr4_2133_4gb();
        let mut log = Vec::new();
        // Five ACTs spaced by exactly tRRD_L in distinct bank groups of two
        // alternating groups — the 5th lands inside the tFAW window.
        for i in 0..5u64 {
            log.push(rec(
                i * t.t_rrd_l,
                i as u32 % 4,
                (i % 4) as u32,
                DramCommand::Activate,
            ));
        }
        let v = checker().check(&log);
        assert!(
            v.iter().any(|x| x.constraint == "tFAW"),
            "violations: {v:?}"
        );
    }

    #[test]
    fn column_to_closed_bank_detected() {
        let log = vec![rec(100, 2, 0, DramCommand::Read)];
        let v = checker().check(&log);
        assert!(v.iter().any(|x| x.constraint == "column to closed bank"));
    }

    #[test]
    fn refresh_with_open_bank_detected() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            rec(0, 1, 0, DramCommand::Activate),
            rec(t.t_ras, 0, 0, DramCommand::Refresh),
        ];
        let v = checker().check(&log);
        assert!(v.iter().any(|x| x.constraint == "REF with open bank"));
    }

    #[test]
    fn out_of_order_log_detected() {
        let log = vec![
            rec(100, 0, 0, DramCommand::Activate),
            rec(50, 1, 1, DramCommand::Activate),
        ];
        let v = checker().check(&log);
        assert!(v.iter().any(|x| x.constraint.starts_with("log order")));
    }

    #[test]
    fn two_commands_on_one_channel_in_one_cycle_detected() {
        let t = DramTiming::ddr4_2133_4gb();
        // A READ to an open bank and an ACT to another bank group share
        // cycle `t.t_rcd`; each is legal on its own.
        let read = rec(t.t_rcd, 0, 0, DramCommand::Read);
        let act = rec(t.t_rcd, 4, 1, DramCommand::Activate);
        let v = checker().check(&[rec(0, 0, 0, DramCommand::Activate), read, act]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].constraint, "one command per channel per cycle");
        assert_eq!((v[0].record, v[0].earliest_legal), (act, t.t_rcd + 1));
        // The same two commands on different channels pass.
        let other = CommandRecord { channel: 1, ..act };
        let v = checker().check(&[rec(0, 0, 0, DramCommand::Activate), read, other]);
        assert!(v.is_empty(), "{v:?}");
        // A register write shares the cycle of a command without a flag.
        let v = checker().check(&[
            rec(0, 0, 0, DramCommand::Activate),
            read,
            mrs(t.t_rcd, 1, true),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    // --- Power-state machine ---

    #[test]
    fn legal_power_down_cycle_passes() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            prec(0, DramCommand::PowerDownEnter),
            prec(t.t_cke, DramCommand::PowerDownExit),
            prec(t.t_cke + t.t_xp, DramCommand::Activate),
        ];
        let v = checker().check(&log);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn command_in_power_down_detected() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            prec(0, DramCommand::PowerDownEnter),
            prec(t.t_cke, DramCommand::Activate),
        ];
        let v = checker().check(&log);
        assert!(
            v.iter().any(|x| x.constraint == "command in power-down"),
            "{v:?}"
        );
    }

    #[test]
    fn command_in_self_refresh_detected() {
        let log = vec![
            prec(0, DramCommand::SelfRefreshEnter),
            prec(100, DramCommand::Activate),
        ];
        let v = checker().check(&log);
        assert!(
            v.iter().any(|x| x.constraint == "command in self-refresh"),
            "{v:?}"
        );
    }

    #[test]
    fn missing_txp_after_pdx_detected() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            prec(0, DramCommand::PowerDownEnter),
            prec(t.t_cke, DramCommand::PowerDownExit),
            prec(t.t_cke + t.t_xp - 1, DramCommand::Activate),
        ];
        let v = checker().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].constraint, "tXP");
        assert_eq!(v[0].earliest_legal, t.t_cke + t.t_xp);
    }

    #[test]
    fn missing_txs_after_srx_detected() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            prec(0, DramCommand::SelfRefreshEnter),
            prec(t.t_cke, DramCommand::SelfRefreshExit),
            prec(t.t_cke + t.t_xs - 1, DramCommand::Refresh),
        ];
        let v = checker().check(&log);
        assert!(v.iter().any(|x| x.constraint == "tXS"), "{v:?}");
        // The legal variant passes.
        let ok = vec![
            prec(0, DramCommand::SelfRefreshEnter),
            prec(t.t_cke, DramCommand::SelfRefreshExit),
            prec(t.t_cke + t.t_xs, DramCommand::Refresh),
        ];
        assert!(checker().check(&ok).is_empty());
    }

    #[test]
    fn early_pdx_violates_tcke() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            prec(0, DramCommand::PowerDownEnter),
            prec(t.t_cke - 1, DramCommand::PowerDownExit),
        ];
        let v = checker().check(&log);
        assert!(v.iter().any(|x| x.constraint == "tCKE"), "{v:?}");
    }

    #[test]
    fn refresh_during_self_refresh_detected() {
        let log = vec![
            prec(0, DramCommand::SelfRefreshEnter),
            prec(1000, DramCommand::Refresh),
        ];
        let v = checker().check(&log);
        assert!(
            v.iter().any(|x| x.constraint == "REF during self-refresh"),
            "{v:?}"
        );
    }

    #[test]
    fn pde_with_open_bank_detected() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            rec(0, 1, 0, DramCommand::Activate),
            prec(t.t_ras, DramCommand::PowerDownEnter),
        ];
        let v = checker().check(&log);
        assert!(
            v.iter().any(|x| x.constraint == "PDE with open bank"),
            "{v:?}"
        );
    }

    #[test]
    fn exits_without_entries_detected() {
        let v = checker().check(&[prec(5, DramCommand::PowerDownExit)]);
        assert!(v.iter().any(|x| x.constraint == "PDX without PDE"), "{v:?}");
        let v = checker().check(&[prec(5, DramCommand::SelfRefreshExit)]);
        assert!(v.iter().any(|x| x.constraint == "SRX without SRE"), "{v:?}");
    }

    #[test]
    fn power_down_to_self_refresh_promotion_is_legal() {
        let t = DramTiming::ddr4_2133_4gb();
        let log = vec![
            prec(0, DramCommand::PowerDownEnter),
            prec(500, DramCommand::SelfRefreshEnter),
            prec(500 + t.t_cke, DramCommand::SelfRefreshExit),
            prec(500 + t.t_cke + t.t_xs, DramCommand::Activate),
        ];
        let v = checker().check(&log);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn redundant_entries_detected() {
        let v = checker().check(&[
            prec(0, DramCommand::PowerDownEnter),
            prec(100, DramCommand::PowerDownEnter),
        ]);
        assert!(v.iter().any(|x| x.constraint == "redundant PDE"), "{v:?}");
        let v = checker().check(&[
            prec(0, DramCommand::SelfRefreshEnter),
            prec(100, DramCommand::SelfRefreshEnter),
        ]);
        assert!(v.iter().any(|x| x.constraint == "redundant SRE"), "{v:?}");
    }

    // --- GreenDIMM sub-array-group safety ---

    fn gd_validator() -> TimingChecker {
        TimingChecker::for_config(&DramConfig::small_test())
    }

    #[test]
    fn traffic_to_deep_pd_group_detected() {
        let rps = DramConfig::small_test().org.rows_per_subarray;
        let log = vec![mrs(0, 1, true), act_row(100, rps + 3)];
        let v = gd_validator().check(&log);
        assert!(
            v.iter()
                .any(|x| x.constraint == "deep power-down group traffic"),
            "{v:?}"
        );
    }

    #[test]
    fn traffic_after_deep_pd_exit_is_legal() {
        let rps = DramConfig::small_test().org.rows_per_subarray;
        let log = vec![mrs(0, 1, true), mrs(50, 1, false), act_row(100, rps + 3)];
        assert!(gd_validator().check(&log).is_empty());
    }

    #[test]
    fn neighbor_pair_traffic_detected_only_when_enabled() {
        // Group 1 is down; traffic to its sense-amp buddy group 0.
        let log = vec![mrs(0, 1, true), act_row(100, 2)];
        let strictv = gd_validator().with_neighbor_pairs(true).check(&log);
        assert!(
            strictv
                .iter()
                .any(|x| x.constraint == "neighbor sense-amp pair"),
            "{strictv:?}"
        );
        // Without the constraint, buddy traffic is allowed.
        assert!(gd_validator().check(&log).is_empty());
    }

    #[test]
    fn group_checks_disabled_without_geometry() {
        // `new()` has no sub-array geometry: MRS records are inert.
        let rps = DramConfig::small_test().org.rows_per_subarray;
        let log = vec![mrs(0, 1, true), act_row(100, rps + 3)];
        assert!(checker().check(&log).is_empty());
    }

    // --- Per-backend legality: DDR5 same-bank refresh ---

    fn ddr5_validator() -> TimingChecker {
        TimingChecker::for_config(&DramConfig::small_test_ddr5())
    }

    /// A REFsb record targeting `set`.
    fn refsb(cycle: u64, set: u32) -> CommandRecord {
        rec(cycle, set, 0, DramCommand::RefreshSameBank)
    }

    #[test]
    fn refsb_on_all_bank_device_detected() {
        let v = gd_validator().check(&[refsb(0, 0)]);
        assert!(
            v.iter()
                .any(|x| x.constraint == "REFsb on all-bank refresh device"),
            "{v:?}"
        );
        // On a DDR5 configuration the same record is legal.
        assert!(ddr5_validator().check(&[refsb(0, 0)]).is_empty());
    }

    #[test]
    fn refsb_with_open_bank_in_set_detected() {
        let t = DramConfig::small_test_ddr5().timing;
        // Bank 0 of bank group 1 is open; a REFsb on set 0 targets it.
        let log = vec![
            rec(0, 2, 1, DramCommand::Activate), // flat bank 2 = bg1 bank0
            refsb(t.t_ras, 0),
        ];
        let v = ddr5_validator().check(&log);
        assert!(
            v.iter()
                .any(|x| x.constraint == "REFsb with open bank in set"),
            "{v:?}"
        );
        // A REFsb on the other set leaves the open bank alone.
        let log = vec![rec(0, 2, 1, DramCommand::Activate), refsb(t.t_ras, 1)];
        assert!(ddr5_validator().check(&log).is_empty());
    }

    #[test]
    fn back_to_back_refsb_violates_trfcsb() {
        let t = DramConfig::small_test_ddr5().timing;
        let v = ddr5_validator().check(&[refsb(0, 0), refsb(t.t_rfc_sb - 1, 1)]);
        assert!(
            v.iter()
                .any(|x| x.constraint == "tRFCsb (back-to-back REFsb)"),
            "{v:?}"
        );
        assert!(ddr5_validator()
            .check(&[refsb(0, 0), refsb(t.t_rfc_sb, 1)])
            .is_empty());
    }

    #[test]
    fn act_to_refreshed_set_waits_trfcsb_others_proceed() {
        let t = DramConfig::small_test_ddr5().timing;
        // ACT to a set-0 bank inside the tRFCsb window is a violation...
        let v = ddr5_validator().check(&[
            refsb(0, 0),
            rec(t.t_rfc_sb - 1, 0, 0, DramCommand::Activate),
        ]);
        assert!(v.iter().any(|x| x.constraint == "tRFCsb"), "{v:?}");
        // ...but an ACT to a set-1 bank during the same window is legal —
        // the whole point of same-bank refresh.
        let ok = ddr5_validator().check(&[refsb(0, 0), rec(10, 1, 0, DramCommand::Activate)]);
        assert!(ok.is_empty(), "{ok:?}");
    }
}
