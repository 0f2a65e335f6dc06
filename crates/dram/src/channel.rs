//! Per-channel memory controller: FR-FCFS scheduling, refresh, low-power
//! governor, and timing enforcement.
//!
//! # Scheduling structure (batched arbitration)
//!
//! Requests live in per-bank FIFOs ordered by a global arrival sequence
//! number. FR-FCFS only ever needs three *candidates* per bank — the oldest
//! row-matching read, the oldest row-matching write, and the oldest request
//! whose row is not the open row, which needs an ACT (after a PRE, on a
//! conflict) — because within each class all members share the same
//! issuability conditions, so the globally oldest issuable request is
//! always one of the per-bank class heads. The
//! candidates are cached and invalidated only when the bank's row state or
//! FIFO contents change, which turns the per-poll cost from O(queue depth)
//! into O(banks with a request queued). A per-channel occupancy bitset (bit
//! `b` set iff bank `b`'s FIFO is non-empty) is the only way the arbiter
//! and `next_event` reach the banks, so an idle bank costs nothing. One scan
//! over the occupied banks finds both the oldest ready row hit and the
//! oldest request that can move; the hit wins. `next_event` uses the same
//! candidates to compute an exact earliest-action cycle, so the driving
//! loop can jump the clock in issue-sized steps instead of `now + 1` polls
//! (see DESIGN.md §6.2 for the decision-stability argument).

use crate::bank::{BankArray, ROW_NONE};
use crate::command::{AccessKind, DramCommand, PendingRequest};
use crate::policy::LowPowerPolicy;
use crate::rank::{RankCtl, RankPowerState, RankResidency};
use crate::validate::CommandRecord;
use gd_types::config::{DramConfig, DramTiming, RefreshScheme};
use gd_types::stats::Summary;
use std::collections::{BTreeMap, VecDeque};

/// Event/command counters local to one channel.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelCounters {
    pub reads: u64,
    pub writes: u64,
    pub activates: u64,
    pub precharges: u64,
    pub refreshes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    pub read_latency: Summary,
}

/// One request inside a per-bank FIFO.
#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    /// Global arrival order — the FCFS priority across all banks.
    seq: u64,
    req: crate::command::MemRequest,
    /// Device-level full row (sub-array bits above local-row bits).
    row: u32,
    /// Set when this request's own ACT opened its row; a column command
    /// served without one is a row hit. Whether the request *needs* an ACT
    /// is not stored: it does iff its row is not the bank's open row.
    activated: bool,
}

/// One cached candidate: its FIFO position and its arrival sequence number
/// (its age), kept together so the scan compares ages without reading the
/// FIFO. A removal ahead of it shifts the position; the sequence number
/// never changes.
#[derive(Debug, Clone, Copy)]
struct Cand {
    pos: usize,
    seq: u64,
}

impl Cand {
    fn at(pos: usize, q: &QueuedReq) -> Option<Self> {
        Some(Cand { pos, seq: q.seq })
    }
}

/// Cached FR-FCFS candidates for one bank: the oldest row-matching read,
/// the oldest row-matching write, and the oldest request whose row is not
/// the open row (it needs an ACT, or a PRE first on a conflict).
/// Invalidated when the bank's row state or FIFO membership changes.
#[derive(Debug, Clone, Copy, Default)]
struct BankCands {
    valid: bool,
    col_read: Option<Cand>,
    col_write: Option<Cand>,
    act: Option<Cand>,
}

/// Rank and bank group of one bank, looked up in the channel's geometry
/// table so the per-bank paths divide nothing.
#[derive(Debug, Clone, Copy)]
struct BankGeom {
    rank: usize,
    group: usize,
}

/// The command one arbitration poll issues: a ready row-hit column
/// command, or else the action that moves the globally oldest movable
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Column { bank: usize, pos: usize },
    Wake { rank: usize },
    Precharge { bank: usize },
    Activate { bank: usize, pos: usize },
}

/// What the arbitration scan may do for the requests of one rank.
#[derive(Clone, Copy)]
enum RankGate {
    /// A wake-up is pending, or CKE has not been low for tCKE yet.
    Blocked,
    /// Low-power rank: its oldest request justifies a PDX / SRX.
    Wake,
    /// Awake rank: row hits may issue; PRE/ACT only when `moves` (no
    /// refresh is due on the rank, since refresh has priority).
    Awake { moves: bool },
}

/// The occupancy word holding bank `b`'s bit, and that bit.
fn occupancy_bit(b: usize) -> (usize, u64) {
    (b / 64, 1 << (b % 64))
}

/// Pops the lowest set bit of occupancy word `w` as a bank index.
fn pop_bank(w: usize, bits: &mut u64) -> Option<usize> {
    (*bits != 0).then(|| {
        let b = w * 64 + bits.trailing_zeros() as usize;
        *bits &= *bits - 1;
        b
    })
}

/// One channel's controller state.
#[derive(Debug)]
pub(crate) struct ChannelCtrl {
    timing: DramTiming,
    /// Refresh scheme: all-bank REF (DDR4/LPDDR4) or DDR5 same-bank REFsb.
    scheme: RefreshScheme,
    bank_groups: usize,
    banks_per_group: usize,
    banks_per_rank: usize,
    rows_per_subarray: u32,
    ranks: Vec<RankCtl>,
    /// Struct-of-arrays timing state for every bank, indexed by
    /// `rank * banks_per_rank + flat_bank`.
    banks: BankArray,
    /// Rank and bank group of every bank (same indexing as `banks`).
    geom: Vec<BankGeom>,
    /// Per-bank request FIFOs (same indexing as `banks`).
    queues: Vec<VecDeque<QueuedReq>>,
    /// Occupancy bitset, 64 banks per word: bit `b` is set iff `queues[b]`
    /// is non-empty. The arbitration scan and `next_event` visit only these
    /// banks.
    occupied: Vec<u64>,
    /// Banks visited by the arbitration scan and `next_event` (a
    /// deterministic work counter, see [`crate::PollCounts`]).
    bank_visits: u64,
    /// Cached per-bank scheduling candidates (same indexing as `banks`).
    cands: Vec<BankCands>,
    /// Per-bank `(reads, writes)` membership count per device row. Lets the
    /// candidate rescans stop as soon as every match that *exists* has been
    /// found — without it, a deep FIFO with no row-buffer locality pays a
    /// full O(depth) scan per ACT/PRE just to prove the absence of row hits
    /// (quadratic over a traffic-dense trace).
    row_members: Vec<BTreeMap<u32, (u32, u32)>>,
    /// Total queued requests across all banks.
    total_queued: usize,
    /// Next global arrival sequence number.
    next_seq: u64,
    /// Queued-request count per rank; keeps `queue_has_rank` O(1) (it is
    /// consulted per rank by the governor and `next_event` on every poll).
    queued_per_rank: Vec<u32>,
    /// Data bus busy until this cycle.
    bus_free_at: u64,
    /// Channel-wide earliest next column command (tCCD_S).
    next_col_any: u64,
    /// Per (rank, bank group) earliest next column command (tCCD_L).
    next_col_bg: Vec<u64>,
    /// Per bank, the row its last row-conflict PRE closed, until its next
    /// ACT; [`ROW_NONE`] otherwise.
    conflict_closed: Vec<u32>,
    /// ACTs that reopened the row their bank's last conflict PRE closed
    /// (see [`crate::PollCounts`]).
    reopened_rows: u64,
    policy: LowPowerPolicy,
    pub counters: ChannelCounters,
    /// This channel's index (for command logging).
    channel_index: u32,
    /// Optional command log for independent timing validation.
    log: Option<Vec<CommandRecord>>,
}

#[cfg(test)]
mod reference;

impl ChannelCtrl {
    #[cfg(test)]
    pub fn new(cfg: &DramConfig, policy: LowPowerPolicy) -> Self {
        Self::with_index(cfg, policy, 0)
    }

    pub fn with_index(cfg: &DramConfig, policy: LowPowerPolicy, channel_index: u32) -> Self {
        let org = cfg.org;
        let ranks_n = org.ranks_per_channel as usize;
        let banks_per_rank = org.banks_per_rank() as usize;
        let timing = cfg.timing;
        let scheme = cfg.refresh_scheme();
        // Cycles between consecutive refresh commands: tREFI for all-bank
        // REF; tREFI / sets for same-bank REFsb (each command covers one
        // bank per group, so `sets` commands refresh the whole rank).
        let interval = match scheme {
            RefreshScheme::AllBank => timing.t_refi,
            RefreshScheme::SameBank { sets } => timing.t_refi / u64::from(sets),
        };
        // Stagger refresh across ranks so they do not refresh in lock-step.
        let ranks = (0..ranks_n)
            .map(|r| {
                let offset = interval * (r as u64 + 1) / ranks_n as u64;
                RankCtl::new(org.bank_groups, offset)
            })
            .collect();
        let total_banks = ranks_n * banks_per_rank;
        ChannelCtrl {
            timing,
            scheme,
            bank_groups: org.bank_groups as usize,
            banks_per_group: org.banks_per_group as usize,
            banks_per_rank,
            rows_per_subarray: org.rows_per_subarray,
            ranks,
            banks: BankArray::new(total_banks),
            queues: vec![VecDeque::new(); total_banks],
            occupied: vec![0; total_banks.div_ceil(64)],
            bank_visits: 0,
            row_members: vec![BTreeMap::new(); total_banks],
            cands: vec![
                BankCands {
                    valid: true,
                    ..BankCands::default()
                };
                total_banks
            ],
            total_queued: 0,
            next_seq: 0,
            queued_per_rank: vec![0; ranks_n],
            bus_free_at: 0,
            next_col_any: 0,
            next_col_bg: vec![0; ranks_n * org.bank_groups as usize],
            conflict_closed: vec![ROW_NONE; total_banks],
            reopened_rows: 0,
            policy,
            counters: ChannelCounters::default(),
            channel_index,
            log: None,
            // Built after the other per-bank vectors: between the bank
            // arrays and the FIFOs it measured ~0.3 MiB more peak RSS on
            // dense traces, from heap layout alone.
            geom: (0..total_banks)
                .map(|b| BankGeom {
                    rank: b / banks_per_rank,
                    group: (b % banks_per_rank) / org.banks_per_group as usize,
                })
                .collect(),
        }
    }

    /// Enables command logging (for [`crate::validate::TimingChecker`]).
    pub fn enable_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Takes the accumulated command log.
    pub fn take_log(&mut self) -> Vec<CommandRecord> {
        self.log.take().unwrap_or_default()
    }

    fn record(
        &mut self,
        cycle: u64,
        rank: u32,
        bank: u32,
        bank_group: u32,
        row: u32,
        command: DramCommand,
    ) {
        if let Some(log) = &mut self.log {
            log.push(CommandRecord {
                cycle,
                channel: self.channel_index,
                rank,
                bank,
                bank_group,
                row,
                command,
            });
        }
    }

    /// Logs the MRS write that programs a sub-array group's deep power-down
    /// bit (row = group index, bank = the bit value).
    pub fn record_mrs(&mut self, cycle: u64, group: u32, down: bool) {
        if let Some(log) = &mut self.log {
            log.push(CommandRecord {
                cycle,
                channel: self.channel_index,
                rank: 0,
                bank: u32::from(down),
                bank_group: 0,
                row: group,
                command: DramCommand::ModeRegisterSet,
            });
        }
    }

    /// Cycles between consecutive refresh commands under the active scheme.
    fn refresh_interval(&self) -> u64 {
        match self.scheme {
            RefreshScheme::AllBank => self.timing.t_refi,
            RefreshScheme::SameBank { sets } => self.timing.t_refi / u64::from(sets),
        }
    }

    fn bank_idx(&self, rank: usize, bg: usize, bank: usize) -> usize {
        rank * self.banks_per_rank + bg * self.banks_per_group + bank
    }

    fn col_bg_idx(&self, rank: usize, bg: usize) -> usize {
        rank * self.bank_groups + bg
    }

    /// Bank index of global bank `b` within its rank.
    fn flat_bank(&self, b: usize) -> usize {
        b - self.geom[b].rank * self.banks_per_rank
    }

    /// Adds a request to the scheduling queue.
    pub fn enqueue(&mut self, pending: PendingRequest, now: u64) {
        let ri = pending.coord.rank.index();
        self.ranks[ri].idle_since = now;
        self.queued_per_rank[ri] += 1;
        self.total_queued += 1;
        let b = self.bank_idx(
            ri,
            pending.coord.bank_group.index(),
            pending.coord.bank.index(),
        );
        let q = QueuedReq {
            seq: self.next_seq,
            req: pending.req,
            row: pending.coord.full_row(self.rows_per_subarray),
            activated: false,
        };
        self.next_seq += 1;
        let pos = self.queues[b].len();
        self.queues[b].push_back(q);
        let (w, bit) = occupancy_bit(b);
        self.occupied[w] |= bit;
        let counts = self.row_members[b].entry(q.row).or_insert((0, 0));
        match q.req.kind {
            AccessKind::Read => counts.0 += 1,
            AccessKind::Write => counts.1 += 1,
        }
        // Incremental candidate maintenance: a new tail entry can only fill
        // a candidate slot that is still empty.
        let open = self.banks.open_row[b];
        let c = &mut self.cands[b];
        if c.valid {
            if open != ROW_NONE && q.row == open {
                let slot = match q.req.kind {
                    AccessKind::Read => &mut c.col_read,
                    AccessKind::Write => &mut c.col_write,
                };
                if slot.is_none() {
                    *slot = Cand::at(pos, &q);
                }
            } else if c.act.is_none() {
                c.act = Cand::at(pos, &q);
            }
        }
    }

    /// True while requests remain queued.
    pub fn busy(&self) -> bool {
        self.total_queued > 0
    }

    /// Current queue depth (exported as a telemetry gauge).
    pub fn queue_len(&self) -> usize {
        self.total_queued
    }

    /// Banks visited so far by the arbitration scan and `next_event`.
    pub fn bank_visits(&self) -> u64 {
        self.bank_visits
    }

    /// ACTs so far that reopened the row their bank's last row-conflict
    /// PRE closed.
    pub fn reopened_rows(&self) -> u64 {
        self.reopened_rows
    }

    /// Whether the occupancy bitset marks exactly the non-empty FIFOs:
    /// every marked FIFO holds a request, and the marked FIFOs hold all
    /// `total_queued` requests, so no unmarked FIFO holds one. Costs
    /// O(occupied banks), like the scans it guards.
    fn occupancy_matches_queues(&self) -> bool {
        let mut marked = 0;
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while let Some(b) = pop_bank(w, &mut bits) {
                match self.queues.get(b) {
                    Some(q) if !q.is_empty() => marked += q.len(),
                    _ => return false,
                }
            }
        }
        marked == self.total_queued
    }

    fn queue_has_rank(&self, rank: usize) -> bool {
        self.queued_per_rank[rank] > 0
    }

    fn refresh_due(&self, rank: usize, now: u64) -> bool {
        let r = &self.ranks[rank];
        r.power != RankPowerState::SelfRefresh && r.wake_at.is_none() && now >= r.next_refresh
    }

    /// Recomputes bank `b`'s candidate positions from its FIFO. All three
    /// candidates are "first in FIFO order matching the class", so one
    /// forward scan with early exit suffices.
    fn ensure_cands(&mut self, b: usize) {
        if self.cands[b].valid {
            return;
        }
        let open = self.banks.open_row[b];
        // The membership counts say which matches exist at all, so the scan
        // stops at the last one that does instead of running to the end of
        // the FIFO to prove a negative.
        let (need_read, need_write) = if open == ROW_NONE {
            (false, false)
        } else {
            self.row_members[b]
                .get(&open)
                .map_or((false, false), |&(r, w)| (r > 0, w > 0))
        };
        let mut c = BankCands {
            valid: true,
            ..BankCands::default()
        };
        for (i, q) in self.queues[b].iter().enumerate() {
            if open != ROW_NONE && q.row == open {
                let slot = match q.req.kind {
                    AccessKind::Read => &mut c.col_read,
                    AccessKind::Write => &mut c.col_write,
                };
                if slot.is_none() {
                    *slot = Cand::at(i, q);
                }
            } else if c.act.is_none() {
                c.act = Cand::at(i, q);
            }
            let done = c.act.is_some()
                && (!need_read || c.col_read.is_some())
                && (!need_write || c.col_write.is_some());
            if done {
                break;
            }
        }
        self.cands[b] = c;
    }

    /// Attempts to issue one command at cycle `now`. Returns `true` if a
    /// command (or power-state transition) was issued.
    pub fn try_issue(&mut self, now: u64) -> bool {
        self.complete_wakeups(now);
        self.advance_self_refresh_counters(now);
        let issued = self.service_refresh(now) || self.arbitrate(now) || self.run_governor(now);
        debug_assert!(
            self.occupancy_matches_queues(),
            "occupancy bitset out of step with the bank FIFOs"
        );
        issued
    }

    fn complete_wakeups(&mut self, now: u64) {
        let interval = self.refresh_interval();
        for rank in &mut self.ranks {
            if let Some(w) = rank.wake_at {
                if now >= w {
                    if rank.power == RankPowerState::SelfRefresh {
                        // Self-refresh exit performs a refresh internally.
                        rank.next_refresh = now + interval;
                    }
                    rank.set_power(now, RankPowerState::PrechargeStandby);
                    rank.wake_at = None;
                    // Note: waking does not reset idle_since — idleness
                    // means "no demand traffic", so refresh-driven wake-ups
                    // must not postpone self-refresh entry.
                }
            }
        }
    }

    fn advance_self_refresh_counters(&mut self, now: u64) {
        let interval = self.refresh_interval();
        for rank in &mut self.ranks {
            if rank.power == RankPowerState::SelfRefresh && rank.next_refresh <= now {
                let behind = now - rank.next_refresh;
                let steps = behind / interval + 1;
                rank.next_refresh += steps * interval;
            }
        }
    }

    /// Refresh has priority: wake power-down ranks whose tREFI expired,
    /// drain open banks, and issue REF.
    fn service_refresh(&mut self, now: u64) -> bool {
        for ri in 0..self.ranks.len() {
            if !self.refresh_due(ri, now) {
                continue;
            }
            if self.ranks[ri].power == RankPowerState::PowerDown {
                // Must wake the rank to refresh it — but CKE must have been
                // low for at least tCKE before the exit.
                if now < self.ranks[ri].state_since + self.timing.t_cke {
                    continue;
                }
                self.ranks[ri].wake_at = Some(now + self.timing.t_xp);
                self.record(now, ri as u32, 0, 0, 0, DramCommand::PowerDownExit);
                return true;
            }
            if self.service_refresh_rank(ri, now) {
                return true;
            }
        }
        false
    }

    /// The banks a rank's next refresh covers, all of which must be
    /// precharged before it issues: every bank for all-bank REF, or the due
    /// set for DDR5 same-bank REFsb — one bank per group, flat index
    /// `bg * banks_per_group + set`. `service_refresh_rank` closes these
    /// banks and `next_event` waits on them, so both read them from here.
    fn refresh_targets(&self, ri: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
        let base = ri * self.banks_per_rank;
        let end = base + self.banks_per_rank;
        match self.scheme {
            RefreshScheme::AllBank => (base..end).step_by(1),
            RefreshScheme::SameBank { .. } => {
                (base + self.ranks[ri].refresh_set as usize..end).step_by(self.banks_per_group)
            }
        }
    }

    /// Refreshes one due, awake rank: closes one open target bank whose
    /// tRAS/tRTP/tWR window allows it, or — once every target is precharged
    /// and the previous refresh has finished — issues the refresh. All-bank
    /// REF stalls the whole rank for tRFC. DDR5 REFsb stalls only the due
    /// set, for tRFCsb, while the rest of the rank keeps serving requests;
    /// the set rotates so `sets` consecutive commands (tREFI/sets apart)
    /// refresh the whole rank once per tREFI.
    fn service_refresh_rank(&mut self, ri: usize, now: u64) -> bool {
        let mut target_open = false;
        for idx in self.refresh_targets(ri) {
            if !self.banks.is_open(idx) {
                continue;
            }
            target_open = true;
            if now >= self.banks.next_pre[idx] {
                self.close_bank(idx, now);
                return true;
            }
        }
        if target_open || now < self.ranks[ri].refresh_until {
            return false; // waiting on tRAS etc., or on the previous refresh
        }
        let (t_rfc, command) = match self.scheme {
            RefreshScheme::AllBank => (self.timing.t_rfc, DramCommand::Refresh),
            RefreshScheme::SameBank { .. } => (self.timing.t_rfc_sb, DramCommand::RefreshSameBank),
        };
        let until = now + t_rfc;
        for idx in self.refresh_targets(ri) {
            self.banks.block_until(idx, until);
        }
        let interval = self.refresh_interval();
        let rank = &mut self.ranks[ri];
        let set = rank.refresh_set;
        rank.refresh_until = until;
        rank.next_refresh += interval;
        if let RefreshScheme::SameBank { sets } = self.scheme {
            rank.refresh_set = (set + 1) % sets;
        }
        self.counters.refreshes += 1;
        // bank = the refreshed set index (one bank per group; always 0 for
        // all-bank REF).
        self.record(now, ri as u32, set, 0, 0, command);
        true
    }

    /// The channel-wide part of every bank's column gate for `kind`: tCCD_S
    /// and data-bus occupancy. A column command of `kind` may issue to bank
    /// `b` at `now` iff `now` reaches both this floor and
    /// [`bank_column_gate`](Self::bank_column_gate).
    fn channel_column_floor(&self, kind: AccessKind) -> u64 {
        let t = &self.timing;
        let data = match kind {
            AccessKind::Read => t.cl,
            AccessKind::Write => t.cwl,
        };
        self.next_col_any.max(self.bus_free_at.saturating_sub(data))
    }

    /// The bank-local part of bank `b`'s column gate for `kind`: tCCD_L in
    /// its bank group, the bank's tRCD, and its rank's bus turnaround.
    fn bank_column_gate(&self, b: usize, kind: AccessKind) -> u64 {
        let BankGeom { rank, group } = self.geom[b];
        let col = self.next_col_bg[self.col_bg_idx(rank, group)];
        match kind {
            AccessKind::Read => col
                .max(self.banks.next_read[b])
                .max(self.ranks[rank].next_read),
            AccessKind::Write => col
                .max(self.banks.next_write[b])
                .max(self.ranks[rank].next_write),
        }
    }

    fn issue_column_at(&mut self, b: usize, pos: usize, now: u64) {
        let q = self.queues[b]
            .remove(pos)
            .expect("candidate position is in range");
        if self.queues[b].is_empty() {
            let (w, bit) = occupancy_bit(b);
            self.occupied[w] &= !bit;
        }
        let BankGeom {
            rank: ri,
            group: bg,
        } = self.geom[b];
        let flat = self.flat_bank(b);
        self.queued_per_rank[ri] -= 1;
        self.total_queued -= 1;
        let remaining = {
            let counts = self
                .row_members
                .get_mut(b)
                .expect("bank index in range")
                .get_mut(&q.row)
                .expect("issued request is counted");
            match q.req.kind {
                AccessKind::Read => counts.0 -= 1,
                AccessKind::Write => counts.1 -= 1,
            }
            let rem = match q.req.kind {
                AccessKind::Read => counts.0,
                AccessKind::Write => counts.1,
            };
            if *counts == (0, 0) {
                self.row_members[b].remove(&q.row);
            }
            rem
        };
        // Maintain cached candidates across the removal: positions past the
        // removal point shift down by one; the removed request's own slot is
        // rescanned forward (FIFO order is preserved, so the next same-kind
        // match cannot sit before `pos`) — unless the membership count says
        // no same-kind match remains at all.
        if self.cands[b].valid {
            let mut c = self.cands[b];
            for p in [&mut c.col_read, &mut c.col_write, &mut c.act]
                .into_iter()
                .flatten()
            {
                if p.pos > pos {
                    p.pos -= 1;
                }
            }
            let open = self.banks.open_row[b];
            let slot = match q.req.kind {
                AccessKind::Read => &mut c.col_read,
                AccessKind::Write => &mut c.col_write,
            };
            *slot = None;
            if remaining > 0 {
                for i in pos..self.queues[b].len() {
                    let qq = self.queues[b][i];
                    if qq.row == open && qq.req.kind == q.req.kind {
                        *slot = Cand::at(i, &qq);
                        break;
                    }
                }
            }
            self.cands[b] = c;
        }
        let t = self.timing;
        let cbg = self.col_bg_idx(ri, bg);
        self.next_col_any = now + t.t_ccd_s;
        self.next_col_bg[cbg] = now + t.t_ccd_l;
        let cmd = match q.req.kind {
            AccessKind::Read => DramCommand::Read,
            AccessKind::Write => DramCommand::Write,
        };
        self.record(now, ri as u32, flat as u32, bg as u32, q.row, cmd);
        match q.req.kind {
            AccessKind::Read => {
                self.banks.on_read(b, now, &t);
                let data_end = now + t.cl + t.burst_cycles();
                self.bus_free_at = data_end;
                // Read-to-write turnaround: tRTW = CL + BL/2 + 2 - CWL.
                let rtw = (t.cl + t.burst_cycles() + 2).saturating_sub(t.cwl);
                self.ranks[ri].next_write = self.ranks[ri].next_write.max(now + rtw);
                self.counters.reads += 1;
                self.counters
                    .read_latency
                    .record((data_end - q.req.arrival) as f64);
            }
            AccessKind::Write => {
                self.banks.on_write(b, now, &t);
                let data_end = now + t.cwl + t.burst_cycles();
                self.bus_free_at = data_end;
                // Write-to-read turnaround.
                self.ranks[ri].next_read = self.ranks[ri].next_read.max(data_end + t.t_wtr_l);
                self.counters.writes += 1;
            }
        }
        if !q.activated {
            // Column issued without this request paying for an ACT: row hit.
            self.counters.row_hits += 1;
        }
        self.ranks[ri].idle_since = now;
    }

    /// Precharges bank `b` at `now`: the one way a row closes, for a refresh
    /// and for a row conflict alike. Every request queued on the bank then
    /// needs an ACT, which the candidate rescan derives from the closed row;
    /// no queued request is touched.
    fn close_bank(&mut self, b: usize, now: u64) {
        let BankGeom {
            rank: ri,
            group: bg,
        } = self.geom[b];
        self.banks.on_precharge(b, now, &self.timing);
        self.ranks[ri].on_precharge_bank();
        self.counters.precharges += 1;
        self.record(
            now,
            ri as u32,
            self.flat_bank(b) as u32,
            bg as u32,
            0,
            DramCommand::Precharge,
        );
        self.cands[b].valid = false;
    }

    /// What the arbitration scan may do for rank `ri`'s requests at `now`.
    fn rank_gate(&self, ri: usize, now: u64) -> RankGate {
        let r = &self.ranks[ri];
        if r.wake_at.is_some() {
            RankGate::Blocked
        } else if r.power.is_low_power() {
            // PDX / SRX — CKE must have been low for tCKE first.
            if now < r.state_since + self.timing.t_cke {
                RankGate::Blocked
            } else {
                RankGate::Wake
            }
        } else {
            RankGate::Awake {
                moves: !self.refresh_due(ri, now),
            }
        }
    }

    /// FR-FCFS: issues what [`choose`](Self::choose) picks, if anything.
    fn arbitrate(&mut self, now: u64) -> bool {
        let Some(choice) = self.choose(now) else {
            return false;
        };
        self.apply(choice, now);
        true
    }

    /// FR-FCFS in one scan over the occupied banks, rank by rank. It finds
    /// the oldest ready row-hit column command and the oldest request that
    /// can move (wake its rank, precharge a conflicting row, or activate)
    /// together, and picks the row hit if there is one, else the move.
    /// Once a row hit is found, PRE/ACT candidates need no evaluation: the
    /// hit wins whatever they are. Sequence numbers are unique, so the
    /// oldest of each kind does not depend on the order banks are visited.
    ///
    /// Each column gate is split into the channel-wide floor, computed once
    /// per poll, and the bank-local gate: when `now` is below a kind's
    /// floor, no bank's candidate of that kind is ready, and its check is
    /// skipped (DESIGN.md §6.2).
    fn choose(&mut self, now: u64) -> Option<Choice> {
        let floor_open = [AccessKind::Read, AccessKind::Write]
            .map(|kind| now >= self.channel_column_floor(kind));
        let mut hit: Option<(u64, Choice)> = None;
        let mut best: Option<(u64, Choice)> = None;
        let (mut rank, mut gate) = (usize::MAX, RankGate::Blocked);
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            self.bank_visits += u64::from(bits.count_ones());
            while let Some(b) = pop_bank(w, &mut bits) {
                let BankGeom {
                    rank: ri,
                    group: bg,
                } = self.geom[b];
                if ri != rank {
                    (rank, gate) = (ri, self.rank_gate(ri, now));
                }
                let moves = match gate {
                    RankGate::Blocked => continue,
                    RankGate::Wake => {
                        // The wake is justified by the rank's oldest
                        // request: the oldest FIFO front.
                        let seq = self.queues[b].front().map_or(u64::MAX, |q| q.seq);
                        if hit.is_none() && best.is_none_or(|(s, _)| seq < s) {
                            best = Some((seq, Choice::Wake { rank: ri }));
                        }
                        continue;
                    }
                    RankGate::Awake { moves } => moves,
                };
                let open = self.banks.is_open(b);
                if !open && (!moves || hit.is_some()) {
                    continue;
                }
                self.ensure_cands(b);
                let c = self.cands[b];
                if open {
                    for (slot, kind, floor_open) in [
                        (c.col_read, AccessKind::Read, floor_open[0]),
                        (c.col_write, AccessKind::Write, floor_open[1]),
                    ] {
                        let Some(cand) = slot else { continue };
                        if floor_open
                            && hit.is_none_or(|(s, _)| cand.seq < s)
                            && now >= self.bank_column_gate(b, kind)
                        {
                            let pos = cand.pos;
                            hit = Some((cand.seq, Choice::Column { bank: b, pos }));
                        }
                    }
                }
                if !moves || hit.is_some() {
                    continue;
                }
                let Some(cand) = c.act else { continue };
                if best.is_some_and(|(s, _)| s < cand.seq) {
                    continue;
                }
                let action = if open {
                    // Row conflict: precharge when allowed.
                    if now < self.banks.next_pre[b] {
                        continue;
                    }
                    Choice::Precharge { bank: b }
                } else {
                    if now < self.banks.next_act[b] || now < self.ranks[ri].act_allowed_at(bg) {
                        continue;
                    }
                    Choice::Activate {
                        bank: b,
                        pos: cand.pos,
                    }
                };
                best = Some((cand.seq, action));
            }
        }
        hit.or(best).map(|(_, choice)| choice)
    }

    /// Issues the command [`choose`](Self::choose) picked at `now`.
    fn apply(&mut self, choice: Choice, now: u64) {
        match choice {
            Choice::Column { bank, pos } => self.issue_column_at(bank, pos, now),
            Choice::Wake { rank } => {
                let (latency, exit_cmd) = match self.ranks[rank].power {
                    RankPowerState::PowerDown => (self.timing.t_xp, DramCommand::PowerDownExit),
                    RankPowerState::SelfRefresh => (self.timing.t_xs, DramCommand::SelfRefreshExit),
                    _ => unreachable!("wake candidate on an awake rank"),
                };
                self.ranks[rank].wake_at = Some(now + latency);
                self.record(now, rank as u32, 0, 0, 0, exit_cmd);
            }
            Choice::Precharge { bank } => {
                let ri = self.geom[bank].rank;
                self.conflict_closed[bank] = self.banks.open_row[bank];
                self.close_bank(bank, now);
                self.counters.row_conflicts += 1;
                self.ranks[ri].idle_since = now;
            }
            Choice::Activate { bank, pos } => {
                let BankGeom {
                    rank: ri,
                    group: bg,
                } = self.geom[bank];
                let row = self.queues[bank][pos].row;
                self.reopened_rows += u64::from(self.conflict_closed[bank] == row);
                self.conflict_closed[bank] = ROW_NONE;
                self.banks.on_activate(bank, now, row, &self.timing);
                self.ranks[ri].on_activate(now, bg, &self.timing);
                if self.ranks[ri].open_banks == 1
                    && self.ranks[ri].power == RankPowerState::PrechargeStandby
                {
                    self.ranks[ri].set_power(now, RankPowerState::ActiveStandby);
                }
                self.counters.activates += 1;
                self.counters.row_misses += 1;
                self.record(
                    now,
                    ri as u32,
                    self.flat_bank(bank) as u32,
                    bg as u32,
                    row,
                    DramCommand::Activate,
                );
                self.queues[bank][pos].activated = true;
                self.ranks[ri].idle_since = now;
                self.cands[bank].valid = false;
            }
        }
    }

    /// Idle-timeout governor: demote idle, fully-precharged ranks.
    fn run_governor(&mut self, now: u64) -> bool {
        for ri in 0..self.ranks.len() {
            if self.ranks[ri].wake_at.is_some()
                || !self.ranks[ri].all_precharged()
                || self.queue_has_rank(ri)
                || self.refresh_due(ri, now)
                || self.ranks[ri].refresh_until > now
            {
                continue;
            }
            // Track Active->Precharge standby transition when banks closed.
            if self.ranks[ri].power == RankPowerState::ActiveStandby {
                self.ranks[ri].set_power(now, RankPowerState::PrechargeStandby);
                continue;
            }
            let idle = now.saturating_sub(self.ranks[ri].idle_since);
            match self.ranks[ri].power {
                RankPowerState::PrechargeStandby => {
                    if let Some(srt) = self.policy.sr_timeout {
                        if idle >= srt {
                            self.ranks[ri].set_power(now, RankPowerState::SelfRefresh);
                            self.record(now, ri as u32, 0, 0, 0, DramCommand::SelfRefreshEnter);
                            return true;
                        }
                    }
                    if let Some(pdt) = self.policy.pd_timeout {
                        if idle >= pdt {
                            self.ranks[ri].set_power(now, RankPowerState::PowerDown);
                            self.record(now, ri as u32, 0, 0, 0, DramCommand::PowerDownEnter);
                            return true;
                        }
                    }
                }
                RankPowerState::PowerDown => {
                    if let Some(srt) = self.policy.sr_timeout {
                        if idle >= srt {
                            // Promote PD -> SR (PDX+SRE modelled as direct, so
                            // only the SRE is logged).
                            self.ranks[ri].set_power(now, RankPowerState::SelfRefresh);
                            self.record(now, ri as u32, 0, 0, 0, DramCommand::SelfRefreshEnter);
                            return true;
                        }
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Earliest cycle at which `service_refresh` could act on rank `ri`:
    /// the refresh deadline, floored by whatever that function waits on
    /// once the refresh is due — a pending wake-up, CKE low for tCKE on a
    /// power-down rank, or, on an awake rank, the first open target bank
    /// that may precharge or else the end of the previous refresh.
    fn refresh_horizon(&self, ri: usize, now: u64) -> u64 {
        let rank = &self.ranks[ri];
        let blocker = match (rank.wake_at, rank.power) {
            // The device refreshes itself; nothing for the controller to do.
            (_, RankPowerState::SelfRefresh) => return u64::MAX,
            (Some(w), _) => w,
            (None, RankPowerState::PowerDown) => rank.state_since + self.timing.t_cke,
            // Not due yet: the deadline alone is the bound.
            _ if rank.next_refresh > now => return rank.next_refresh,
            _ => self
                .refresh_targets(ri)
                .filter(|&b| self.banks.is_open(b))
                .map(|b| self.banks.next_pre[b])
                .min()
                .unwrap_or(rank.refresh_until),
        };
        rank.next_refresh.max(blocker)
    }

    /// Earliest cycle at which `run_governor` could act on rank `ri`: its
    /// next idle-timeout demotion, floored — as the governor itself is — at
    /// the end of the rank's refresh window.
    fn governor_horizon(&self, ri: usize, now: u64) -> u64 {
        let rank = &self.ranks[ri];
        if rank.wake_at.is_some() || !rank.all_precharged() || self.queue_has_rank(ri) {
            return u64::MAX;
        }
        let timeout = |limit: Option<u64>| limit.map_or(u64::MAX, |l| rank.idle_since + l);
        let deadline = match rank.power {
            // The ActiveStandby → PrechargeStandby bookkeeping transition is
            // untimed: it fires on the first poll at which the governor
            // reaches the rank.
            RankPowerState::ActiveStandby => now + 1,
            RankPowerState::PrechargeStandby => {
                timeout(self.policy.pd_timeout).min(timeout(self.policy.sr_timeout))
            }
            RankPowerState::PowerDown => timeout(self.policy.sr_timeout),
            RankPowerState::SelfRefresh => u64::MAX,
        };
        deadline.max(rank.refresh_until)
    }

    /// Earliest future cycle at which this channel could do something.
    /// Returns `u64::MAX` when nothing is outstanding (other than
    /// self-refresh bookkeeping, which needs no controller action).
    ///
    /// The estimate may be conservative (an extra poll that issues nothing
    /// is harmless) but must never overshoot a cycle on which `try_issue`
    /// would act — that is the invariant the engine-equivalence suite pins
    /// down. Each term is the cycle the function that acts on it would
    /// act, floored by the same blockers that function checks: the per-bank
    /// candidate gates reuse the column-gate and tRP/tRRD/tFAW arithmetic
    /// of the arbitration scan and visit the same occupied banks, the
    /// refresh term waits where `service_refresh`
    /// waits, and the governor deadlines wait out the refresh window
    /// `run_governor` waits out. So after any poll the driving loop jumps
    /// straight to the next cycle something can happen.
    pub fn next_event(&mut self, now: u64) -> u64 {
        let mut t = u64::MAX;
        for ri in 0..self.ranks.len() {
            if let Some(w) = self.ranks[ri].wake_at {
                t = t.min(w);
            }
            let rank_t = self
                .refresh_horizon(ri, now)
                .min(self.governor_horizon(ri, now));
            t = t.min(rank_t.max(now + 1));
        }
        // The least bank-local column gate per kind, over the banks with a
        // candidate of that kind; the channel floor is applied once below.
        let (mut read_gate, mut write_gate) = (u64::MAX, u64::MAX);
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            self.bank_visits += u64::from(bits.count_ones());
            while let Some(b) = pop_bank(w, &mut bits) {
                let BankGeom {
                    rank: ri,
                    group: bg,
                } = self.geom[b];
                if let Some(wake) = self.ranks[ri].wake_at {
                    t = t.min(wake.max(now + 1));
                    continue;
                }
                if self.ranks[ri].power.is_low_power() {
                    // A demand wake-up can be issued once CKE has been low tCKE.
                    t = t.min((self.ranks[ri].state_since + self.timing.t_cke).max(now + 1));
                    continue;
                }
                if matches!(self.scheme, RefreshScheme::AllBank)
                    && self.ranks[ri].refresh_until > now
                {
                    // All-bank refresh stalls every bank in the rank, so the
                    // refresh end is the bank's next actionable cycle. Under
                    // same-bank REFsb only the target set is stalled (via its
                    // bank gates), so fall through to the candidate gates —
                    // skipping here would sleep past issue opportunities on the
                    // non-target banks and diverge from the stepped engine.
                    t = t.min(self.ranks[ri].refresh_until);
                    continue;
                }
                self.ensure_cands(b);
                let mut c = self.cands[b];
                if self.refresh_due(ri, now) {
                    // The arbiter neither precharges nor activates on a rank
                    // whose refresh is due; the refresh term covers the REF
                    // that lifts the block.
                    c.act = None;
                }
                if self.banks.is_open(b) {
                    if c.col_read.is_some() {
                        read_gate = read_gate.min(self.bank_column_gate(b, AccessKind::Read));
                    }
                    if c.col_write.is_some() {
                        write_gate = write_gate.min(self.bank_column_gate(b, AccessKind::Write));
                    }
                    if c.act.is_some() {
                        t = t.min(self.banks.next_pre[b].max(now + 1));
                    }
                } else if c.act.is_some() {
                    let gate = self.banks.next_act[b].max(self.ranks[ri].act_allowed_at(bg));
                    t = t.min(gate.max(now + 1));
                }
            }
        }
        // min over banks of max(floor, gate_b, now + 1) is
        // max(floor, min over banks of gate_b, now + 1). A kind with no
        // candidate leaves `u64::MAX`, which cannot lower `t`.
        for (kind, least) in [
            (AccessKind::Read, read_gate),
            (AccessKind::Write, write_gate),
        ] {
            if least != u64::MAX {
                t = t.min(self.channel_column_floor(kind).max(least).max(now + 1));
            }
        }
        t
    }

    /// The audited clock-advance step shared by every driving loop: the
    /// next cycle at which this channel should be polled — strictly after
    /// `now`, clamped to `cap` (a trace horizon or the next arrival).
    /// Centralizing the `.max(now + 1).min(cap)` dance keeps all callers on
    /// the invariant `next_event` guarantees: polling early is harmless,
    /// skipping an action cycle breaks engine equivalence.
    pub fn next_poll(&mut self, now: u64, cap: u64) -> u64 {
        self.next_event(now).max(now + 1).min(cap.max(now + 1))
    }

    /// Finalizes residency accounting.
    pub fn finish(&mut self, now: u64) {
        for rank in &mut self.ranks {
            rank.finish(now);
        }
    }

    /// Per-rank residency snapshots.
    pub fn residencies(&self) -> Vec<RankResidency> {
        self.ranks.iter().map(|r| r.residency).collect()
    }

    /// Total power-down and self-refresh entries across ranks.
    pub fn lp_entries(&self) -> (u64, u64) {
        let pd = self.ranks.iter().map(|r| r.pd_entries).sum();
        let sr = self.ranks.iter().map(|r| r.sr_entries).sum();
        (pd, sr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrmap::AddressMapper;
    use crate::command::MemRequest;
    use gd_types::config::DramConfig;
    use gd_types::ids::DramCoord;

    fn make(policy: LowPowerPolicy) -> (ChannelCtrl, AddressMapper) {
        let cfg = DramConfig::small_test();
        (
            ChannelCtrl::new(&cfg, policy),
            AddressMapper::new(&cfg).unwrap(),
        )
    }

    fn pend(mapper: &AddressMapper, req: MemRequest) -> PendingRequest {
        PendingRequest {
            coord: mapper.decode(req.addr).unwrap(),
            req,
        }
    }

    /// Drives the channel until its queue drains, returning the end cycle.
    fn drain(ch: &mut ChannelCtrl, start: u64) -> u64 {
        let mut now = start;
        let mut guard = 0;
        while ch.busy() {
            if !ch.try_issue(now) {
                now = ch.next_poll(now, u64::MAX);
            } else {
                now += 1;
            }
            guard += 1;
            assert!(guard < 1_000_000, "channel failed to drain");
        }
        now
    }

    #[test]
    fn single_read_completes_with_act_rcd_cl() {
        let (mut ch, mapper) = make(LowPowerPolicy::disabled());
        // Address 0 decodes to channel 0 in the small config.
        let req = MemRequest::read(0, 0);
        ch.enqueue(pend(&mapper, req), 0);
        drain(&mut ch, 0);
        assert_eq!(ch.counters.reads, 1);
        assert_eq!(ch.counters.activates, 1);
        let t = DramConfig::small_test().timing;
        let min_latency = (t.t_rcd + t.cl + t.burst_cycles()) as f64;
        assert!(ch.counters.read_latency.mean().unwrap() >= min_latency);
    }

    #[test]
    fn same_row_requests_hit_row_buffer() {
        let (mut ch, mapper) = make(LowPowerPolicy::disabled());
        // Two reads to the same row: flip only a column bit, which sits above
        // the channel/bank-group/bank bits in the interleaved layout.
        let layout = mapper.bit_layout();
        let stride = 1u64 << (layout.offset + layout.channel + layout.bank_group + layout.bank);
        ch.enqueue(pend(&mapper, MemRequest::read(0, 0)), 0);
        ch.enqueue(pend(&mapper, MemRequest::read(stride, 0)), 0);
        drain(&mut ch, 0);
        assert_eq!(ch.counters.reads, 2);
        assert_eq!(ch.counters.activates, 1, "second read must be a row hit");
        assert_eq!(ch.counters.row_hits, 1);
    }

    #[test]
    fn row_conflict_precharges_then_activates() {
        let (mut ch, mapper) = make(LowPowerPolicy::disabled());
        let cfg = DramConfig::small_test();
        // Same bank, different local row: flip a local-row bit. In the
        // interleaved small config the local row bits sit above
        // offset+ch+bg+bank+col bits.
        let layout = mapper.bit_layout();
        let row_shift = layout.offset
            + layout.channel
            + layout.bank_group
            + layout.bank
            + layout.column
            + layout.rank;
        let a1 = 0u64;
        let a2 = 1u64 << row_shift;
        let c1 = mapper.decode(a1).unwrap();
        let c2 = mapper.decode(a2).unwrap();
        assert_eq!(c1.channel, c2.channel);
        assert_eq!(
            (c1.bank_group, c1.bank, c1.rank),
            (c2.bank_group, c2.bank, c2.rank)
        );
        assert_ne!(
            c1.full_row(cfg.org.rows_per_subarray),
            c2.full_row(cfg.org.rows_per_subarray)
        );
        ch.enqueue(pend(&mapper, MemRequest::read(a1, 0)), 0);
        drain(&mut ch, 0);
        ch.enqueue(pend(&mapper, MemRequest::read(a2, 0)), 0);
        drain(&mut ch, 0);
        assert_eq!(ch.counters.activates, 2);
        assert_eq!(ch.counters.row_conflicts, 1);
    }

    /// A request whose own ACT opened its row, but whose read a write
    /// stream holds back (write-to-read turnaround), loses that row to a
    /// younger request's conflict PRE. It needs an ACT again, because its
    /// row is no longer open, and must get one at once rather than wait
    /// for a refresh to reopen the bank.
    #[test]
    fn activated_request_reactivates_after_a_conflict_precharge() {
        let (mut ch, mapper) = make(LowPowerPolicy::disabled());
        let rps = DramConfig::small_test().org.rows_per_subarray;
        let find = |keep: &dyn Fn(&DramCoord) -> bool| {
            (0..mapper.capacity_bytes() / 64)
                .map(|line| line * 64)
                .find(|&a| keep(&mapper.decode(a).unwrap()))
                .expect("an address with these coordinates")
        };
        let at = |a: u64| mapper.decode(a).unwrap();
        let bank = |c: &DramCoord| (c.channel, c.rank, c.bank_group, c.bank);
        let a = find(&|c| c.channel.index() == 0 && c.rank.index() == 0);
        let (ca, row_a) = (at(a), at(a).full_row(rps));
        let b = find(&|c| bank(c) == bank(&ca) && c.full_row(rps) != row_a);
        let y = find(&|c| {
            (c.channel, c.rank) == (ca.channel, ca.rank) && c.bank_group != ca.bank_group
        });
        let y_row = at(y).full_row(rps);
        let ys: Vec<u64> = (0..mapper.capacity_bytes() / 64)
            .map(|line| line * 64)
            .filter(|&w| bank(&at(w)) == bank(&at(y)) && at(w).full_row(rps) == y_row)
            .take(20)
            .collect();
        // The writes to bank Y come first, then A's read, then B's
        // conflicting read to A's bank.
        ch.enable_log();
        for &w in &ys {
            ch.enqueue(pend(&mapper, MemRequest::write(w, 0)), 0);
        }
        ch.enqueue(pend(&mapper, MemRequest::read(a, 0)), 0);
        ch.enqueue(pend(&mapper, MemRequest::read(b, 0)), 0);
        drain(&mut ch, 0);
        let log = ch.take_log();
        let on_a = |r: &&CommandRecord| {
            (r.rank, r.bank_group) == (0, ca.bank_group.index() as u32)
                && r.bank == (ca.bank_group.index() * ch.banks_per_group + ca.bank.index()) as u32
        };
        let seq: Vec<(DramCommand, u32)> = log
            .iter()
            .filter(on_a)
            .map(|r| (r.command, r.row))
            .collect();
        // A's ACT, B's conflict PRE, and A's row opened again before A's
        // read: it was not left waiting for another request to reopen it.
        let read_a = (DramCommand::Read, row_a);
        let reread = seq.iter().position(|&c| c == read_a).expect("A is served");
        assert_eq!(
            seq[..2],
            [(DramCommand::Activate, row_a), (DramCommand::Precharge, 0)],
            "{seq:?}"
        );
        assert_eq!(seq[reread - 1], (DramCommand::Activate, row_a), "{seq:?}");
        let served = log
            .iter()
            .find(|r| r.command == DramCommand::Read && r.row == row_a && on_a(r))
            .expect("A is served")
            .cycle;
        let first_ref = log
            .iter()
            .find(|r| r.command == DramCommand::Refresh)
            .map_or(u64::MAX, |r| r.cycle);
        assert!(
            served < first_ref,
            "A served at {served}, first REF at {first_ref}"
        );
        // A and B paid for their ACTs, so only the writes after Y's first
        // are row hits.
        assert_eq!(ch.counters.row_hits, ys.len() as u64 - 1);
    }

    #[test]
    fn idle_rank_enters_power_down_then_self_refresh() {
        let (mut ch, mapper) = make(LowPowerPolicy {
            pd_timeout: Some(64),
            sr_timeout: Some(1000),
        });
        ch.enqueue(pend(&mapper, MemRequest::read(0, 0)), 0);
        let end = drain(&mut ch, 0);
        // Run the governor well past both timeouts.
        let horizon = end + 20_000;
        let mut now = end;
        for _ in 0..200 {
            if !ch.try_issue(now) {
                now = ch.next_poll(now, horizon);
            } else {
                now += 1;
            }
            if now >= horizon {
                break;
            }
        }
        ch.finish(now);
        let res = ch.residencies();
        let (pd, sr) = ch.lp_entries();
        assert!(pd >= 1, "rank should have entered power-down");
        assert!(sr >= 1, "rank should have been promoted to self-refresh");
        assert!(res.iter().any(|r| r.self_refresh > 0));
    }

    #[test]
    fn refresh_issued_roughly_every_trefi() {
        let (mut ch, mapper) = make(LowPowerPolicy::disabled());
        let t = DramConfig::small_test().timing;
        // Keep traffic flowing so ranks stay awake for ~5 tREFI.
        let horizon = t.t_refi * 5;
        let mut now = 0;
        let mut next_req = 0u64;
        let mut injected = 0u64;
        while now < horizon {
            if now >= next_req && injected < 10_000 {
                let addr = (injected * 64 * 2) % (1 << 20);
                if let Ok(c) = mapper.decode(addr) {
                    if c.channel.index() == 0 {
                        ch.enqueue(pend(&mapper, MemRequest::read(addr, now)), now);
                        injected += 1;
                    } else {
                        injected += 1;
                    }
                }
                next_req = now + 50;
            }
            if !ch.try_issue(now) {
                now = ch.next_poll(now, next_req);
            } else {
                now += 1;
            }
        }
        // 2 ranks x 5 refresh intervals — allow slack for staggering.
        assert!(
            ch.counters.refreshes >= 6,
            "expected ~10 refreshes, got {}",
            ch.counters.refreshes
        );
    }

    #[test]
    fn wake_from_self_refresh_pays_txs() {
        let (mut ch, mapper) = make(LowPowerPolicy {
            pd_timeout: None,
            sr_timeout: Some(100),
        });
        // Let the rank enter SR (clamp jumps: with every rank asleep the
        // next controller event may be arbitrarily far away).
        let mut now = 0;
        for _ in 0..50 {
            if !ch.try_issue(now) {
                now = ch.next_poll(now, 5_000);
            } else {
                now += 1;
            }
            if now >= 5000 {
                break;
            }
        }
        let (_, sr) = ch.lp_entries();
        assert!(sr >= 1);
        // Now a read arrives; its latency must include tXS.
        let arrive = now;
        ch.enqueue(pend(&mapper, MemRequest::read(0, arrive)), arrive);
        drain(&mut ch, arrive);
        let t = DramConfig::small_test().timing;
        let lat = ch.counters.read_latency.mean().unwrap();
        assert!(
            lat >= (t.t_xs + t.t_rcd + t.cl) as f64,
            "latency {lat} must include tXS {}",
            t.t_xs
        );
    }

    /// The refresh and governor terms of `next_event` wait on exactly what
    /// `service_refresh` and `run_governor` wait on, instead of re-polling
    /// every cycle while a refresh is blocked or running.
    #[test]
    fn refresh_and_governor_horizons_wait_on_their_blockers() {
        let cfg = DramConfig::small_test_ddr5();
        let policy = LowPowerPolicy {
            pd_timeout: Some(64),
            sr_timeout: None,
        };
        let mut ch = ChannelCtrl::new(&cfg, policy);
        let mapper = AddressMapper::new(&cfg).unwrap();
        let coord = mapper.decode(0).unwrap();
        let (ri, bank) = (coord.rank.index(), coord.bank.index());
        let idx = ch.bank_idx(ri, coord.bank_group.index(), bank);
        // A write leaves its bank open behind a tWR-bound precharge gate.
        ch.enqueue(pend(&mapper, MemRequest::write(0, 0)), 0);
        let now = drain(&mut ch, 0);
        let next_pre = ch.banks.next_pre[idx];
        assert!(ch.banks.is_open(idx) && next_pre > now + 1);
        // A refresh falls due on the set holding that bank: it must wait for
        // the bank's precharge gate, not re-poll every cycle.
        ch.ranks[ri].refresh_set = bank as u32;
        ch.ranks[ri].next_refresh = now;
        assert_eq!(ch.refresh_horizon(ri, now), next_pre);
        assert_eq!(ch.governor_horizon(ri, now), u64::MAX, "a row is open");
        // At the gate the refresh closes the bank, then issues REFsb.
        assert!(ch.try_issue(next_pre));
        assert!(ch.try_issue(next_pre + 1));
        let until = ch.ranks[ri].refresh_until;
        assert_eq!(until, next_pre + 1 + cfg.timing.t_rfc_sb);
        // The rank still counts as ActiveStandby; the governor's untimed
        // demotion waits out the tRFCsb window like the governor does.
        assert_eq!(ch.ranks[ri].power, RankPowerState::ActiveStandby);
        assert_eq!(ch.governor_horizon(ri, next_pre + 1), until);
        // A refresh due behind a pending wake-up waits for the wake-up.
        ch.ranks[ri].next_refresh = until;
        ch.ranks[ri].wake_at = Some(until + 7);
        assert_eq!(ch.refresh_horizon(ri, until), until + 7);
    }

    #[test]
    fn next_poll_advances_and_clamps() {
        let (mut ch, mapper) = make(LowPowerPolicy::disabled());
        // Idle channel: next event is the first refresh, far in the future.
        let far = ch.next_poll(0, u64::MAX);
        assert!(far > 1, "idle channel should jump past now + 1");
        assert_eq!(ch.next_poll(0, 10), 10, "cap clamps the jump");
        // A queued request pulls attention close even with a tiny cap.
        ch.enqueue(pend(&mapper, MemRequest::read(0, 0)), 0);
        let soon = ch.next_poll(0, u64::MAX);
        assert!(soon <= far);
        // The cap never stalls the clock: result is strictly after `now`.
        assert_eq!(ch.next_poll(5, 0), 6);
    }
}
