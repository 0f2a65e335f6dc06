//! Per-channel memory controller: FR-FCFS scheduling, refresh, low-power
//! governor, and timing enforcement.
//!
//! # Scheduling structure (batched arbitration)
//!
//! Requests live in per-bank FIFOs ordered by a global arrival sequence
//! number. FR-FCFS only ever needs three *candidates* per bank — the oldest
//! row-matching read, the oldest row-matching write, and the oldest request
//! that needs an ACT (or a conflicting PRE) — because within each class all
//! members share the same issuability conditions, so the globally oldest
//! issuable request is always one of the per-bank class heads. The
//! candidates are cached and invalidated only when the bank's row state or
//! FIFO contents change, which turns the per-poll cost from O(queue depth)
//! into O(banks). `next_event` uses the same candidates to compute an exact
//! earliest-action cycle, so the driving loop can jump the clock in
//! issue-sized steps instead of `now + 1` polls (see DESIGN.md §6.2 for the
//! decision-stability argument).

use crate::bank::{BankArray, ROW_NONE};
use crate::command::{AccessKind, DramCommand, PendingRequest, RequestPhase};
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
    phase: RequestPhase,
}

/// Cached FR-FCFS candidates for one bank: FIFO positions of the oldest
/// row-matching read, the oldest row-matching write, and the oldest request
/// that needs bank progress (ACT, or PRE on a conflict). Invalidated when
/// the bank's row state or FIFO membership changes.
#[derive(Debug, Clone, Copy, Default)]
struct BankCands {
    valid: bool,
    col_read: Option<usize>,
    col_write: Option<usize>,
    act: Option<usize>,
}

/// The second-pass action selected for the globally oldest movable request.
enum OldestAction {
    Wake { rank: usize },
    Precharge { bank: usize },
    Activate { bank: usize, pos: usize },
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
    /// Per-bank request FIFOs (same indexing as `banks`).
    queues: Vec<VecDeque<QueuedReq>>,
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
    policy: LowPowerPolicy,
    pub counters: ChannelCounters,
    /// This channel's index (for command logging).
    channel_index: u32,
    /// Optional command log for independent timing validation.
    log: Option<Vec<CommandRecord>>,
}

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
            policy,
            counters: ChannelCounters::default(),
            channel_index,
            log: None,
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

    /// Logs the MR17 write that masks or unmasks an LPDDR4 PASR segment
    /// (row = segment index, bank = the mask-bit value).
    pub fn record_pasr(&mut self, cycle: u64, segment: u32, masked: bool) {
        if let Some(log) = &mut self.log {
            log.push(CommandRecord {
                cycle,
                channel: self.channel_index,
                rank: 0,
                bank: u32::from(masked),
                bank_group: 0,
                row: segment,
                command: DramCommand::PasrMask,
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

    /// Bank group of a global bank index.
    fn bg_of(&self, b: usize) -> usize {
        (b % self.banks_per_rank) / self.banks_per_group
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
            phase: RequestPhase::NeedsActivate,
        };
        self.next_seq += 1;
        let pos = self.queues[b].len();
        self.queues[b].push_back(q);
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
                    *slot = Some(pos);
                }
            } else if c.act.is_none() {
                c.act = Some(pos);
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
                    *slot = Some(i);
                }
            } else if q.phase == RequestPhase::NeedsActivate && c.act.is_none() {
                c.act = Some(i);
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
        if self.service_refresh(now) {
            return true;
        }
        if self.issue_row_hit(now) {
            return true;
        }
        if self.issue_oldest(now) {
            return true;
        }
        self.run_governor(now)
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
            let issued = match self.scheme {
                RefreshScheme::AllBank => self.service_refresh_all_bank(ri, now),
                RefreshScheme::SameBank { sets } => self.service_refresh_same_bank(ri, now, sets),
            };
            if issued {
                return true;
            }
        }
        false
    }

    /// All-bank REF: the whole rank must be precharged, and every bank
    /// stalls for tRFC.
    fn service_refresh_all_bank(&mut self, ri: usize, now: u64) -> bool {
        if !self.ranks[ri].all_precharged() {
            // Close one open bank whose tRAS/tRTP/tWR window allows it.
            for bi in 0..self.banks_per_rank {
                let idx = ri * self.banks_per_rank + bi;
                if self.banks.is_open(idx) && now >= self.banks.next_pre[idx] {
                    self.banks.on_precharge(idx, now, &self.timing);
                    self.ranks[ri].on_precharge_bank();
                    self.counters.precharges += 1;
                    self.record(
                        now,
                        ri as u32,
                        bi as u32,
                        (bi / self.banks_per_group) as u32,
                        0,
                        DramCommand::Precharge,
                    );
                    // Any queued request that had this row open must
                    // re-activate.
                    for q in self.queues[idx].iter_mut() {
                        q.phase = RequestPhase::NeedsActivate;
                    }
                    self.cands[idx].valid = false;
                    return true;
                }
            }
            return false; // waiting on tRAS etc.
        }
        if now >= self.ranks[ri].refresh_until {
            let until = now + self.timing.t_rfc;
            let base = ri * self.banks_per_rank;
            for idx in base..base + self.banks_per_rank {
                self.banks.block_until(idx, until);
            }
            let rank = &mut self.ranks[ri];
            rank.refresh_until = until;
            rank.next_refresh += self.timing.t_refi;
            self.counters.refreshes += 1;
            self.record(now, ri as u32, 0, 0, 0, DramCommand::Refresh);
            return true;
        }
        false
    }

    /// DDR5 same-bank REFsb: the due set is one bank per bank group (flat
    /// index `bg * banks_per_group + set`). Only those banks must be
    /// precharged and only they stall — for tRFCsb — while the rest of the
    /// rank keeps serving requests. The set rotates so `sets` consecutive
    /// commands (tREFI/sets apart) refresh the whole rank once per tREFI.
    fn service_refresh_same_bank(&mut self, ri: usize, now: u64, sets: u32) -> bool {
        let set = self.ranks[ri].refresh_set as usize;
        let mut target_open = false;
        for bg in 0..self.bank_groups {
            let idx = self.bank_idx(ri, bg, set);
            if !self.banks.is_open(idx) {
                continue;
            }
            target_open = true;
            if now >= self.banks.next_pre[idx] {
                self.banks.on_precharge(idx, now, &self.timing);
                self.ranks[ri].on_precharge_bank();
                self.counters.precharges += 1;
                self.record(
                    now,
                    ri as u32,
                    (idx % self.banks_per_rank) as u32,
                    bg as u32,
                    0,
                    DramCommand::Precharge,
                );
                // Any queued request that had this row open must re-activate.
                for q in self.queues[idx].iter_mut() {
                    q.phase = RequestPhase::NeedsActivate;
                }
                self.cands[idx].valid = false;
                return true;
            }
        }
        if target_open {
            return false; // waiting on tRAS etc.
        }
        if now >= self.ranks[ri].refresh_until {
            let until = now + self.timing.t_rfc_sb;
            for bg in 0..self.bank_groups {
                let idx = self.bank_idx(ri, bg, set);
                self.banks.block_until(idx, until);
            }
            let rank = &mut self.ranks[ri];
            rank.refresh_until = until;
            rank.next_refresh += self.timing.t_refi / u64::from(sets);
            rank.refresh_set = (rank.refresh_set + 1) % sets;
            self.counters.refreshes += 1;
            // bank = the refreshed set index (one bank per group).
            self.record(
                now,
                ri as u32,
                set as u32,
                0,
                0,
                DramCommand::RefreshSameBank,
            );
            return true;
        }
        false
    }

    fn rank_ready(&self, rank: usize) -> bool {
        let r = &self.ranks[rank];
        !r.power.is_low_power() && r.wake_at.is_none()
    }

    /// Earliest cycle a column command of `kind` can issue to bank `b`
    /// (tCCD, bank tRCD, rank bus turnaround, data-bus occupancy).
    fn column_time(&self, ri: usize, bg: usize, b: usize, kind: AccessKind) -> u64 {
        let t = &self.timing;
        let rank = &self.ranks[ri];
        let col = self
            .next_col_any
            .max(self.next_col_bg[self.col_bg_idx(ri, bg)]);
        match kind {
            AccessKind::Read => col
                .max(self.banks.next_read[b])
                .max(rank.next_read)
                .max(self.bus_free_at.saturating_sub(t.cl)),
            AccessKind::Write => col
                .max(self.banks.next_write[b])
                .max(rank.next_write)
                .max(self.bus_free_at.saturating_sub(t.cwl)),
        }
    }

    fn issue_column_at(&mut self, b: usize, pos: usize, now: u64) {
        let q = self.queues[b]
            .remove(pos)
            .expect("candidate position is in range");
        let ri = b / self.banks_per_rank;
        let flat = b % self.banks_per_rank;
        let bg = flat / self.banks_per_group;
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
                if *p > pos {
                    *p -= 1;
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
                        *slot = Some(i);
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
        if matches!(q.phase, RequestPhase::NeedsActivate) {
            // Column issued without this request paying for an ACT: row hit.
            self.counters.row_hits += 1;
        }
        self.ranks[ri].idle_since = now;
    }

    /// FR-FCFS first pass: oldest ready row-hit column command.
    fn issue_row_hit(&mut self, now: u64) -> bool {
        let mut best: Option<(u64, usize, usize)> = None;
        for b in 0..self.queues.len() {
            if self.queues[b].is_empty() || !self.banks.is_open(b) {
                continue;
            }
            let ri = b / self.banks_per_rank;
            if !self.rank_ready(ri) {
                continue;
            }
            self.ensure_cands(b);
            let c = self.cands[b];
            let bg = self.bg_of(b);
            for (slot, kind) in [
                (c.col_read, AccessKind::Read),
                (c.col_write, AccessKind::Write),
            ] {
                let Some(pos) = slot else { continue };
                if now < self.column_time(ri, bg, b, kind) {
                    continue;
                }
                let seq = self.queues[b][pos].seq;
                if best.is_none_or(|(s, _, _)| seq < s) {
                    best = Some((seq, b, pos));
                }
            }
        }
        match best {
            Some((_, b, pos)) => {
                self.issue_column_at(b, pos, now);
                true
            }
            None => false,
        }
    }

    /// FR-FCFS second pass: make progress for the oldest request that can
    /// move (wake its rank, precharge a conflicting row, or activate).
    fn issue_oldest(&mut self, now: u64) -> bool {
        let mut best: Option<(u64, OldestAction)> = None;
        for ri in 0..self.ranks.len() {
            if self.queued_per_rank[ri] == 0 || self.ranks[ri].wake_at.is_some() {
                continue;
            }
            let base = ri * self.banks_per_rank;
            if self.ranks[ri].power.is_low_power() {
                // Issue PDX / SRX — CKE must have been low for tCKE first.
                // The wake is justified by the rank's oldest request, of any
                // phase.
                if now < self.ranks[ri].state_since + self.timing.t_cke {
                    continue;
                }
                let mut seq = u64::MAX;
                for b in base..base + self.banks_per_rank {
                    if let Some(front) = self.queues[b].front() {
                        seq = seq.min(front.seq);
                    }
                }
                if seq != u64::MAX && best.as_ref().is_none_or(|(s, _)| seq < *s) {
                    best = Some((seq, OldestAction::Wake { rank: ri }));
                }
                continue;
            }
            if self.refresh_due(ri, now) {
                continue; // refresh has priority on this rank
            }
            for b in base..base + self.banks_per_rank {
                if self.queues[b].is_empty() {
                    continue;
                }
                self.ensure_cands(b);
                let Some(pos) = self.cands[b].act else {
                    continue;
                };
                if self.banks.is_open(b) {
                    // Row conflict: precharge when allowed.
                    if now < self.banks.next_pre[b] {
                        continue;
                    }
                    let seq = self.queues[b][pos].seq;
                    if best.as_ref().is_none_or(|(s, _)| seq < *s) {
                        best = Some((seq, OldestAction::Precharge { bank: b }));
                    }
                } else {
                    let bg = self.bg_of(b);
                    if now < self.banks.next_act[b] || now < self.ranks[ri].act_allowed_at(bg) {
                        continue;
                    }
                    let seq = self.queues[b][pos].seq;
                    if best.as_ref().is_none_or(|(s, _)| seq < *s) {
                        best = Some((seq, OldestAction::Activate { bank: b, pos }));
                    }
                }
            }
        }
        let Some((_, action)) = best else {
            return false;
        };
        match action {
            OldestAction::Wake { rank } => {
                let (latency, exit_cmd) = match self.ranks[rank].power {
                    RankPowerState::PowerDown => (self.timing.t_xp, DramCommand::PowerDownExit),
                    RankPowerState::SelfRefresh => (self.timing.t_xs, DramCommand::SelfRefreshExit),
                    _ => unreachable!("wake candidate on an awake rank"),
                };
                self.ranks[rank].wake_at = Some(now + latency);
                self.record(now, rank as u32, 0, 0, 0, exit_cmd);
            }
            OldestAction::Precharge { bank } => {
                let ri = bank / self.banks_per_rank;
                self.banks.on_precharge(bank, now, &self.timing);
                self.ranks[ri].on_precharge_bank();
                self.counters.precharges += 1;
                self.counters.row_conflicts += 1;
                self.record(
                    now,
                    ri as u32,
                    (bank % self.banks_per_rank) as u32,
                    self.bg_of(bank) as u32,
                    0,
                    DramCommand::Precharge,
                );
                self.ranks[ri].idle_since = now;
                self.cands[bank].valid = false;
            }
            OldestAction::Activate { bank, pos } => {
                let ri = bank / self.banks_per_rank;
                let bg = self.bg_of(bank);
                let row = self.queues[bank][pos].row;
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
                    (bank % self.banks_per_rank) as u32,
                    bg as u32,
                    row,
                    DramCommand::Activate,
                );
                self.queues[bank][pos].phase = RequestPhase::NeedsColumn;
                self.ranks[ri].idle_since = now;
                self.cands[bank].valid = false;
            }
        }
        true
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

    /// Earliest future cycle at which this channel could do something.
    /// Returns `u64::MAX` when nothing is outstanding (other than
    /// self-refresh bookkeeping, which needs no controller action).
    ///
    /// The estimate may be conservative (an extra poll that issues nothing
    /// is harmless) but must never overshoot a cycle on which `try_issue`
    /// would act — that is the invariant the engine-equivalence suite pins
    /// down. It is exact for the common cases: the per-bank candidate gates
    /// reuse the same `column_time`/tRP/tRRD/tFAW arithmetic the issue
    /// passes check, so after a successful issue the driving loop can jump
    /// straight to the next legal issue cycle.
    pub fn next_event(&mut self, now: u64) -> u64 {
        let mut t = u64::MAX;
        for (ri, rank) in self.ranks.iter().enumerate() {
            if let Some(w) = rank.wake_at {
                t = t.min(w);
            }
            if rank.power != RankPowerState::SelfRefresh {
                // A power-down rank cannot begin its refresh wake-up before
                // CKE has been low for tCKE.
                let mut refr = rank.next_refresh;
                if rank.power == RankPowerState::PowerDown {
                    refr = refr.max(rank.state_since + self.timing.t_cke);
                }
                t = t.min(refr.max(now + 1));
                if rank.refresh_until > now {
                    t = t.min(rank.refresh_until);
                }
            }
            // Governor deadlines.
            if rank.wake_at.is_none() && rank.all_precharged() && self.queued_per_rank[ri] == 0 {
                let base = rank.idle_since;
                match rank.power {
                    RankPowerState::PrechargeStandby => {
                        if let Some(pdt) = self.policy.pd_timeout {
                            t = t.min((base + pdt).max(now + 1));
                        }
                        if let Some(srt) = self.policy.sr_timeout {
                            t = t.min((base + srt).max(now + 1));
                        }
                    }
                    RankPowerState::PowerDown => {
                        if let Some(srt) = self.policy.sr_timeout {
                            t = t.min((base + srt).max(now + 1));
                        }
                    }
                    RankPowerState::ActiveStandby => {
                        // The governor's ActiveStandby → PrechargeStandby
                        // bookkeeping transition is untimed: it fires on the
                        // next poll once the rank is fully precharged and
                        // has no queued work, so the next poll must come at
                        // now + 1 for residency to match the stepped engine.
                        t = t.min(now + 1);
                    }
                    RankPowerState::SelfRefresh => {}
                }
            }
        }
        for b in 0..self.queues.len() {
            if self.queues[b].is_empty() {
                continue;
            }
            let ri = b / self.banks_per_rank;
            if let Some(w) = self.ranks[ri].wake_at {
                t = t.min(w.max(now + 1));
                continue;
            }
            if self.ranks[ri].power.is_low_power() {
                // A demand wake-up can be issued once CKE has been low tCKE.
                t = t.min((self.ranks[ri].state_since + self.timing.t_cke).max(now + 1));
                continue;
            }
            if matches!(self.scheme, RefreshScheme::AllBank) && self.ranks[ri].refresh_until > now {
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
            let c = self.cands[b];
            let bg = self.bg_of(b);
            if self.banks.is_open(b) {
                for (slot, kind) in [
                    (c.col_read, AccessKind::Read),
                    (c.col_write, AccessKind::Write),
                ] {
                    if slot.is_some() {
                        t = t.min(self.column_time(ri, bg, b, kind).max(now + 1));
                    }
                }
                if c.act.is_some() {
                    t = t.min(self.banks.next_pre[b].max(now + 1));
                }
            } else if c.act.is_some() {
                let gate = self.banks.next_act[b].max(self.ranks[ri].act_allowed_at(bg));
                t = t.min(gate.max(now + 1));
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
