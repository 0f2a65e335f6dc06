//! The arbitration scan and `next_event` before the column gates were
//! split, kept as the test oracle for the fast scan in the parent module.
//! The reference computes each bank's whole column gate (`column_time`),
//! finds a bank's rank and bank group by division, and reads each
//! candidate's age through the bank FIFO. A seeded differential test drives
//! channels through random traces and checks, at every poll, that the fast
//! scan picks the same command (kind, bank, FIFO position) and the same
//! next event.

use super::*;

impl ChannelCtrl {
    /// Bank group of a global bank index.
    fn bg_of(&self, b: usize) -> usize {
        (b % self.banks_per_rank) / self.banks_per_group
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

    /// What [`ChannelCtrl::choose`] picks, by the undivided scan.
    pub(super) fn choose_reference(&mut self, now: u64) -> Option<Choice> {
        let mut hit: Option<(u64, usize, usize)> = None;
        let mut best: Option<(u64, Choice)> = None;
        let (mut rank, mut gate) = (usize::MAX, RankGate::Blocked);
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while let Some(b) = pop_bank(w, &mut bits) {
                let ri = b / self.banks_per_rank;
                if ri != rank {
                    (rank, gate) = (ri, self.rank_gate(ri, now));
                }
                let moves = match gate {
                    RankGate::Blocked => continue,
                    RankGate::Wake => {
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
                let bg = self.bg_of(b);
                if open {
                    for (slot, kind) in [
                        (c.col_read, AccessKind::Read),
                        (c.col_write, AccessKind::Write),
                    ] {
                        let Some(Cand { pos, .. }) = slot else {
                            continue;
                        };
                        let seq = self.queues[b][pos].seq;
                        if hit.is_none_or(|(s, _, _)| seq < s)
                            && now >= self.column_time(ri, bg, b, kind)
                        {
                            hit = Some((seq, b, pos));
                        }
                    }
                }
                if !moves || hit.is_some() {
                    continue;
                }
                let Some(Cand { pos, .. }) = c.act else {
                    continue;
                };
                let seq = self.queues[b][pos].seq;
                if best.is_some_and(|(s, _)| s < seq) {
                    continue;
                }
                let action = if open {
                    if now < self.banks.next_pre[b] {
                        continue;
                    }
                    Choice::Precharge { bank: b }
                } else {
                    if now < self.banks.next_act[b] || now < self.ranks[ri].act_allowed_at(bg) {
                        continue;
                    }
                    Choice::Activate { bank: b, pos }
                };
                best = Some((seq, action));
            }
        }
        if let Some((_, bank, pos)) = hit {
            return Some(Choice::Column { bank, pos });
        }
        best.map(|(_, action)| action)
    }

    /// What [`ChannelCtrl::next_event`] returns, with each bank's whole
    /// column gate taken per bank.
    pub(super) fn next_event_reference(&mut self, now: u64) -> u64 {
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
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while let Some(b) = pop_bank(w, &mut bits) {
                let ri = b / self.banks_per_rank;
                if let Some(wake) = self.ranks[ri].wake_at {
                    t = t.min(wake.max(now + 1));
                    continue;
                }
                if self.ranks[ri].power.is_low_power() {
                    t = t.min((self.ranks[ri].state_since + self.timing.t_cke).max(now + 1));
                    continue;
                }
                if matches!(self.scheme, RefreshScheme::AllBank)
                    && self.ranks[ri].refresh_until > now
                {
                    t = t.min(self.ranks[ri].refresh_until);
                    continue;
                }
                self.ensure_cands(b);
                let mut c = self.cands[b];
                if self.refresh_due(ri, now) {
                    c.act = None;
                }
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
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrmap::AddressMapper;
    use crate::command::MemRequest;
    use gd_types::rng::StdRng;

    /// How often the differential test reached the cases it exists for:
    /// polls where a kind's channel floor was shut while a bank held an
    /// open-row candidate of that kind, `issue_column_at` rescans that
    /// found a younger request of the served kind, each kind of command
    /// chosen, and reopened rows.
    #[derive(Debug, Default)]
    struct Coverage {
        floor_shut: u64,
        rescans: u64,
        columns: u64,
        wakes: u64,
        precharges: u64,
        activates: u64,
        reopened: u64,
    }

    /// One poll as [`ChannelCtrl::try_issue`] makes it, with the
    /// arbitration step checked against the reference.
    fn checked_poll(ch: &mut ChannelCtrl, now: u64, cov: &mut Coverage) -> bool {
        ch.complete_wakeups(now);
        ch.advance_self_refresh_counters(now);
        if ch.service_refresh(now) {
            return true;
        }
        for kind in [AccessKind::Read, AccessKind::Write] {
            let shut = now < ch.channel_column_floor(kind);
            let pending = (0..ch.cands.len()).any(|b| {
                let c = ch.cands[b];
                let slot = match kind {
                    AccessKind::Read => c.col_read,
                    AccessKind::Write => c.col_write,
                };
                c.valid && ch.banks.is_open(b) && slot.is_some()
            });
            cov.floor_shut += u64::from(shut && pending);
        }
        let slow = ch.choose_reference(now);
        let fast = ch.choose(now);
        assert_eq!(fast, slow, "choice at cycle {now}");
        let Some(choice) = fast else {
            return ch.run_governor(now);
        };
        let served = match choice {
            Choice::Column { bank, pos } => {
                cov.columns += 1;
                Some((bank, ch.queues[bank][pos].req.kind))
            }
            Choice::Wake { .. } => {
                cov.wakes += 1;
                None
            }
            Choice::Precharge { .. } => {
                cov.precharges += 1;
                None
            }
            Choice::Activate { .. } => {
                cov.activates += 1;
                None
            }
        };
        ch.apply(choice, now);
        if let Some((bank, kind)) = served {
            // The rescan found a younger request of the served kind.
            let c = ch.cands[bank];
            let slot = match kind {
                AccessKind::Read => c.col_read,
                AccessKind::Write => c.col_write,
            };
            cov.rescans += u64::from(c.valid && slot.is_some());
        }
        true
    }

    /// Every valid cached candidate names the request it claims: the seq
    /// it carries is the seq at its FIFO position.
    fn assert_cands_carry_their_seq(ch: &ChannelCtrl, now: u64) {
        for (b, c) in ch.cands.iter().enumerate() {
            if !c.valid {
                continue;
            }
            for cand in [c.col_read, c.col_write, c.act].into_iter().flatten() {
                assert_eq!(
                    ch.queues[b][cand.pos].seq, cand.seq,
                    "bank {b} candidate at {} carries a stale seq at cycle {now}",
                    cand.pos
                );
            }
        }
    }

    /// A random channel-0 trace for `cfg`: bursts of requests to a few hot
    /// rows per bank (row hits, conflicts and reopened rows), reads and
    /// writes mixed, separated by idle gaps long enough for the policy to
    /// power ranks down or put them in self-refresh.
    fn random_trace(cfg: &DramConfig, rng: &mut StdRng, len: usize) -> Vec<PendingRequest> {
        let mapper = AddressMapper::new(cfg).expect("test config is valid");
        let lines = mapper.capacity_bytes() / 64;
        let hot: Vec<u64> = (0..12).map(|_| rng.gen_range(0..lines)).collect();
        let mut out = Vec::with_capacity(len);
        let mut now = 0u64;
        while out.len() < len {
            now += match rng.gen_range(0..100u32) {
                0..=59 => 0,
                60..=89 => rng.gen_range(1..20u64),
                90..=97 => rng.gen_range(20..400u64),
                _ => rng.gen_range(400..6_000u64),
            };
            let line = if rng.gen_bool(0.8) {
                // Near a hot line: same row in the interleaved layout or a
                // neighbouring one.
                (hot[rng.gen_range(0..hot.len())] + rng.gen_range(0..256u64)) % lines
            } else {
                rng.gen_range(0..lines)
            };
            let addr = line * 64;
            let coord = mapper.decode(addr).expect("address in range");
            if coord.channel.index() != 0 {
                continue;
            }
            let req = if rng.gen_bool(0.3) {
                MemRequest::write(addr, now)
            } else {
                MemRequest::read(addr, now)
            };
            out.push(PendingRequest { coord, req });
        }
        out
    }

    /// Drives a checked channel and a production twin through one trace.
    /// The checked channel compares `choose` with the reference at every
    /// poll and `next_event` with the reference after it; every other poll
    /// or so it steps one cycle instead of jumping, which is harmless and
    /// visits cycles where gates are still shut. The twin runs the same
    /// polls through `try_issue` and must log the same commands, which
    /// pins `checked_poll` to the production poll.
    fn drive(cfg: &DramConfig, policy: LowPowerPolicy, seed: u64, cov: &mut Coverage) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_trace(cfg, &mut rng, 600);
        let mut ch = ChannelCtrl::new(cfg, policy);
        let mut twin = ChannelCtrl::new(cfg, policy);
        ch.enable_log();
        twin.enable_log();
        let mut next = 0;
        let mut now = 0u64;
        let end = trace.last().map_or(0, |p| p.req.arrival) + 40_000;
        while now < end {
            while next < trace.len() && trace[next].req.arrival <= now {
                ch.enqueue(trace[next], now);
                twin.enqueue(trace[next], now);
                next += 1;
            }
            let issued = checked_poll(&mut ch, now, cov);
            assert_eq!(twin.try_issue(now), issued, "poll at cycle {now}");
            assert_cands_carry_their_seq(&ch, now);
            let fast = ch.next_event(now);
            assert_eq!(
                fast,
                ch.next_event_reference(now),
                "next_event at cycle {now}"
            );
            twin.next_event(now);
            let arrival = trace.get(next).map_or(u64::MAX, |p| p.req.arrival);
            now = if rng.gen_bool(0.5) {
                now + 1
            } else {
                fast.max(now + 1).min(arrival.max(now + 1))
            };
        }
        assert!(!ch.busy(), "seed {seed}: the trace drains");
        cov.reopened += ch.reopened_rows();
        assert_eq!(ch.take_log(), twin.take_log(), "seed {seed}");
    }

    fn differential(seeds: std::ops::Range<u64>) {
        let mut cov = Coverage::default();
        for seed in seeds {
            for cfg in [
                DramConfig::small_test(),
                DramConfig::small_test_ddr5(),
                DramConfig::small_test_lpddr4(),
            ] {
                for policy in [
                    LowPowerPolicy::disabled(),
                    LowPowerPolicy {
                        pd_timeout: Some(64),
                        sr_timeout: None,
                    },
                    LowPowerPolicy {
                        pd_timeout: Some(48),
                        sr_timeout: Some(1_500),
                    },
                ] {
                    drive(&cfg, policy, seed, &mut cov);
                }
            }
        }
        assert!(cov.floor_shut > 0, "{cov:?}");
        assert!(cov.rescans > 0, "{cov:?}");
        assert!(cov.columns > 0 && cov.wakes > 0, "{cov:?}");
        assert!(cov.precharges > 0 && cov.activates > 0, "{cov:?}");
        assert!(cov.reopened > 0, "{cov:?}");
    }

    /// The split column gates, the geometry table and the ages carried in
    /// the candidate cache choose what the undivided scan chooses, at every
    /// poll, and `next_event` returns what it returned, on DDR4, DDR5
    /// (same-bank refresh) and LPDDR4 with power-down and self-refresh.
    #[test]
    fn fast_scan_matches_the_reference() {
        differential(0..3);
    }

    /// [`fast_scan_matches_the_reference`] over 48 more seeds;
    /// `tools/ci.sh` runs it in release mode.
    #[test]
    #[ignore = "wide-seed run, 48 seeds per memory generation and policy"]
    fn fast_scan_matches_the_reference_wide_seeds() {
        differential(3..51);
    }
}
