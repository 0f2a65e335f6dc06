//! Per-bank row-buffer and timing state, stored struct-of-arrays.
//!
//! The controller's hot loops (arbitration candidate checks, next-ready
//! reductions) touch one or two timing fields of many banks, not every
//! field of one bank. Keeping each field in its own flat array indexed by
//! the global bank offset (`rank * banks_per_rank + flat_bank`) makes those
//! reductions branch-light linear scans over contiguous memory instead of
//! strided walks over an array-of-structs.

use gd_types::config::DramTiming;

/// Sentinel for "no open row" in [`BankArray::open_row`]. Real full-row
/// indices (sub-array × rows-per-sub-array + local row) are far below
/// `u32::MAX` for any valid organization.
pub(crate) const ROW_NONE: u32 = u32::MAX;

/// Timing and row-buffer state of every bank in a channel, one flat array
/// per field (struct-of-arrays).
#[derive(Debug, Clone)]
pub(crate) struct BankArray {
    /// Currently open full row per bank, or [`ROW_NONE`].
    pub open_row: Vec<u32>,
    /// Earliest cycle an ACT may be issued per bank.
    pub next_act: Vec<u64>,
    /// Earliest cycle a READ may be issued per bank.
    pub next_read: Vec<u64>,
    /// Earliest cycle a WRITE may be issued per bank.
    pub next_write: Vec<u64>,
    /// Earliest cycle a PRE may be issued per bank.
    pub next_pre: Vec<u64>,
}

impl BankArray {
    /// All banks closed, all timing gates open.
    pub fn new(banks: usize) -> Self {
        BankArray {
            open_row: vec![ROW_NONE; banks],
            next_act: vec![0; banks],
            next_read: vec![0; banks],
            next_write: vec![0; banks],
            next_pre: vec![0; banks],
        }
    }

    /// Whether bank `b` has an open row.
    pub fn is_open(&self, b: usize) -> bool {
        self.open_row[b] != ROW_NONE
    }

    /// Applies the timing consequences of an ACT issued at `now` to bank `b`.
    pub fn on_activate(&mut self, b: usize, now: u64, row: u32, t: &DramTiming) {
        debug_assert_ne!(row, ROW_NONE, "row index collides with the sentinel");
        self.open_row[b] = row;
        self.next_read[b] = self.next_read[b].max(now + t.t_rcd);
        self.next_write[b] = self.next_write[b].max(now + t.t_rcd);
        self.next_pre[b] = self.next_pre[b].max(now + t.t_ras);
        self.next_act[b] = self.next_act[b].max(now + t.t_rc);
    }

    /// Applies the timing consequences of a READ issued at `now` to bank `b`.
    pub fn on_read(&mut self, b: usize, now: u64, t: &DramTiming) {
        // Read-to-precharge.
        self.next_pre[b] = self.next_pre[b].max(now + t.t_rtp);
    }

    /// Applies the timing consequences of a WRITE issued at `now` to bank `b`.
    pub fn on_write(&mut self, b: usize, now: u64, t: &DramTiming) {
        // Write recovery: data end (CWL + BL/2) plus tWR before precharge.
        self.next_pre[b] = self.next_pre[b].max(now + t.cwl + t.burst_cycles() + t.t_wr);
    }

    /// Applies the timing consequences of a PRE issued at `now` to bank `b`.
    pub fn on_precharge(&mut self, b: usize, now: u64, t: &DramTiming) {
        self.open_row[b] = ROW_NONE;
        self.next_act[b] = self.next_act[b].max(now + t.t_rp);
    }

    /// Blocks bank `b` until `until` (used by refresh).
    pub fn block_until(&mut self, b: usize, until: u64) {
        self.next_act[b] = self.next_act[b].max(until);
        self.next_read[b] = self.next_read[b].max(until);
        self.next_write[b] = self.next_write[b].max(until);
        self.next_pre[b] = self.next_pre[b].max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming::ddr4_2133_4gb()
    }

    #[test]
    fn activate_opens_row_and_sets_constraints() {
        let t = timing();
        let mut b = BankArray::new(2);
        b.on_activate(0, 100, 7, &t);
        assert_eq!(b.open_row[0], 7);
        assert!(b.is_open(0));
        assert!(!b.is_open(1));
        assert_eq!(b.next_read[0], 100 + t.t_rcd);
        assert_eq!(b.next_pre[0], 100 + t.t_ras);
        assert_eq!(b.next_act[0], 100 + t.t_rc);
        // The sibling bank's gates are untouched.
        assert_eq!(b.next_read[1], 0);
    }

    #[test]
    fn precharge_closes_row() {
        let t = timing();
        let mut b = BankArray::new(1);
        b.on_activate(0, 0, 3, &t);
        b.on_precharge(0, 50, &t);
        assert!(!b.is_open(0));
        assert!(b.next_act[0] >= 50 + t.t_rp);
    }

    #[test]
    fn write_recovery_delays_precharge_more_than_read() {
        let t = timing();
        let mut banks = BankArray::new(2);
        banks.on_activate(0, 0, 0, &t);
        banks.on_read(0, 20, &t);
        banks.on_activate(1, 0, 0, &t);
        banks.on_write(1, 20, &t);
        assert!(banks.next_pre[1] > banks.next_pre[0]);
    }

    #[test]
    fn block_until_is_monotone() {
        let mut b = BankArray::new(1);
        b.block_until(0, 500);
        b.block_until(0, 100);
        assert_eq!(b.next_act[0], 500);
        assert_eq!(b.next_read[0], 500);
    }
}
