//! The memory controller's sub-array deep power-down register file, as seen
//! by the GreenDIMM daemon.
//!
//! One bit per sub-array group — 64 bits regardless of channel/rank count
//! (§4.3) versus 128 bits for per-bank PASR masks on the same platform.
//! The daemon clears a group's bit before calling `online_pages()` and
//! charges the exit latency to its hotplug time; the deep power-down exit
//! takes no longer than the 18 ns power-down exit because the DLL stays on.

use gd_types::bits;
use gd_types::ids::SubArrayGroup;
use gd_types::{GdError, Result, SimTime};

/// Deep power-down exit latency (= power-down exit; the DLL stays on).
pub const DEEP_PD_EXIT: SimTime = SimTime::from_nanos(18);

/// The bit-vector register with per-group power-down state and residency
/// accounting for the power model.
#[derive(Debug, Clone)]
pub struct GroupRegisterFile {
    groups: u32,
    /// The down bits as words: bit `g % 64` of word `g / 64` for group
    /// `g`, the bits past the last group clear. 64 groups are one word.
    down: Vec<u64>,
    since: Vec<SimTime>,
    accum: Vec<SimTime>,
}

impl GroupRegisterFile {
    /// Creates a register file for `groups` sub-array groups, all powered.
    pub fn new(groups: u32) -> Self {
        GroupRegisterFile {
            groups,
            down: vec![0; bits::words_for(groups as usize)],
            since: vec![SimTime::ZERO; groups as usize],
            accum: vec![SimTime::ZERO; groups as usize],
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Whether a group is in deep power-down.
    pub fn is_down(&self, g: SubArrayGroup) -> bool {
        bits::test(&self.down, g.index())
    }

    /// The down bits as words: bit `g % 64` of word `g / 64` is set when
    /// group `g` is in deep power-down; the bits past the last group are
    /// clear.
    pub fn down_words(&self) -> &[u64] {
        &self.down
    }

    /// Number of groups currently down.
    pub fn down_count(&self) -> usize {
        self.down.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of groups currently down (feeds the power-gating model).
    pub fn down_fraction(&self) -> f64 {
        self.down_count() as f64 / self.groups.max(1) as f64
    }

    /// Sets a group's bit at time `now`, closing the group's residency
    /// interval when the bit clears.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::NotFound`] for an out-of-range group.
    pub fn set(&mut self, g: SubArrayGroup, down: bool, now: SimTime) -> Result<()> {
        let i = g.index();
        if i >= self.since.len() {
            return Err(GdError::NotFound(g.to_string()));
        }
        if self.is_down(g) == down {
            return Ok(());
        }
        if down {
            self.since[i] = now;
        } else {
            self.accum[i] += now.saturating_sub(self.since[i]);
        }
        bits::assign(&mut self.down, i, down);
        Ok(())
    }

    /// When the group is down, the time it entered deep power-down
    /// (drives the quarantine invariant in `gd-verify`).
    pub fn down_since(&self, g: SubArrayGroup) -> Option<SimTime> {
        self.is_down(g).then(|| self.since[g.index()])
    }

    /// Total time group `g` has spent in deep power-down up to `now`.
    pub fn residency(&self, g: SubArrayGroup, now: SimTime) -> SimTime {
        let i = g.index();
        let mut t = self.accum[i];
        if self.is_down(g) {
            t += now.saturating_sub(self.since[i]);
        }
        t
    }

    /// Mean down-residency fraction across all groups over `[0, now]`.
    pub fn mean_down_fraction(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO || self.groups == 0 {
            return 0.0;
        }
        let total: f64 = (0..self.groups())
            .map(|g| self.residency(SubArrayGroup::new(g), now).as_secs_f64())
            .sum();
        total / (now.as_secs_f64() * f64::from(self.groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_64_bits_for_any_platform() {
        // §4.3: GreenDIMM needs one bit per group regardless of topology.
        let r = GroupRegisterFile::new(64);
        assert_eq!(r.groups(), 64);
        assert!(r.groups() < gd_power::subarray::PASR_REGISTER_BITS_REFERENCE);
    }

    #[test]
    fn set_and_residency() {
        let mut r = GroupRegisterFile::new(8);
        let g = SubArrayGroup::new(3);
        r.set(g, true, SimTime::from_secs(10)).unwrap();
        assert!(r.is_down(g));
        assert_eq!(r.down_count(), 1);
        assert_eq!(
            r.residency(g, SimTime::from_secs(25)),
            SimTime::from_secs(15)
        );
        r.set(g, false, SimTime::from_secs(30)).unwrap();
        assert_eq!(
            r.residency(g, SimTime::from_secs(100)),
            SimTime::from_secs(20)
        );
    }

    #[test]
    fn idempotent_sets() {
        let mut r = GroupRegisterFile::new(4);
        let g = SubArrayGroup::new(1);
        r.set(g, true, SimTime::from_secs(1)).unwrap();
        r.set(g, true, SimTime::from_secs(2)).unwrap(); // no-op
        r.set(g, false, SimTime::from_secs(3)).unwrap();
        assert_eq!(
            r.residency(g, SimTime::from_secs(10)),
            SimTime::from_secs(2)
        );
    }

    #[test]
    fn mean_down_fraction() {
        let mut r = GroupRegisterFile::new(2);
        r.set(SubArrayGroup::new(0), true, SimTime::ZERO).unwrap();
        // Group 0 down for the whole window, group 1 never: mean 0.5.
        let f = r.mean_down_fraction(SimTime::from_secs(10));
        assert!((f - 0.5).abs() < 1e-9);
        assert_eq!(r.down_fraction(), 0.5);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut r = GroupRegisterFile::new(2);
        assert!(r.set(SubArrayGroup::new(5), true, SimTime::ZERO).is_err());
    }
}
