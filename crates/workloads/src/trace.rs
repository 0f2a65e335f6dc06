//! Memory-request trace synthesis from benchmark profiles.
//!
//! Generates the open-loop request stream a benchmark presents to the
//! memory controller: arrival rate from MPKI and IPC, addresses from the
//! benchmark's footprint with its row locality, reads/writes in its
//! published ratio.

use crate::profile::AppProfile;
use gd_dram::{MemRequest, CACHE_LINE_BYTES};
use gd_types::rng::{component_rng, StdRng};

/// CPU core frequency assumed by the arrival-rate conversion (the paper's
/// Xeon runs near 3.2 GHz).
pub const CPU_FREQ_MHZ: f64 = 3200.0;

/// Memory clock of DDR4-2133.
pub const MEM_FREQ_MHZ: f64 = 1_066.666_666_666_666_7;

/// A deterministic generator of [`MemRequest`]s for one benchmark.
#[derive(Debug)]
pub struct TraceGenerator {
    profile: AppProfile,
    footprint_lines: u64,
    /// Mean memory-cycles between requests.
    gap_cycles: f64,
    rng: StdRng,
    cursor_line: u64,
    next_arrival: f64,
}

impl TraceGenerator {
    /// Creates a generator for `profile`, with the footprint starting at
    /// physical address zero (the OS packs pages low).
    pub fn new(profile: AppProfile, seed: u64) -> Self {
        let footprint_lines = (profile.footprint_bytes() / CACHE_LINE_BYTES).max(1);
        // Requests per CPU cycle = (MPKI/1000) * IPC * prefetch traffic;
        // convert to memory cycles via the clock ratio.
        let ipc = 1.0 / profile.cpi_base;
        let req_per_cpu_cycle = profile.mpki / 1000.0 * ipc * profile.prefetch_factor();
        let req_per_mem_cycle = req_per_cpu_cycle * (CPU_FREQ_MHZ / MEM_FREQ_MHZ);
        let gap_cycles = 1.0 / req_per_mem_cycle.max(1e-9);
        TraceGenerator {
            rng: component_rng(seed, profile.name),
            profile,
            footprint_lines,
            gap_cycles,
            cursor_line: 0,
            next_arrival: 0.0,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Generates the next request.
    pub fn next_request(&mut self) -> MemRequest {
        // Row locality: continue sequentially with probability
        // `row_locality`, otherwise jump to a random line of the footprint.
        if self.rng.gen_bool(self.profile.row_locality.get()) {
            self.cursor_line = (self.cursor_line + 1) % self.footprint_lines;
        } else {
            self.cursor_line = self.rng.gen_range(0..self.footprint_lines);
        }
        let addr = self.cursor_line * CACHE_LINE_BYTES;
        // Exponential inter-arrival around the mean gap.
        let u: f64 = self.rng.gen_range(1e-9..1.0f64);
        self.next_arrival += -self.gap_cycles * u.ln();
        let arrival = self.next_arrival as u64;
        if self.rng.gen_bool(self.profile.read_fraction.get()) {
            MemRequest::read(addr, arrival)
        } else {
            MemRequest::write(addr, arrival)
        }
    }

    /// Generates a trace of `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<MemRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }

    /// Generates a trace of `n` requests with every address wrapped into
    /// `cap` bytes, so a footprint larger than a probe's DRAM still maps
    /// onto it.
    pub fn take_wrapped(&mut self, n: usize, cap: u64) -> Vec<MemRequest> {
        (0..n)
            .map(|_| {
                let mut r = self.next_request();
                r.addr %= cap;
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::by_name;
    use gd_dram::AccessKind;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let mut a = TraceGenerator::new(by_name("mcf").unwrap(), 7);
        let mut b = TraceGenerator::new(by_name("mcf").unwrap(), 7);
        assert_eq!(a.take(100), b.take(100));
        let mut c = TraceGenerator::new(by_name("mcf").unwrap(), 8);
        assert_ne!(a.take(100), c.take(100));
    }

    #[test]
    fn addresses_stay_within_footprint() {
        let p = by_name("libquantum").unwrap();
        let bytes = p.footprint_bytes();
        let mut g = TraceGenerator::new(p, 1);
        for r in g.take(5000) {
            assert!(r.addr < bytes, "addr {:#x} outside footprint", r.addr);
        }
    }

    #[test]
    fn arrival_times_monotone_and_rate_scales_with_mpki() {
        let mut intense = TraceGenerator::new(by_name("mcf").unwrap(), 1);
        let mut light = TraceGenerator::new(by_name("povray").unwrap(), 1);
        let ti = intense.take(2000);
        let tl = light.take(2000);
        assert!(ti.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // povray (MPKI 0.1) arrivals are ~2 orders of magnitude sparser.
        assert!(tl.last().unwrap().arrival > ti.last().unwrap().arrival * 50);
    }

    #[test]
    fn read_write_mix_near_profile() {
        let p = by_name("mcf").unwrap();
        let mut g = TraceGenerator::new(p.clone(), 3);
        let trace = g.take(10_000);
        let reads = trace.iter().filter(|r| r.kind == AccessKind::Read).count() as f64;
        let frac = reads / trace.len() as f64;
        assert!(
            (frac - p.read_fraction.get()).abs() < 0.03,
            "read frac {frac}"
        );
    }

    #[test]
    fn high_locality_produces_sequential_runs() {
        let p = by_name("libquantum").unwrap(); // 0.9 locality
        let mut g = TraceGenerator::new(p, 5);
        let trace = g.take(1000);
        let sequential = trace
            .windows(2)
            .filter(|w| w[1].addr == w[0].addr + CACHE_LINE_BYTES)
            .count() as f64;
        assert!(sequential / 999.0 > 0.75);
    }
}
