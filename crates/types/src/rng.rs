//! Deterministic RNG: an in-tree xoshiro256++ generator plus seed-derivation
//! helpers.
//!
//! Every stochastic component in the workspace takes an explicit seed so that
//! experiment tables are reproducible bit-for-bit. This module centralizes
//! both the generator implementation and seed derivation so that
//! sub-component streams are independent even when built from one
//! experiment-level seed — and so that no component can reach for an
//! entropy-seeded generator (gd-lint's `sim-purity` rule rejects
//! `from_entropy`/`thread_rng` at the source level).

use std::ops::Range;

/// A deterministic pseudo-random generator (xoshiro256++, seeded through a
/// splitmix64 expansion). The name mirrors the `rand` crate's seedable
/// standard generator, but this implementation is self-contained and its
/// stream is stable across toolchain upgrades — a requirement for
/// reproducible experiment tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StdRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256++ must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        StdRng { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// A uniform sample from a half-open range (integer or `f64`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let offset = rng.next_u64() % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// Creates a deterministic RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a component label.
///
/// Component labels keep streams independent: the workload generator and the
/// VM scheduler seeded from the same experiment seed must not observe
/// correlated randomness. Uses an FNV-1a fold of the label into the seed.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ parent.rotate_left(17);
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche (splitmix64 finalizer) so nearby parents diverge.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Creates a deterministic child RNG for a named component.
pub fn component_rng(parent_seed: u64, label: &str) -> StdRng {
    rng_from_seed(derive_seed(parent_seed, label))
}

/// Derives the seed for one point of a parameter sweep.
///
/// The sweep harness (`gd_bench::sweep`) hands every point a seed that is a
/// pure function of the experiment seed and the point's *index* — never of
/// the worker thread that picked the point up — so fanning a sweep across a
/// thread pool cannot change any result. Routing the index through
/// [`derive_seed`]'s label fold also decorrelates adjacent points.
pub fn sweep_point_seed(parent: u64, index: usize) -> u64 {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(b"sweep-pt");
    buf[8..16].copy_from_slice(&(index as u64).to_le_bytes());
    buf[16..].copy_from_slice(&(index as u64).rotate_left(29).to_le_bytes());
    // The label bytes need not be UTF-8-meaningful; fold them directly.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ parent.rotate_left(17);
    for b in buf {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(7);
        let mut b = rng_from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn labels_produce_distinct_streams() {
        let s1 = derive_seed(42, "workload");
        let s2 = derive_seed(42, "scheduler");
        assert_ne!(s1, s2);
        let mut a = rng_from_seed(s1);
        let mut b = rng_from_seed(s2);
        // Statistically these must differ immediately.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive_seed(1, "x"), derive_seed(1, "x"));
        assert_ne!(derive_seed(1, "x"), derive_seed(2, "x"));
    }

    #[test]
    fn sweep_point_seeds_are_stable_and_distinct() {
        assert_eq!(sweep_point_seed(7, 3), sweep_point_seed(7, 3));
        let seeds: Vec<u64> = (0..64).map(|i| sweep_point_seed(7, i)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "adjacent sweep points must not share seeds");
            }
        }
        assert_ne!(sweep_point_seed(7, 0), sweep_point_seed(8, 0));
    }

    #[test]
    fn component_rng_reproducible() {
        let mut a = component_rng(9, "azure");
        let mut b = component_rng(9, "azure");
        assert_eq!(a.next_f64(), b.next_f64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = rng_from_seed(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = rng_from_seed(11);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let i = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = rng_from_seed(5);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "observed {frac}");
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn distribution_covers_range_uniformly() {
        let mut r = rng_from_seed(17);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }
}
