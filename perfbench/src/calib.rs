//! The yardstick the benchmark's host times are read against.
//!
//! The machines it runs on are shared: the same binary on the same input
//! runs tens of percent faster or slower from one second to the next, with
//! CPU time moving alongside wall time. So the parent process times a fixed
//! reference computation before a repetition's first operation and again
//! after each segment of operations, while the child waits. Each segment's
//! time is divided by the mean of the two reference times around it and
//! multiplied by [`REFERENCE_S`]: the result is the segment's time on a
//! machine that runs the reference in exactly `REFERENCE_S`. The child's
//! set-up time is read against the first reading, taken right after it.
//!
//! The reference sorts random integers, because that slows down with the
//! machine by nearly the same factor as the simulator does. Over eight
//! minutes on a 2-vCPU KVM guest (Xeon, 2.1 GHz), the simulator's median
//! time per 25-second window swung by up to 1.9x; read against this
//! reference, by 1.1-1.2x. Ordered-map churn with scattered table writes
//! slowed down less than the simulator and left 1.15-1.35x.

use std::hint::black_box;
use std::time::Instant;

/// The reference computation's nominal time, in seconds: about what it
/// takes on the machine above at its fastest. It only sets the scale.
pub const REFERENCE_S: f64 = 0.0012;

/// Timings per reference reading; the reading is the fastest of them, so
/// an interrupt or a page fault in one does not count as a slow machine.
const SAMPLES: usize = 3;

/// Integers per sort: 32 KiB of `u64`.
const LEN: usize = 4096;

/// Sorts per timing.
const SORTS: usize = 32;

/// The reference computation, with its input drawn and its buffer
/// allocated once, so that a reading times the machine and not the
/// allocator.
pub struct Reference {
    input: Vec<u64>,
    buf: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let input = (0..LEN)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut r = Reference {
            input,
            buf: Vec::with_capacity(LEN),
        };
        r.work();
        r
    }
}

impl Reference {
    /// Sorts the same random integers [`SORTS`] times: data-dependent
    /// branches over a working set that fits in the first-level cache, so
    /// its time measures the machine.
    fn work(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..SORTS {
            self.buf.clear();
            self.buf.extend_from_slice(&self.input);
            self.buf.sort_unstable();
            acc = acc.wrapping_add(self.buf[LEN / 2]);
        }
        black_box(acc)
    }

    /// One reading: wall seconds the reference computation takes now.
    pub fn time(&mut self) -> f64 {
        (0..SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                self.work();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// `t` seconds measured while the reference took `reading` seconds, in
/// seconds of a machine that runs the reference in [`REFERENCE_S`].
pub fn scale(t: f64, reading: f64) -> f64 {
    t * REFERENCE_S / reading
}

/// The normalised total of one repetition: `segments[i]` ran between the
/// reference readings `refs[i]` and `refs[i + 1]`.
pub fn normalised_s(segments: &[f64], refs: &[f64]) -> Result<f64, String> {
    if refs.len() != segments.len() + 1 || refs.iter().any(|r| !r.is_finite() || *r <= 0.0) {
        return Err(format!(
            "{} segments need {} positive reference readings, got {:?}",
            segments.len(),
            segments.len() + 1,
            refs
        ));
    }
    Ok(segments
        .iter()
        .zip(refs.windows(2))
        .map(|(s, around)| scale(*s, (around[0] + around[1]) / 2.0))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_scale_by_the_reference_around_them() {
        let r = REFERENCE_S;
        // At nominal speed the times pass through unchanged.
        assert!((normalised_s(&[1.0, 2.0], &[r, r, r]).unwrap() - 3.0).abs() < 1e-12);
        // A machine half as fast around the second segment only.
        let v = normalised_s(&[1.0, 2.0], &[r, 2.0 * r, 2.0 * r]).unwrap();
        assert!((v - (1.0 / 1.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn mismatched_readings_are_an_error() {
        assert!(normalised_s(&[1.0], &[REFERENCE_S]).is_err());
        assert!(normalised_s(&[1.0], &[REFERENCE_S, 0.0]).is_err());
    }

    #[test]
    fn a_reading_takes_measurable_time() {
        assert!(Reference::default().time() > 0.0);
    }
}
