//! Small statistics helpers used by the simulators and the bench harness.

/// A streaming accumulator for mean/min/max/count of an `f64` series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum, or `None` if empty or no recorded sample was ordered
    /// (all NaN).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0 && self.min <= self.max).then_some(self.min)
    }

    /// Maximum, or `None` if empty or the accumulator carries no bounds.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0 && self.min <= self.max).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Computes the p-th percentile (0–100) of a sample set by linear
/// interpolation between closest ranks. Returns `None` for an empty slice.
///
/// Used for the tail-latency (p95/p99) checks on the latency-critical
/// CloudSuite-style workloads.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Geometric mean of a slice. Returns `None` if empty or any element is
/// non-positive. Used to aggregate normalized energy across benchmarks.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), None);
        s.record(1.0);
        s.record(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn summary_merge_and_collect() {
        let a: Summary = [1.0, 2.0].into_iter().collect();
        let mut b: Summary = [10.0].into_iter().collect();
        b.merge(&a);
        assert_eq!(b.count(), 3);
        assert_eq!(b.max(), Some(10.0));
        assert_eq!(b.min(), Some(1.0));
    }

    #[test]
    fn merge_with_empty_keeps_bounds() {
        let mut a: Summary = [5.0].into_iter().collect();
        a.merge(&Summary::new());
        assert_eq!(a.min(), Some(5.0));
        assert_eq!(a.max(), Some(5.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_p99_of_uniform() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert!((p99 - 989.01).abs() < 0.1);
    }

    #[test]
    fn geomean_values() {
        assert_eq!(geomean(&[4.0, 1.0]), Some(2.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, -1.0]), None);
    }
}
