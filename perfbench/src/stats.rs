//! Order statistics for repeated measurements.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(v, n=4)`
/// (the default `exclusive` method), so the spread this crate reports is
/// the one a reader recomputes from the raw values. One sample gives that
/// sample twice.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let len = s.len();
    assert!(len > 0, "quartiles of no samples");
    if len == 1 {
        return (s[0], s[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that has at least ten samples
/// beyond it, with its nearest-rank value; `None` below 11 samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// Nearest-rank percentile `p` of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "percentile of no samples");
    s[nearest_rank(p, s.len()).max(1) - 1]
}

fn nearest_rank(p: f64, n: usize) -> usize {
    // Rounded before the ceiling so 95 % of 200 is rank 190, not 191.
    ((p / 100.0 * n as f64 * 1e6).round() / 1e6).ceil() as usize
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How far a metric may move the wrong way before it counts as a
/// regression: the larger of a share of the parent's median and an
/// absolute floor for metrics whose small values are mostly noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub share: f64,
    pub floor: f64,
}

impl Bound {
    pub fn allowance(self, parent_median: f64) -> f64 {
        (self.share * parent_median.abs()).max(self.floor)
    }
}

/// Summary of one metric over a run's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let (q1, q3) = quartiles(v);
        Summary {
            median: median(v),
            q1,
            q3,
            n: v.len(),
            tail: tail(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 leaves 2 beyond, p95 leaves exactly 10.
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(
            tail(&(1..=1000).map(f64::from).collect::<Vec<_>>()),
            Some((99.0, 990.0))
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn bounds_take_the_larger_of_share_and_floor() {
        let rss = Bound {
            share: 0.10,
            floor: 4.0,
        };
        // 10 % of 20 MiB is 2 MiB: the 4 MiB floor wins.
        assert_eq!(rss.allowance(20.0), 4.0);
        // 10 % of 100 MiB is 10 MiB: the share wins.
        assert_eq!(rss.allowance(100.0), 10.0);
        let wall = Bound {
            share: 0.10,
            floor: 0.0,
        };
        assert!((wall.allowance(2.0) - 0.2).abs() < 1e-12);
    }
}
