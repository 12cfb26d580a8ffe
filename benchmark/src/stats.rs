//! Order statistics for latency samples and for run-to-run comparison.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier would decide the number.
pub const MIN_BEYOND: usize = 10;

/// Ascending copy of `values`.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 for an empty sample).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (the mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) in `n` samples.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of an ascending-sorted, non-empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples ranked strictly above the nearest-rank percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] samples beyond
/// it, so that it may be reported.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Quartiles `(q1, q2, q3)` computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads read the same here as in any Python check of the same values.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// regression bounds are set against.
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond it; of 999 only nine.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!supports(999, 0.99));
        // p90 needs a hundred samples.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert_eq!(beyond(0, 0.5), 0);
        assert_eq!(beyond(5, 1.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
