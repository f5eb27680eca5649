//! Order statistics for rounds and latency samples.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the acceptance driver
/// computes its spreads that way, so `compare` must agree with it.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| -> f64 {
        // Position i*(n+1)/4 in 1-based ranks, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Nearest-rank quantile `q` of ascending `sorted`.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile is only reported with at least ten samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// [`quantile_sorted`], or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond the quantile (p99 needs 1000 samples).
pub fn tail_quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    let beyond = sorted.len() - ((q * sorted.len() as f64).ceil() as usize).min(sorted.len());
    (beyond >= MIN_BEYOND).then(|| quantile_sorted(sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[5], 0.99), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_quantile_sorted(&short, 0.99), None, "9 beyond p99");
        let enough: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_quantile_sorted(&enough, 0.99), Some(990));
        assert_eq!(tail_quantile_sorted(&enough, 0.5), Some(500));
    }
}
