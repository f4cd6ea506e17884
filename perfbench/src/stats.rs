//! Order statistics over measured samples.

/// The percentile ladder a tail is read from.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Nearest-rank quantile `q` (0 < q ≤ 1) of `sorted` (ascending). `None` for
/// an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` in a sample of `n ≥ 1`. The epsilon
/// keeps `0.99 × 1000` at 990 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    (((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly above the nearest-rank quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest percentile on the ladder with at least ten samples beyond it
/// — the tail a sample of `n` supports. `None` below 20 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| beyond(n, q) >= 10)
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
        for n in [20, 100, 1_000, 4_321, 100_000] {
            let q = highest_supported(n).unwrap();
            assert!(beyond(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
