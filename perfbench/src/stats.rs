//! Small statistics helpers: medians of repeated host timings and the
//! percentile rule for simulated latencies.

/// Percentiles a latency may be reported at, highest last.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Samples strictly above the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples, by
/// the same rule as `simcore::stats::Samples::percentile`.
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it among `n`, with that count; `None`
/// when not even the median does.
pub fn highest_supported(n: usize) -> Option<(f64, usize)> {
    LADDER
        .iter()
        .rev()
        .map(|&p| (p, beyond(n, p)))
        .find(|&(_, b)| n > 0 && b >= MIN_BEYOND)
}

/// Whether the `p`-th percentile of `n` samples is supported.
pub fn supports(n: usize, p: f64) -> bool {
    highest_supported(n).is_some_and(|(top, _)| p <= top)
}

/// Nearest-rank percentile of unsorted `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// Median by linear interpolation (the mean of the two middle values
/// for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(highest_supported(999), Some((90.0, 99)));
        assert_eq!(highest_supported(1_000), Some((99.0, 10)));
        assert_eq!(highest_supported(30_000), Some((99.9, 29)));
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn tiny_samples_support_nothing_or_only_the_median() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some((50.0, 10)));
        assert_eq!(highest_supported(100), Some((90.0, 10)));
        // 290 recoveries: p99 would leave only two samples beyond it.
        assert_eq!(beyond(290, 99.0), 2);
        assert_eq!(highest_supported(290), Some((90.0, 29)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
