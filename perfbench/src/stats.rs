//! Exact order statistics over the bench's own per-request samples.
//!
//! Every latency quantile the bench reports comes from here, never from
//! a bucketed histogram: a factor-2 bucket edge cannot show a 10% change.

/// The nearest-rank `q`-quantile of `sorted` (ascending): the sample at
/// 1-based rank `ceil(q * n)`, so exactly `n - rank` samples lie beyond
/// it. `None` for an empty slice or `q` outside `(0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let n = sorted.len();
    // The epsilon keeps ranks such as 0.99 * 1000 = 990 exact despite
    // binary rounding of q.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    Some(sorted[rank.min(n) - 1])
}

/// A sorted copy of `values` (total order, so a NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of unsorted `values` (nearest-rank), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values), 0.5)
}

/// The arithmetic mean, or 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
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
    fn nearest_rank_on_known_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(500.0));
        assert_eq!(quantile(&xs, 0.99), Some(990.0));
        assert_eq!(quantile(&xs, 0.999), Some(999.0));
        assert_eq!(quantile(&xs, 1.0), Some(1000.0));
        // Ten samples lie beyond p99 of 1000.
        let p99 = quantile(&xs, 0.99).unwrap();
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn small_and_degenerate_inputs() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0], 0.5), Some(3.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.0), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn mean_and_ratio() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
