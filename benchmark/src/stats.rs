//! Order statistics and means over samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `p` is in `(0, 100]`; `values` needn't be
/// sorted. `NaN` for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The median over groups of each non-empty group's nearest-rank 99th
/// percentile.
pub fn median_p99<'a>(groups: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let tails: Vec<f64> = groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(g, 99.0))
        .collect();
    median(&tails)
}

/// Arithmetic mean; 0 for no samples, so an unexercised layer reads 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_hand_computation() {
        // Twenty samples, shuffled: 5, 10, ..., 100.
        let v = [
            35.0, 5.0, 100.0, 60.0, 20.0, 85.0, 45.0, 10.0, 75.0, 95.0, 30.0, 55.0, 15.0, 90.0,
            40.0, 65.0, 25.0, 80.0, 50.0, 70.0,
        ];
        // rank = ceil(p / 100 * 20)
        assert_eq!(percentile(&v, 50.0), 50.0); // rank 10
        assert_eq!(percentile(&v, 90.0), 90.0); // rank 18
        assert_eq!(percentile(&v, 99.0), 100.0); // rank 20
        assert_eq!(percentile(&v, 1.0), 5.0); // rank 1
        assert_eq!(percentile(&v, 52.0), 55.0); // rank 11 (10.4 rounds up)
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // Group tails 100 and 85 (and none): their median is 92.5.
        let groups: [&[f64]; 3] = [&v[..4], &[], &v[4..8]];
        assert_eq!(median_p99(groups), 92.5);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
