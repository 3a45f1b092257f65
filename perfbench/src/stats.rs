//! Order statistics for timings.
//!
//! The engine's `Histogram` reports quantiles as power-of-two bucket bounds, which
//! would print the same figure on every run; a benchmark needs the exact order
//! statistic.

/// The `q` quantile of `values`, interpolating linearly between the two closest ranks
/// (the "inclusive" method of Python's `statistics.quantiles`).
///
/// # Panics
///
/// Panics when `values` is empty or `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The median of `values`.
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of `f` over `items`.
///
/// # Panics
///
/// Panics when `items` is empty.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The sample count and quartiles of `values`, as a JSON object for the run record.
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn summary(values: &[f64]) -> String {
    format!(
        "{{\"n\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}}}",
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75)
    )
}

/// Whether a sample of `samples` values supports reporting its `q` quantile: at least
/// ten samples must lie beyond it.
pub fn supports(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 10.0);
        assert_eq!(median(&values), 5.5);
        assert!((quantile(&values, 0.9) - 9.1).abs() < 1e-12);
        // Python: statistics.quantiles(range(1, 11), n=4, method="inclusive")
        assert!((quantile(&values, 0.25) - 3.25).abs() < 1e-12);
        assert!((quantile(&values, 0.75) - 7.75).abs() < 1e-12);
    }

    #[test]
    fn quantiles_ignore_input_order_and_handle_one_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[7.5], 0.9), 7.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(1000, 0.99));
        assert!(!supports(5, 0.5));
    }
}
