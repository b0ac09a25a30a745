//! Order statistics used by every estimator in the benchmark.

/// A timing percentile is reported only when at least this many
/// samples lie beyond it; otherwise the highest percentile that has
/// them is reported in its place.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (sorts in place). 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The quantile of repeated timings that stands for "when the machine
/// was quiet": low enough to sit under the bursts of a busy host, not
/// so low that one lucky repeat decides it.
pub const LOW_Q: f64 = 0.02;

/// First quartile, median and third quartile of `values` (sorts in
/// place), by the same rule as Python's `statistics.quantiles(values,
/// n=4)`, which is what the acceptance check of the benchmark uses.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => [0.0; 3],
        1 => [values[0]; 3],
        _ => [1, 2, 3].map(|i| {
            // Exclusive method: position i*(n+1)/4, counted from 1.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
            values[j - 1] + (values[j] - values[j - 1]) * delta.clamp(0.0, 1.0)
        }),
    }
}

/// Index into `n` sorted samples of the `q` quantile, lowered until
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let wanted = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    wanted.min(n.saturating_sub(MIN_BEYOND + 1))
}

/// Median and `q` tail percentile (subject to [`tail_index`]) of
/// `values`; sorts in place.
pub fn percentiles(values: &mut [f64], q: f64) -> (f64, f64) {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    (values[n / 2], values[tail_index(n, q)])
}

/// Spread of `values` as the benchmark's acceptance check takes it:
/// the distance between the quartiles as a share of the median.
pub fn relative_iqr(values: &mut [f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [1.5, 3.0, 4.5]);
        assert!((relative_iqr(&mut v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p99_keeps_ten_samples_beyond_it() {
        // 2 000 samples: the 99th percentile has 20 beyond it.
        assert_eq!(tail_index(2000, 0.99), 1979);
        // 1 000 samples: index 989 leaves exactly ten beyond.
        assert_eq!(tail_index(1000, 0.99), 989);
        // 500 samples cannot support p99; the index drops to p97.8.
        assert_eq!(tail_index(500, 0.99), 489);
        // Fewer than eleven samples: the minimum is all there is.
        assert_eq!(tail_index(8, 0.99), 0);
    }

    #[test]
    fn percentiles_select_from_the_sorted_values() {
        let mut lat: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        assert_eq!(percentiles(&mut lat, 0.99), (1000.0, 1979.0));
    }
}
