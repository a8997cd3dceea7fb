//! Order statistics over small samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an already **sorted** sample: the smallest
/// value with at least `p` percent of the sample at or below it. With
/// fewer than `100 / (100 - p)` values this is the maximum — which is why
/// the sample count is always reported beside a percentile.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Smallest and largest value of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "min/max of an empty sample");
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=200).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 100);
        assert_eq!(percentile_sorted(&v, 99.0), 198);
        assert_eq!(percentile_sorted(&v, 100.0), 200);
        // Too few samples for the percentile: it degrades to the maximum.
        assert_eq!(percentile_sorted(&[7, 9, 11], 99.0), 11);
        assert_eq!(percentile_sorted(&[7], 50.0), 7);
    }

    #[test]
    fn min_max_spans_the_sample() {
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }
}
