//! Order statistics over measured samples.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The largest of `xs`.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The 1-based nearest rank of percentile `q` among `n > 0` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the tail
/// percentile `q`.
pub fn has_tail(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`.
///
/// A tail estimate is only reported when at least [`MIN_BEYOND`]
/// samples lie beyond it; with fewer, the estimate is one outlier away
/// from any value, so this returns an error that fails the run.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile must be inside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{}: no samples", q * 100.0));
    }
    let rank = rank(n, q);
    let beyond = n - rank;
    if q > 0.5 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert!(percentile(&hundred, 0.99).is_err(), "1 sample beyond p99");
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Ok(990.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(
            percentile(&ninety_nine, 0.9).is_err(),
            "9 samples beyond p90"
        );
        assert_eq!(percentile(&[5.0], 0.5), Ok(5.0), "medians need no tail");
        assert!(!has_tail(0, 0.9) && !has_tail(99, 0.9) && has_tail(100, 0.9));
    }
}
