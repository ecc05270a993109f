//! Summary statistics used across experiment harnesses and dataset
//! generators (Table I statistics, convergence-curve post-processing,
//! similarity estimation).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Unbiased sample variance (Bessel-corrected); 0 when fewer than 2 samples.
fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Sample standard deviation: the square root of the Bessel-corrected
/// sample variance.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Minimum; `None` for an empty slice.
pub fn min(x: &[f64]) -> Option<f64> {
    x.iter().cloned().reduce(f64::min)
}

/// Maximum; `None` for an empty slice.
pub fn max(x: &[f64]) -> Option<f64> {
    x.iter().cloned().reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[2.0, 4.0, 6.0]) - 4.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 4.0, 6.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[2.0, -1.0]), Some(-1.0));
        assert_eq!(max(&[2.0, -1.0]), Some(2.0));
        assert_eq!(min(&[]), None);
    }
}
