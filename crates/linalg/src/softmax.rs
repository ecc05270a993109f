//! Numerically stable softmax, log-sum-exp, and cross-entropy kernels.
//!
//! These sit in the innermost loop of every classification loss in the
//! workspace (synthetic softmax tasks, the MNIST-like experiment, and the
//! Sent140-like MLP head), so they are written to be allocation-light and
//! stable for large logits.

/// Numerically stable `log Σ exp(xᵢ)`.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials).
fn log_sum_exp(x: &[f64]) -> f64 {
    let m = x.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = x.iter().map(|&v| (v - m).exp()).sum();
    m + s.ln()
}

/// Stable softmax; writes probabilities into a fresh vector.
///
/// Each output is in `(0, 1]` and the outputs sum to 1 (up to rounding) for
/// non-empty input.
pub fn softmax(x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Stable softmax in place.
pub fn softmax_in_place(x: &mut [f64]) {
    max_and_sum_in_place(x);
}

/// [`softmax_in_place`], returning the input's `log Σ exp(xᵢ)` — the
/// bits [`cross_entropy_logits`] builds its loss from — out of the max
/// and the sum the softmax has already taken.
///
/// `log_sum_exp` sums the exponentials with `Iterator::sum`, which
/// starts at `−0.0`, and this from `0.0`: `exp` never returns `−0.0`,
/// so both sums are the same bits. Returns `−inf` when the max is
/// `−inf` (an empty, all-`−inf` or all-NaN input), as `log_sum_exp`
/// does.
pub fn softmax_in_place_lse(x: &mut [f64]) -> f64 {
    let (m, sum) = max_and_sum_in_place(x);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + sum.ln()
}

/// The softmax's work: writes `exp(xᵢ − m) / s` over `x` and returns
/// the max `m` and the sum `s` of the exponentials.
#[inline]
fn max_and_sum_in_place(x: &mut [f64]) -> (f64, f64) {
    let m = x.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - m).exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
    (m, sum)
}

/// Cross-entropy of logits against a one-hot target class:
/// `−log softmax(logits)[target]`.
///
/// # Panics
///
/// Panics when `target >= logits.len()`.
pub fn cross_entropy_logits(logits: &[f64], target: usize) -> f64 {
    assert!(target < logits.len(), "cross_entropy_logits: target class");
    log_sum_exp(logits) - logits[target]
}

/// Gradient of [`cross_entropy_logits`] with respect to the logits:
/// `softmax(logits) − e_target`.
///
/// # Panics
///
/// Panics when `target >= logits.len()`.
pub fn cross_entropy_logits_grad(logits: &[f64], target: usize) -> Vec<f64> {
    assert!(target < logits.len(), "cross_entropy_logits_grad: target");
    let mut p = softmax(logits);
    p[target] -= 1.0;
    p
}

/// Stable binary-logistic loss `log(1 + exp(−y·z))` with `y ∈ {−1, +1}`.
pub fn logistic_loss(z: f64, y: f64) -> f64 {
    let m = -y * z;
    // log(1 + e^m) computed stably for large |m|.
    if m > 0.0 {
        m + (1.0 + (-m).exp()).ln()
    } else {
        (1.0 + m.exp()).ln()
    }
}

/// Stable logistic sigmoid `1 / (1 + e^{−z})`.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_handles_extremes() {
        let v = log_sum_exp(&[-1e9, 0.0]);
        assert!((v - 0.0).abs() < 1e-12);
        let big = log_sum_exp(&[1e9, 1e9 - 700.0]);
        assert!(big.is_finite());
        let lse = log_sum_exp(&[1000.0, 1000.0]);
        assert!((lse - (1000.0 + (2.0f64).ln())).abs() < 1e-9);
    }

    #[test]
    fn softmax_sums_to_one_under_overflow_pressure() {
        let p = softmax(&[1e8, 1e8 + 1.0, -1e8]);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0]);
        assert!(p[2] < 1e-12);
    }

    #[test]
    fn softmax_empty_is_noop() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn cross_entropy_matches_definition() {
        let logits = [1.0, 2.0, 3.0];
        let ce = cross_entropy_logits(&logits, 2);
        assert!((ce - (-(softmax(&logits)[2]).ln())).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero() {
        let logits = [0.5, -1.0, 2.0, 0.0];
        let g = cross_entropy_logits_grad(&logits, 1);
        let s: f64 = g.iter().sum();
        assert!(s.abs() < 1e-12);
        assert!(g[1] < 0.0, "target coordinate moves down");
    }

    #[test]
    fn logistic_loss_stability() {
        assert!(logistic_loss(1000.0, 1.0) < 1e-12);
        assert!((logistic_loss(-1000.0, 1.0) - 1000.0).abs() < 1e-9);
        assert!((logistic_loss(0.0, 1.0) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    /// Each value's bits, every NaN as one: NaN payloads and signs are
    /// not specified by the language, so two NaNs count as equal.
    fn bits(v: &[f64]) -> Vec<u64> {
        let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x };
        v.iter().map(|x| canonical(x).to_bits()).collect()
    }

    #[test]
    fn softmax_lse_is_log_sum_exp_beside_the_softmax() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let cases: [&[f64]; 10] = [
            &[],
            &[0.0],
            &[-0.0, 0.0],
            &[1.0, 2.0, 3.0],
            &[1e8, 1e8 + 1.0, -1e8],
            &[-inf, -inf],
            &[-inf, 0.5],
            &[inf, 1.0],
            &[nan, 1.0, -2.0],
            &[nan, -inf],
        ];
        for x in cases {
            let mut lse_out = x.to_vec();
            let lse = softmax_in_place_lse(&mut lse_out);
            let mut out = x.to_vec();
            softmax_in_place(&mut out);
            assert_eq!(bits(&[lse]), bits(&[log_sum_exp(x)]), "{x:?}");
            assert_eq!(bits(&lse_out), bits(&out), "{x:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_softmax_lse_matches_log_sum_exp(
            x in proptest::collection::vec(-50.0f64..50.0, 0..16),
        ) {
            let mut out = x.clone();
            let lse = softmax_in_place_lse(&mut out);
            prop_assert_eq!(lse.to_bits(), log_sum_exp(&x).to_bits());
            prop_assert_eq!(out, softmax(&x));
        }

        #[test]
        fn prop_softmax_is_probability_vector(
            x in proptest::collection::vec(-50.0f64..50.0, 1..16),
        ) {
            let p = softmax(&x);
            let s: f64 = p.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
        }

        #[test]
        fn prop_softmax_shift_invariance(
            x in proptest::collection::vec(-10.0f64..10.0, 1..8),
            c in -100.0f64..100.0,
        ) {
            let shifted: Vec<f64> = x.iter().map(|v| v + c).collect();
            let a = softmax(&x);
            let b = softmax(&shifted);
            for (u, v) in a.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_log_sum_exp_bounds(
            x in proptest::collection::vec(-50.0f64..50.0, 1..16),
        ) {
            let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = log_sum_exp(&x);
            prop_assert!(lse >= m - 1e-12);
            prop_assert!(lse <= m + (x.len() as f64).ln() + 1e-12);
        }

        #[test]
        fn prop_cross_entropy_nonnegative(
            x in proptest::collection::vec(-20.0f64..20.0, 2..10),
            t_raw in 0usize..10,
        ) {
            let t = t_raw % x.len();
            prop_assert!(cross_entropy_logits(&x, t) >= -1e-12);
        }
    }
}
