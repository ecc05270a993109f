//! Kernels on `f64` slices.
//!
//! These are the hot loops of the whole workspace: every gradient step,
//! meta-update, and platform aggregation bottoms out here. All functions
//! panic on length mismatches (callers control shapes statically), which is
//! documented per function.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// # Examples
///
/// ```
/// assert_eq!(fml_linalg::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// In-place `y ← y + a·x` (the BLAS `axpy`).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Returns `x + y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Returns `x - y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Returns `a·x` as a new vector.
#[inline]
pub fn scale(a: f64, x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| a * v).collect()
}

/// Matrix–vector product `y ← A·x` on a flat row-major buffer, without
/// allocating. The shape is inferred from the vectors: `A` is
/// `y.len() × x.len()`.
///
/// Each `y[i]` is bitwise the [`dot`] of row `i` with `x`: rows are
/// summed four at a time, but each into its own accumulator, in index
/// order, starting from `-0.0` — which is what `Iterator::sum` starts
/// from, so an empty `x` gives `-0.0` too. Four independent chains let
/// the adds overlap where one chain would wait on each.
///
/// # Panics
///
/// Panics if `a.len() != y.len() * x.len()`.
#[inline]
pub fn matvec_into(a: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), y.len() * x.len(), "matvec_into: shape mismatch");
    let n = x.len();
    if n == 0 {
        y.fill(dot(&[], &[]));
        return;
    }
    let mut quads = y.chunks_exact_mut(4);
    let mut blocks = a.chunks_exact(4 * n);
    for (yq, block) in (&mut quads).zip(&mut blocks) {
        let (r0, rest) = block.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let mut s = [-0.0f64; 4];
        for ((((&xj, a0), a1), a2), a3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            s[0] += a0 * xj;
            s[1] += a1 * xj;
            s[2] += a2 * xj;
            s[3] += a3 * xj;
        }
        yq.copy_from_slice(&s);
    }
    for (yi, row) in quads
        .into_remainder()
        .iter_mut()
        .zip(blocks.remainder().chunks_exact(n))
    {
        *yi = dot(row, x);
    }
}

/// In-place `x ← a·x`.
#[inline]
pub fn scale_in_place(a: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean distance `‖x − y‖₂`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Weighted sum `Σᵢ wᵢ·vᵢ` of equally sized vectors — the platform's global
/// aggregation primitive (eq. 5 of the paper).
///
/// Returns `None` when `items` is empty.
///
/// # Panics
///
/// Panics if the vectors have different lengths or `weights.len()` differs
/// from `items.len()`.
///
/// # Examples
///
/// ```
/// let a = vec![1.0, 0.0];
/// let b = vec![0.0, 1.0];
/// let avg = fml_linalg::vector::weighted_sum(&[a.as_slice(), b.as_slice()], &[0.25, 0.75]);
/// assert_eq!(avg, Some(vec![0.25, 0.75]));
/// ```
pub fn weighted_sum(items: &[&[f64]], weights: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(items.len(), weights.len(), "weighted_sum: weight count");
    let first = items.first()?;
    let mut acc = vec![0.0; first.len()];
    for (item, &w) in items.iter().zip(weights) {
        assert_eq!(item.len(), first.len(), "weighted_sum: length mismatch");
        axpy(w, item, &mut acc);
    }
    Some(acc)
}

/// Clamps every component of `x` into `[lo, hi]` in place.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is NaN.
#[inline]
pub fn clamp_in_place(x: &mut [f64], lo: f64, hi: f64) {
    assert!(lo <= hi, "clamp_in_place: lo must not exceed hi");
    for v in x.iter_mut() {
        *v = v.clamp(lo, hi);
    }
}

/// Componentwise `sign(x)` with `sign(0) = 0` — used by the FGSM attack.
#[inline]
pub fn sign(x: &[f64]) -> Vec<f64> {
    x.iter()
        .map(|&v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Returns the index of the maximum element, breaking ties toward the lowest
/// index. Returns `None` for an empty slice or if every element is NaN.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// True when every pairwise component difference is within `tol`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn approx_eq(x: &[f64], y: &[f64], tol: f64) -> bool {
    assert_eq!(x.len(), y.len(), "approx_eq: length mismatch");
    x.iter().zip(y).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, -1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0.5, -0.5, 1.5];
        let s = add(&x, &y);
        let back = sub(&s, &y);
        assert!(approx_eq(&back, &x, 1e-12));
        assert_eq!(scale(0.0, &x), vec![0.0; 3]);
    }

    #[test]
    fn norms_and_distance() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn matvec_into_matches_rowwise_dots() {
        // A = [[1,2],[3,4],[5,6]] (3×2), x = [1,−1].
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0, -1.0];
        let mut y = [0.0; 3];
        matvec_into(&a, &x, &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
        // No columns: every row is the dot of two empty slices, `-0.0`.
        matvec_into(&[], &[], &mut y);
        assert_eq!(y.map(f64::to_bits), [dot(&[], &[]).to_bits(); 3]);
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    #[should_panic(expected = "matvec_into: shape mismatch")]
    fn matvec_into_rejects_bad_shape() {
        let mut y = [0.0; 2];
        matvec_into(&[1.0, 2.0, 3.0], &[1.0, 2.0], &mut y);
    }

    #[test]
    fn weighted_sum_empty_is_none() {
        assert_eq!(weighted_sum(&[], &[]), None);
    }

    #[test]
    fn weighted_sum_is_convex_combination() {
        let a = vec![2.0, 0.0];
        let b = vec![0.0, 2.0];
        let got = weighted_sum(&[&a, &b], &[0.5, 0.5]).unwrap();
        assert_eq!(got, vec![1.0, 1.0]);
    }

    #[test]
    fn sign_of_zero_is_zero() {
        assert_eq!(sign(&[-2.0, 0.0, 5.0]), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn clamp_respects_bounds() {
        let mut x = vec![-2.0, 0.5, 9.0];
        clamp_in_place(&mut x, 0.0, 1.0);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn argmax_breaks_ties_low_and_skips_nan() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    proptest! {
        #[test]
        fn prop_dot_commutes(x in proptest::collection::vec(-1e3f64..1e3, 0..32)) {
            let y: Vec<f64> = x.iter().map(|v| v * 0.5 - 1.0).collect();
            prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-6);
        }

        #[test]
        fn prop_cauchy_schwarz(
            x in proptest::collection::vec(-1e2f64..1e2, 1..16),
            seed in 0u64..1000,
        ) {
            let y: Vec<f64> = x.iter().enumerate()
                .map(|(i, v)| v * ((seed + i as u64) % 7) as f64 - 3.0)
                .collect();
            prop_assert!(dot(&x, &y).abs() <= norm2(&x) * norm2(&y) + 1e-6);
        }

        #[test]
        fn prop_triangle_inequality(
            x in proptest::collection::vec(-1e2f64..1e2, 1..16),
        ) {
            let y: Vec<f64> = x.iter().map(|v| -v + 1.0).collect();
            prop_assert!(norm2(&add(&x, &y)) <= norm2(&x) + norm2(&y) + 1e-9);
        }

        #[test]
        fn prop_weighted_sum_of_identical_items_is_identity(
            x in proptest::collection::vec(-1e2f64..1e2, 1..8),
        ) {
            let got = weighted_sum(&[&x, &x, &x], &[0.2, 0.3, 0.5]).unwrap();
            prop_assert!(approx_eq(&got, &x, 1e-9));
        }
    }

    /// Maps a drawn `(code, v)` to `v` or, for `code < specials`, to one
    /// of the values where summation order and start show: signed
    /// zeros, infinities, NaN.
    fn pick((code, v): (u8, f64), specials: u8) -> f64 {
        if code >= specials {
            return v;
        }
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][code as usize % 5]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `matvec_into` is the per-row `dot` bit for bit at every
        /// `rows % 4` and every width, empty included. NaN payloads are
        /// not specified by the language, so two NaNs count as equal.
        #[test]
        fn prop_matvec_into_is_rowwise_dot(
            rows in 0usize..10,
            cols in 0usize..41,
            density in 0usize..4,
            a in proptest::collection::vec((0u8..64, -1e3f64..1e3), 9 * 40),
            x in proptest::collection::vec((0u8..64, -1e3f64..1e3), 40),
        ) {
            let specials = [2u8, 32, 64, 0][density];
            let mut a: Vec<f64> = a[..rows * cols].iter().map(|&d| pick(d, specials)).collect();
            let mut x: Vec<f64> = x[..cols].iter().map(|&d| pick(d, specials)).collect();
            if density == 3 {
                // `|a|·(−0)` is `−0`: every row sums only `−0`s, so the
                // start value is the result.
                a.iter_mut().for_each(|v| *v = v.abs());
                x.fill(-0.0);
            }
            let mut y = vec![f64::NAN; rows];
            matvec_into(&a, &x, &mut y);
            for (i, &got) in y.iter().enumerate() {
                let want = dot(&a[i * cols..(i + 1) * cols], &x);
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "row {i} of {rows}x{cols}: {got:?} vs {want:?}"
                );
            }
        }
    }
}
