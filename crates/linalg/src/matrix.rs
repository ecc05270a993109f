use serde::{Deserialize, Serialize};

use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// The storage is a flat `Vec<f64>` of length `rows * cols`, which keeps
/// model parameters contiguous so they can be flattened into the global
/// parameter vector that federated aggregation operates on.
///
/// # Examples
///
/// ```
/// use fml_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.matvec(&[1.0, 0.0]), vec![1.0, 3.0]);
/// # Ok::<(), fml_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("len {}", rows * cols),
                actual: format!("len {}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] when rows have different lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(LinalgError::RaggedRows {
                    first: ncols,
                    row: i,
                    len: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major backing buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix–vector product `A·x`.
    ///
    /// Thin allocating wrapper over [`Matrix::matvec_into`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `y ← A·x` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        assert_eq!(y.len(), self.rows, "matvec_into: output length mismatch");
        crate::vector::matvec_into(&self.data, x, y);
    }

    /// Transposed matrix–vector product `y ← Aᵀ·x` into a caller-provided
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != rows` or `y.len() != cols`.
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t: length mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t_into: output length mismatch");
        crate::vector::matvec_t_into(&self.data, x, y);
    }

    /// Returns the transpose `Aᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// In-place scalar multiply `A ← a·A`.
    pub fn scale_in_place(&mut self, a: f64) {
        crate::vector::scale_in_place(a, &mut self.data);
    }

    /// In-place addition `A ← A + B`.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn add_in_place(&mut self, b: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "add_in_place: shape mismatch"
        );
        crate::vector::axpy(1.0, &b.data, &mut self.data);
    }

    /// Spectral-norm upper bound via `‖A‖₂ ≤ √(‖A‖₁·‖A‖∞)`.
    ///
    /// Cheap bound used by the theory module to sanity-check smoothness
    /// constants without an eigensolver.
    fn spectral_norm_bound(&self) -> f64 {
        let inf = self
            .iter_rows()
            .map(|r| r.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        let mut col_sums = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (cs, v) in col_sums.iter_mut().zip(row) {
                *cs += v.abs();
            }
        }
        let one = col_sums.iter().fold(0.0f64, |m, &v| m.max(v));
        (one * inf).sqrt()
    }

    /// Largest eigenvalue of a symmetric matrix by power iteration.
    ///
    /// Used by the theory module to estimate smoothness constants `H` of
    /// empirical Hessians. `iters` iterations starting from a deterministic
    /// seed vector; returns 0 for an all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn sym_max_eigenvalue(&self, iters: usize) -> f64 {
        assert_eq!(self.rows, self.cols, "sym_max_eigenvalue: must be square");
        if self.rows == 0 {
            return 0.0;
        }
        // Deterministic pseudo-random start to avoid orthogonal-start stalls.
        let mut v: Vec<f64> = (0..self.rows)
            .map(|i| 1.0 + ((i * 2654435761) % 97) as f64 / 97.0)
            .collect();
        let n0 = crate::vector::norm2(&v);
        crate::vector::scale_in_place(1.0 / n0, &mut v);
        let mut lambda = 0.0;
        for _ in 0..iters {
            let w = self.matvec(&v);
            let n = crate::vector::norm2(&w);
            if n == 0.0 {
                return 0.0;
            }
            lambda = crate::vector::dot(&v, &w);
            v = crate::vector::scale(1.0 / n, &w);
        }
        lambda
    }

    /// Smallest eigenvalue of a symmetric matrix via shifted power iteration
    /// (`μ_min = s − λ_max(s·I − A)` with `s` an upper bound on `λ_max`).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn sym_min_eigenvalue(&self, iters: usize) -> f64 {
        assert_eq!(self.rows, self.cols, "sym_min_eigenvalue: must be square");
        if self.rows == 0 {
            return 0.0;
        }
        let s = self.spectral_norm_bound() + 1.0;
        let mut shifted = Matrix::from_diag(&vec![s; self.rows]);
        let mut neg = self.clone();
        neg.scale_in_place(-1.0);
        shifted.add_in_place(&neg);
        s - shifted.sym_max_eigenvalue(iters)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows() {
            writeln!(f, "  {row:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::RaggedRows { row: 1, len: 1, .. }
        ));
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let id = Matrix::from_diag(&[1.0; 3]);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(id.matvec(&x), x);
    }

    #[test]
    fn matvec_t_agrees_with_explicit_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let x = vec![1.0, 0.5, -1.0];
        let mut got = vec![0.0; 2];
        m.matvec_t_into(&x, &mut got);
        let expect = m.transpose().matvec(&x);
        assert!(approx_eq(&got, &expect, 1e-12));
    }

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let m = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        assert!((m.sym_max_eigenvalue(200) - 5.0).abs() < 1e-6);
        assert!((m.sym_min_eigenvalue(200) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_bound_dominates_power_iteration() {
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(m.spectral_norm_bound() >= m.sym_max_eigenvalue(100) - 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_rows(&[&[1.5, -2.5]]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    proptest! {
        #[test]
        fn prop_transpose_is_involution(
            data in proptest::collection::vec(-1e3f64..1e3, 12),
        ) {
            let m = Matrix::from_vec(3, 4, data).unwrap();
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_matvec_linearity(
            data in proptest::collection::vec(-1e2f64..1e2, 6),
            a in -5.0f64..5.0,
        ) {
            let m = Matrix::from_vec(2, 3, data).unwrap();
            let x = vec![1.0, -2.0, 0.5];
            let lhs = m.matvec(&crate::vector::scale(a, &x));
            let rhs = crate::vector::scale(a, &m.matvec(&x));
            prop_assert!(approx_eq(&lhs, &rhs, 1e-6));
        }
    }
}
