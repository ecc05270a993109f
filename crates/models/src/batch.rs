use fml_linalg::Matrix;

use crate::{ModelError, Result};

/// One supervised target: either a class index (classification) or a real
/// value (regression).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// Class index in `0..classes`.
    Class(usize),
    /// Real-valued regression target.
    Value(f64),
}

impl Target {
    /// The class index, if this is a classification target.
    fn class(&self) -> Option<usize> {
        match self {
            Target::Class(c) => Some(*c),
            Target::Value(_) => None,
        }
    }

    /// The real value, if this is a regression target.
    pub fn value(&self) -> Option<f64> {
        match self {
            Target::Class(_) => None,
            Target::Value(v) => Some(*v),
        }
    }

    /// The class index.
    ///
    /// # Panics
    ///
    /// Panics when the target is a regression value; classification models
    /// call this after batch construction has validated target kinds.
    pub fn expect_class(&self) -> usize {
        self.class()
            .expect("classification model received a regression target")
    }

    /// The regression value.
    ///
    /// # Panics
    ///
    /// Panics when the target is a class label.
    pub fn expect_value(&self) -> f64 {
        self.value()
            .expect("regression model received a classification target")
    }
}

/// A batch of supervised samples: an `n × d` feature matrix plus `n`
/// targets.
///
/// Batches are the unit every [`crate::Model`] oracle consumes, and the
/// unit datasets are split into (`D_i^train`, `D_i^test`, `D_i^adv` in the
/// paper's notation).
///
/// # Examples
///
/// ```
/// use fml_models::{Batch, Target};
/// use fml_linalg::Matrix;
///
/// let xs = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
/// let b = Batch::classification(xs, vec![0, 1])?;
/// assert_eq!(b.len(), 2);
/// assert_eq!(b.target(1), Target::Class(1));
/// # Ok::<(), fml_models::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    xs: Matrix,
    ys: Vec<Target>,
}

impl Batch {
    /// Creates a batch from a feature matrix and explicit targets.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BatchShape`] when row and target counts differ.
    pub fn new(xs: Matrix, ys: Vec<Target>) -> Result<Self> {
        if xs.rows() != ys.len() {
            return Err(ModelError::BatchShape {
                rows: xs.rows(),
                targets: ys.len(),
            });
        }
        Ok(Batch { xs, ys })
    }

    /// Creates a classification batch from class indices.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BatchShape`] when counts differ.
    pub fn classification(xs: Matrix, labels: Vec<usize>) -> Result<Self> {
        let ys = labels.into_iter().map(Target::Class).collect();
        Batch::new(xs, ys)
    }

    /// Creates a regression batch from real-valued targets.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BatchShape`] when counts differ.
    pub fn regression(xs: Matrix, values: Vec<f64>) -> Result<Self> {
        let ys = values.into_iter().map(Target::Value).collect();
        Batch::new(xs, ys)
    }

    /// Creates an empty batch of the given feature dimension.
    pub fn empty(dim: usize) -> Self {
        Batch {
            xs: Matrix::zeros(0, dim),
            ys: Vec::new(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// True when the batch has no samples.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.xs.cols()
    }

    /// Borrow of the feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.xs
    }

    /// Feature row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn feature(&self, i: usize) -> &[f64] {
        self.xs.row(i)
    }

    /// Target of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn target(&self, i: usize) -> Target {
        self.ys[i]
    }

    /// Borrow of all targets.
    pub fn targets(&self) -> &[Target] {
        &self.ys
    }

    /// Iterator over `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], Target)> {
        self.xs.iter_rows().zip(self.ys.iter().copied())
    }

    /// Copies the selected sample indices into a new batch.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Batch {
        let mut xs = Matrix::zeros(indices.len(), self.dim());
        let mut ys = Vec::with_capacity(indices.len());
        for (r, &i) in indices.iter().enumerate() {
            xs.row_mut(r).copy_from_slice(self.feature(i));
            ys.push(self.target(i));
        }
        Batch { xs, ys }
    }

    /// Splits into `(first_k, rest)` by sample order.
    ///
    /// Used to carve the paper's `D_i^train` (size `K`) off `D_i`.
    ///
    /// # Panics
    ///
    /// Panics when `k > len()`.
    pub fn split_at(&self, k: usize) -> (Batch, Batch) {
        assert!(k <= self.len(), "split_at: k out of range");
        let head: Vec<usize> = (0..k).collect();
        let tail: Vec<usize> = (k..self.len()).collect();
        (self.select(&head), self.select(&tail))
    }

    /// Concatenates two batches (e.g. `D_i^test ∪ D_i^adv`).
    ///
    /// # Panics
    ///
    /// Panics when feature dimensions differ.
    pub fn concat(&self, other: &Batch) -> Batch {
        let mut out = Batch::empty(self.dim());
        self.concat_into(other, &mut out);
        out
    }

    /// [`concat`](Batch::concat) into a caller-owned batch: `out` is
    /// overwritten, reusing its storage, so a steady-state caller
    /// concatenates without touching the allocator.
    ///
    /// # Panics
    ///
    /// Panics when feature dimensions differ.
    pub fn concat_into(&self, other: &Batch, out: &mut Batch) {
        assert_eq!(self.dim(), other.dim(), "concat: dimension mismatch");
        let mut data = std::mem::replace(&mut out.xs, Matrix::zeros(0, 0)).into_vec();
        data.clear();
        data.extend_from_slice(self.xs.as_slice());
        data.extend_from_slice(other.xs.as_slice());
        out.xs = Matrix::from_vec(self.len() + other.len(), self.dim(), data)
            .expect("row-major concat keeps rows × cols");
        out.ys.clear();
        out.ys.extend_from_slice(&self.ys);
        out.ys.extend_from_slice(&other.ys);
    }

    /// Appends one sample in place.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` differs from the batch dimension (for a
    /// non-empty batch).
    pub fn push(&mut self, x: &[f64], y: Target) {
        if !self.is_empty() || self.dim() > 0 {
            assert_eq!(x.len(), self.dim(), "push: dimension mismatch");
        }
        let mut xs = Matrix::zeros(self.len() + 1, x.len());
        for i in 0..self.len() {
            xs.row_mut(i).copy_from_slice(self.feature(i));
        }
        xs.row_mut(self.len()).copy_from_slice(x);
        self.xs = xs;
        self.ys.push(y);
    }

    /// Replaces the feature row of sample `i` (used by adversarial
    /// perturbation code).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds or `x.len()` differs from `dim()`.
    pub fn set_feature(&mut self, i: usize, x: &[f64]) {
        self.xs.row_mut(i).copy_from_slice(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Batch {
        let xs = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        Batch::classification(xs, vec![0, 1, 0]).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let xs = Matrix::zeros(2, 3);
        let err = Batch::classification(xs, vec![0]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::BatchShape {
                rows: 2,
                targets: 1
            }
        ));
    }

    #[test]
    fn accessors() {
        let b = sample_batch();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.dim(), 2);
        assert_eq!(b.feature(1), &[3.0, 4.0]);
        assert_eq!(b.target(2), Target::Class(0));
    }

    #[test]
    fn select_and_split() {
        let b = sample_batch();
        let s = b.select(&[2, 0]);
        assert_eq!(s.feature(0), &[5.0, 6.0]);
        assert_eq!(s.target(1), Target::Class(0));
        let (head, tail) = b.split_at(1);
        assert_eq!(head.len(), 1);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.feature(0), &[3.0, 4.0]);
    }

    #[test]
    fn concat_preserves_order() {
        let b = sample_batch();
        let (h, t) = b.split_at(2);
        let joined = h.concat(&t);
        assert_eq!(joined, b);
    }

    #[test]
    fn push_grows_batch() {
        let mut b = Batch::empty(2);
        assert!(b.is_empty());
        b.push(&[7.0, 8.0], Target::Class(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b.feature(0), &[7.0, 8.0]);
    }

    #[test]
    fn set_feature_mutates() {
        let mut b = sample_batch();
        b.set_feature(0, &[9.0, 9.0]);
        assert_eq!(b.feature(0), &[9.0, 9.0]);
    }

    #[test]
    fn target_kind_accessors() {
        assert_eq!(Target::Class(3).class(), Some(3));
        assert_eq!(Target::Class(3).value(), None);
        assert_eq!(Target::Value(1.5).value(), Some(1.5));
        assert_eq!(Target::Value(1.5).class(), None);
        assert_eq!(Target::Class(2).expect_class(), 2);
        assert_eq!(Target::Value(2.5).expect_value(), 2.5);
    }

    #[test]
    #[should_panic(expected = "regression target")]
    fn expect_class_panics_on_value() {
        Target::Value(0.0).expect_class();
    }

    #[test]
    fn iter_yields_pairs() {
        let b = sample_batch();
        let collected: Vec<_> = b.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0].0, &[1.0, 2.0]);
        assert_eq!(collected[0].1, Target::Class(0));
    }
}
