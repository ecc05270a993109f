//! Dense linear-algebra kernels for the `fedml-rs` workspace.
//!
//! This crate provides the small set of numerical primitives that the
//! federated meta-learning stack is built on: contiguous row-major
//! matrices ([`Matrix`]), vector kernels ([`vector`]), numerically stable
//! softmax / log-sum-exp ([`softmax`]), and summary statistics ([`stats`]).
//!
//! Everything operates on `f64` slices so that model parameters can live in
//! flat `Vec<f64>` buffers and be aggregated, serialized, and shipped between
//! simulated edge nodes without any reshaping cost.
//!
//! # Examples
//!
//! ```
//! use fml_linalg::{Matrix, vector};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
//! let y = a.matvec(&[1.0, 1.0]);
//! assert_eq!(y, vec![3.0, 7.0]);
//! assert_eq!(vector::dot(&y, &y), 58.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
pub mod softmax;
pub mod stats;
pub mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
