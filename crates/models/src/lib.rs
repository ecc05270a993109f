//! Differentiable models for the `fedml-rs` workspace.
//!
//! The federated meta-learning algorithms in `fml-core` never see model
//! internals: they drive everything through the [`Model`] trait, which
//! exposes exactly the oracles MAML-style meta-learning needs:
//!
//! * `loss` / `grad` — first-order oracles on a [`Batch`];
//! * `hvp` — a **Hessian–vector product**, the only second-order quantity
//!   the MAML meta-gradient `(I − α∇²L_train(θ)) ∇L_test(φ)` requires.
//!   Linear/softmax models implement it analytically; the [`Mlp`] uses the
//!   Pearlmutter R-operator; any model can fall back to the central
//!   finite-difference default;
//! * `input_grad` — `∇ₓ l(θ, (x, y))` for a single sample, which powers the
//!   Wasserstein-DRO adversarial ascent of Robust FedML and the FGSM attack
//!   used in the evaluation.
//!
//! Implemented models:
//!
//! * [`Quadratic`] — a strongly convex quadratic task family that satisfies
//!   the paper's Assumptions 1–4 *exactly* (constant Hessian ⇒ ρ = 0); used
//!   to validate the convergence theorems.
//! * [`LinearRegression`] — squared loss with L2, analytic everything.
//! * [`LogisticRegression`] — binary cross-entropy with L2.
//! * [`SoftmaxRegression`] — multinomial logistic regression (the paper's
//!   Synthetic and MNIST models).
//! * [`Mlp`] — multi-layer perceptron with ReLU/Tanh (the paper's Sent140
//!   model), full backprop, input gradients and R-operator HVP.
//!
//! ```
//! use fml_models::{Batch, Model, SoftmaxRegression};
//! use rand::SeedableRng;
//!
//! let model = SoftmaxRegression::new(4, 3).with_l2(1e-3);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let params = model.init_params(&mut rng);
//! let batch = Batch::classification(
//!     fml_linalg::Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0]]).unwrap(),
//!     vec![2],
//! ).unwrap();
//! let g = model.grad(&params, &batch);
//! assert_eq!(g.len(), model.param_len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod check;
mod error;
mod linear;
mod logistic;
mod mlp;
mod quadratic;
mod softmax_reg;
mod traits;
mod workspace;

pub use batch::{Batch, Target};
pub use error::ModelError;
pub use linear::LinearRegression;
pub use logistic::LogisticRegression;
pub use mlp::{Activation, Mlp, MlpBuilder};
pub use quadratic::Quadratic;
pub use softmax_reg::SoftmaxRegression;
pub use traits::{Model, Prediction};
pub use workspace::Workspace;

/// Convenience result alias for model-construction errors.
pub type Result<T> = std::result::Result<T, ModelError>;
