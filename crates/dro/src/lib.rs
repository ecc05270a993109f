//! Wasserstein distributionally robust optimization (DRO) substrate.
//!
//! Robust FedML (Algorithm 2 of the paper) replaces the inner max over
//! distributions `max_{P: D_w(P, P_i) ≤ π} E_P[l]` with its Lagrangian
//! relaxation, whose dual (Lemma 2, via Blanchet–Murthy / Sinha et al.) is
//! a pointwise **robust surrogate loss**
//!
//! ```text
//! l_λ(θ, (x₀, y₀)) = sup_x { l(θ, (x, y₀)) − λ·c((x, y₀), (x₀, y₀)) }
//! ```
//!
//! This crate provides:
//!
//! * [`TransportCost`] — the ground cost `c`; [`SquaredL2Cost`] is the
//!   paper's choice `‖x − x′‖₂² + ∞·1(y ≠ y′)` (labels cannot be
//!   transported);
//! * [`RobustSurrogate`] — a `Ta`-step gradient-ascent maximizer of the
//!   inner problem (eq. 12), returning the adversarial point `x*` and the
//!   surrogate value; for `λ > H_xx` the inner objective is strongly
//!   concave and ascent converges linearly (Theorem 4's regime);
//! * [`attack`] — the evaluation-time attack: FGSM (used in the paper's
//!   Figure 4 robustness evaluation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
mod cost;
mod surrogate;

pub use attack::BoxConstraint;
pub use cost::{SquaredL2Cost, TransportCost};
pub use surrogate::{RobustSurrogate, SurrogatePoint};
