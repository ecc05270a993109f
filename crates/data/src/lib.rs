//! Federated dataset generators and partitioners.
//!
//! Reproduces the three workloads of the paper's evaluation (§VI-A):
//!
//! * [`synthetic`] — the Synthetic(α̃, β̃) generator, implemented exactly as
//!   specified: per-node softmax ground-truth models
//!   `y = argmax(softmax(Wx + b))` with `W_i, b_i ~ N(u_i, 1)`,
//!   `u_i ~ N(0, α̃)`, inputs `x ~ N(v_i, Σ)`, `Σ_kk = k^{−1.2}`,
//!   `v_i ~ N(B_i, 1)`, `B_i ~ N(0, β̃)`; 50 nodes with power-law sizes.
//! * [`mnist_like`] — a class-conditional Gaussian image generator standing
//!   in for MNIST (see `DESIGN.md` for the substitution rationale), with
//!   the paper's partition: 100 nodes, **two digits per node**, power-law
//!   sizes.
//! * [`sent140_like`] — a synthetic stand-in for Sent140: 706 "users",
//!   character sequences embedded by a frozen random embedding table
//!   (playing frozen GloVe's role), mean-pooled, labelled by per-user
//!   teacher MLPs that share a global component.
//!
//! Plus the plumbing every experiment needs: [`Federation`] (a named set of
//! per-node [`fml_models::Batch`]es), source/target node splits, K-shot
//! support/query splits ([`TaskSplit`]), power-law size sampling, and
//! Table-I statistics ([`FederationStats`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod federation;
pub mod mnist_like;
pub mod partition;
pub mod sent140_like;
pub mod shared_synthetic;
pub mod synthetic;

pub use federation::{Federation, FederationStats, NodeData, TaskSplit};

use rand::Rng;

/// One draw from `N(0, std_dev²)` by Box–Muller: two uniforms, `u1` in
/// `(0, 1]` so its log is finite. `0.0 +` keeps a `−0.0` draw `+0.0`.
fn normal<R: Rng + ?Sized>(rng: &mut R, std_dev: f64) -> f64 {
    let u1 = 1.0 - rng.gen::<f64>();
    let u2 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    0.0 + std_dev * z
}

/// One draw from the Pareto distribution with scale 1 and tail index
/// `shape`, by inverse transform: `1 / U^(1/shape)` with `U` in `(0, 1]`.
fn pareto<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    let u = 1.0 - rng.gen::<f64>();
    1.0 / u.powf(1.0 / shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| 2.0 + normal(&mut rng, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn pareto_support_and_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            assert!(pareto(&mut rng, 3.0) >= 1.0);
        }
    }
}
