//! The paper's Synthetic(α̃, β̃) dataset generator (§VI-A).
//!
//! For each node `i`:
//!
//! * a ground-truth softmax model is drawn: `u_i ~ N(0, α̃)`,
//!   `W_i ~ N(u_i, 1)` entrywise (`10 × 60`), `b_i ~ N(u_i, 1)` (`10`);
//! * an input distribution is drawn: `B_i ~ N(0, β̃)`,
//!   `v_i ~ N(B_i, 1)` entrywise, and samples `x ~ N(v_i, Σ)` with the
//!   diagonal covariance `Σ_kk = k^{−1.2}`;
//! * labels are `y = argmax(softmax(W_i x + b_i))`.
//!
//! `α̃` controls how far apart the nodes' *models* are and `β̃` how far
//! apart their *input distributions* are; `(0, 0)` is the most homogeneous
//! configuration and `(1, 1)` the least, exactly the knob Figure 2(a)
//! turns. Sample counts follow a power law (Table I: 50 nodes, ~17
//! samples/node).

use fml_linalg::Matrix;
use fml_models::Batch;
use rand::Rng;

use crate::{normal, partition, Federation, NodeData};

/// Configuration for the Synthetic(α̃, β̃) generator.
///
/// Defaults mirror the paper: 50 nodes, 60 features, 10 classes, power-law
/// sizes with mean 17.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Model-heterogeneity knob `α̃` (variance of the per-node model mean).
    pub alpha: f64,
    /// Input-heterogeneity knob `β̃` (variance of the per-node input mean).
    pub beta: f64,
    /// Number of edge nodes.
    pub nodes: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Target mean samples per node (power-law distributed).
    pub mean_samples: f64,
    /// Minimum samples per node (must allow a K-shot split).
    pub min_samples: usize,
}

impl SyntheticConfig {
    /// Paper-default configuration for a given `(α̃, β̃)`.
    ///
    /// # Panics
    ///
    /// Panics when either knob is negative.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha >= 0.0 && beta >= 0.0, "similarity knobs must be ≥ 0");
        SyntheticConfig {
            alpha,
            beta,
            nodes: 50,
            dim: 60,
            classes: 10,
            mean_samples: 17.0,
            min_samples: 8,
        }
    }

    /// Overrides the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the feature dimension.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Overrides the class count.
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.classes = classes;
        self
    }

    /// Overrides the mean samples per node.
    pub fn with_mean_samples(mut self, mean: f64) -> Self {
        self.mean_samples = mean;
        self
    }

    /// Overrides the minimum samples per node.
    pub fn with_min_samples(mut self, min: usize) -> Self {
        self.min_samples = min;
        self
    }

    /// Generates the federation.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Federation {
        let sizes =
            partition::power_law_sizes(self.nodes, self.mean_samples, 2.0, self.min_samples, rng);
        // Σ_kk = k^{−1.2}, k starting at 1.
        let sigma: Vec<f64> = (1..=self.dim)
            .map(|k| (k as f64).powf(-1.2).sqrt())
            .collect();

        let nodes = sizes
            .iter()
            .enumerate()
            .map(|(id, &n)| {
                // Per-node ground-truth model.
                let u_i = draw_centered(rng, self.alpha);
                let w: Vec<f64> = (0..self.classes * self.dim)
                    .map(|_| u_i + normal(rng, 1.0))
                    .collect();
                let b: Vec<f64> = (0..self.classes).map(|_| u_i + normal(rng, 1.0)).collect();
                // Per-node input distribution.
                let big_b = draw_centered(rng, self.beta);
                let v: Vec<f64> = (0..self.dim).map(|_| big_b + normal(rng, 1.0)).collect();

                let mut xs = Matrix::zeros(n, self.dim);
                let mut labels = Vec::with_capacity(n);
                for r in 0..n {
                    let row = xs.row_mut(r);
                    for (k, x) in row.iter_mut().enumerate() {
                        *x = v[k] + sigma[k] * normal(rng, 1.0);
                    }
                    labels.push(argmax_label(&w, &b, row, self.classes, self.dim));
                }
                NodeData {
                    id,
                    batch: Batch::classification(xs, labels).expect("shape by construction"),
                }
            })
            .collect();

        Federation::new(
            format!("Synthetic({},{})", self.alpha, self.beta),
            self.classes,
            nodes,
        )
    }
}

/// Draws `N(0, var)`, degenerating to exactly 0 when `var == 0`.
fn draw_centered<R: Rng + ?Sized>(rng: &mut R, var: f64) -> f64 {
    if var == 0.0 {
        0.0
    } else {
        normal(rng, var.sqrt())
    }
}

fn argmax_label(w: &[f64], b: &[f64], x: &[f64], classes: usize, dim: usize) -> usize {
    let mut best = 0;
    let mut best_z = f64::NEG_INFINITY;
    for c in 0..classes {
        let z = fml_linalg::vector::dot(&w[c * dim..(c + 1) * dim], x) + b[c];
        if z > best_z {
            best_z = z;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small(alpha: f64, beta: f64, seed: u64) -> Federation {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        SyntheticConfig::new(alpha, beta)
            .with_nodes(12)
            .with_dim(10)
            .with_classes(4)
            .with_mean_samples(20.0)
            .generate(&mut rng)
    }

    #[test]
    fn shape_and_naming() {
        let fed = small(0.5, 0.5, 1);
        assert_eq!(fed.len(), 12);
        assert_eq!(fed.dim(), 10);
        assert_eq!(fed.classes(), 4);
        assert_eq!(fed.name(), "Synthetic(0.5,0.5)");
        assert!(fed.nodes().iter().all(|n| n.batch.len() >= 8));
    }

    #[test]
    fn labels_in_range() {
        let fed = small(1.0, 1.0, 2);
        for node in fed.nodes() {
            for (_, y) in node.batch.iter() {
                assert!(y.expect_class() < 4);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small(0.5, 0.5, 3);
        let b = small(0.5, 0.5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn heterogeneity_grows_with_beta() {
        // Input means spread out as β̃ grows: compare the dispersion of
        // per-node mean feature vectors.
        let spread = |fed: &Federation| -> f64 {
            let means: Vec<Vec<f64>> = fed
                .nodes()
                .iter()
                .map(|n| {
                    let mut m = vec![0.0; fed.dim()];
                    for (x, _) in n.batch.iter() {
                        fml_linalg::vector::axpy(1.0, x, &mut m);
                    }
                    fml_linalg::vector::scale(1.0 / n.batch.len() as f64, &m)
                })
                .collect();
            let mut grand = vec![0.0; fed.dim()];
            for m in &means {
                fml_linalg::vector::axpy(1.0 / means.len() as f64, m, &mut grand);
            }
            means
                .iter()
                .map(|m| fml_linalg::vector::dist2(m, &grand))
                .sum::<f64>()
                / means.len() as f64
        };
        let lo = spread(&small(0.0, 0.0, 4));
        let hi = spread(&small(0.0, 4.0, 4));
        assert!(
            hi > 1.5 * lo,
            "β̃ should widen input-distribution spread ({lo} vs {hi})"
        );
    }

    #[test]
    fn weights_reflect_power_law_sizes() {
        let fed = small(0.5, 0.5, 5);
        // Power law ⇒ not all nodes (hence not all `ω_i`) equal.
        let sizes = fed.nodes().iter().map(|n| n.batch.len());
        assert!(sizes.clone().max() > sizes.min());
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn rejects_negative_knobs() {
        SyntheticConfig::new(-0.1, 0.0);
    }

    #[test]
    fn all_classes_reachable_in_aggregate() {
        // With 4 classes and ~240 samples, every class should appear
        // somewhere in the federation.
        let fed = small(0.5, 0.5, 6);
        let mut seen = [false; 4];
        for node in fed.nodes() {
            for (_, y) in node.batch.iter() {
                seen[y.expect_class()] = true;
            }
        }
        assert!(seen.iter().filter(|&&s| s).count() >= 3);
    }
}
