//! MNIST-like federated image dataset.
//!
//! **Substitution note** (see `DESIGN.md`): the paper samples real MNIST
//! and distributes it so that "every node has samples of only two digits
//! and the number of samples per device follows a power law". What drives
//! the FedML-vs-FedAvg gap in that experiment is the *partition structure*
//! — extreme label skew over a shared 10-class geometry — not the literal
//! pixel values. This module reproduces that structure synthetically:
//!
//! * ten global class prototypes `μ_c` in a `dim`-dimensional "pixel"
//!   space (shared across all nodes, like real digit shapes);
//! * a small per-node style shift `s_i` (like per-writer style);
//! * samples `x = clamp(μ_c + s_i + ε, 0, 1)` with pixel noise `ε`;
//! * the paper's exact partition: two digits per node, power-law sizes,
//!   100 nodes (Table I: mean 34 samples/node).

use fml_linalg::Matrix;
use fml_models::Batch;
use rand::Rng;

use crate::{normal, partition, Federation, NodeData};

/// Configuration for the MNIST-like generator. Defaults mirror the paper's
/// partition (100 nodes, 2 digits/node, mean 34 samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MnistLikeConfig {
    /// Number of edge nodes.
    pub nodes: usize,
    /// "Pixel" dimension (default 64, an 8×8 image).
    pub dim: usize,
    /// Number of digit classes (default 10).
    pub classes: usize,
    /// Digits present on each node (default 2).
    pub digits_per_node: usize,
    /// Target mean samples per node.
    pub mean_samples: f64,
    /// Minimum samples per node.
    pub min_samples: usize,
    /// Standard deviation of the per-node style shift.
    pub style_std: f64,
    /// Standard deviation of per-pixel noise.
    pub noise_std: f64,
}

impl Default for MnistLikeConfig {
    fn default() -> Self {
        MnistLikeConfig {
            nodes: 100,
            dim: 64,
            classes: 10,
            digits_per_node: 2,
            mean_samples: 34.0,
            min_samples: 10,
            style_std: 0.45,
            noise_std: 0.20,
        }
    }
}

impl MnistLikeConfig {
    /// Paper-default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the pixel dimension.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
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
    ///
    /// # Panics
    ///
    /// Panics when `digits_per_node` is 0 or exceeds `classes`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Federation {
        // Global digit prototypes: sparse-ish blobs in [0, 1]^dim. Each
        // class lights up a distinct subset of pixels, mimicking distinct
        // stroke patterns.
        let prototypes: Vec<Vec<f64>> = (0..self.classes)
            .map(|_| {
                (0..self.dim)
                    .map(|_| {
                        if rng.gen_bool(0.35) {
                            0.45 + 0.3 * rng.gen::<f64>()
                        } else {
                            0.15 * rng.gen::<f64>()
                        }
                    })
                    .collect()
            })
            .collect();

        let sizes =
            partition::power_law_sizes(self.nodes, self.mean_samples, 2.0, self.min_samples, rng);
        let windows = partition::label_windows(self.nodes, self.classes, self.digits_per_node, rng);

        let nodes = sizes
            .iter()
            .zip(&windows)
            .enumerate()
            .map(|(id, (&n, digits))| {
                let style: Vec<f64> = (0..self.dim)
                    .map(|_| self.style_std * normal(rng, 1.0))
                    .collect();
                let mut xs = Matrix::zeros(n, self.dim);
                let mut labels = Vec::with_capacity(n);
                for r in 0..n {
                    let digit = digits[r % digits.len()];
                    let row = xs.row_mut(r);
                    for (k, px) in row.iter_mut().enumerate() {
                        let v = prototypes[digit][k] + style[k] + self.noise_std * normal(rng, 1.0);
                        *px = v.clamp(0.0, 1.0);
                    }
                    labels.push(digit);
                }
                NodeData {
                    id,
                    batch: Batch::classification(xs, labels).expect("shape by construction"),
                }
            })
            .collect();

        Federation::new("MNIST-like", self.classes, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small(seed: u64) -> Federation {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        MnistLikeConfig::new()
            .with_nodes(20)
            .with_dim(16)
            .with_mean_samples(24.0)
            .generate(&mut rng)
    }

    #[test]
    fn shape_and_partition() {
        let fed = small(0);
        assert_eq!(fed.len(), 20);
        assert_eq!(fed.dim(), 16);
        assert_eq!(fed.classes(), 10);
    }

    #[test]
    fn each_node_has_exactly_two_digits() {
        let fed = small(1);
        for node in fed.nodes() {
            let mut digits: Vec<usize> = node.batch.iter().map(|(_, y)| y.expect_class()).collect();
            digits.sort_unstable();
            digits.dedup();
            assert_eq!(digits.len(), 2, "node {} digits {digits:?}", node.id);
        }
    }

    #[test]
    fn pixels_are_in_unit_interval() {
        let fed = small(2);
        for node in fed.nodes() {
            for (x, _) in node.batch.iter() {
                assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        // Same-class samples across different nodes should be closer on
        // average than different-class samples — the property a shared
        // initialization can exploit.
        let fed = small(3);
        let mut same = Vec::new();
        let mut diff = Vec::new();
        let a = &fed.node(0).batch;
        let b = &fed.node(5).batch;
        for (xa, ya) in a.iter().take(10) {
            for (xb, yb) in b.iter().take(10) {
                let d = fml_linalg::vector::dist2(xa, xb);
                if ya.expect_class() == yb.expect_class() {
                    same.push(d);
                } else {
                    diff.push(d);
                }
            }
        }
        if !same.is_empty() && !diff.is_empty() {
            assert!(
                fml_linalg::stats::mean(&same) < fml_linalg::stats::mean(&diff),
                "same-class pairs should be closer"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(small(4), small(4));
    }

    #[test]
    fn stats_report_partition_scale() {
        let fed = small(5);
        let s = fed.stats();
        assert_eq!(s.nodes, 20);
        assert!(s.mean_samples >= 10.0);
        assert!(s.stdev_samples > 0.0, "power law produces size spread");
    }
}
