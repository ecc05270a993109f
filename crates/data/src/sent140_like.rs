//! Sent140-like federated text-sentiment dataset.
//!
//! **Substitution note** (see `DESIGN.md`): the paper's Sent140 experiment
//! treats each Twitter account as a node, embeds 25-character windows with
//! a *frozen pretrained* 300-d GloVe table, and classifies with an MLP.
//! What the experiment exercises is: (a) hundreds of highly heterogeneous
//! small-sample nodes (Table I: 706 nodes, 42 ± 35 samples), and (b) a
//! *non-convex* model over a frozen featurizer. This module reproduces
//! both:
//!
//! * a frozen random **embedding table** plays GloVe's role (it is shared,
//!   fixed, and never trained);
//! * each "user" draws 25-character sequences from a user-specific
//!   character distribution, shifted by a latent sentiment topic;
//! * labels come from per-user **teacher MLPs** that share a global
//!   component, so user tasks are related but distinct — the node
//!   similarity structure federated meta-learning exploits;
//! * features handed to learners are the mean-pooled embeddings, exactly
//!   the frozen-featurizer → trainable-head split of the paper.

use fml_linalg::{softmax, Matrix};
use fml_models::{Activation, Batch, MlpBuilder, Model};
use rand::Rng;

use crate::{normal, partition, Federation, NodeData};

/// Configuration for the Sent140-like generator. Defaults mirror the
/// paper's Table I scale (706 users, 42 ± 35 samples, 25-char windows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent140LikeConfig {
    /// Number of user nodes.
    pub users: usize,
    /// Character vocabulary size.
    pub vocab: usize,
    /// Embedding dimension (the frozen featurizer's output width).
    pub embed_dim: usize,
    /// Characters per sample window.
    pub seq_len: usize,
    /// Target mean samples per user (power-law distributed).
    pub mean_samples: f64,
    /// Minimum samples per user.
    pub min_samples: usize,
    /// Scale of per-user teacher deviation from the global teacher
    /// (0 = identical tasks everywhere).
    pub teacher_dev: f64,
    /// Strength of the latent sentiment topic's pull on character choice.
    pub topic_strength: f64,
}

impl Default for Sent140LikeConfig {
    fn default() -> Self {
        Sent140LikeConfig {
            users: 706,
            vocab: 128,
            embed_dim: 32,
            seq_len: 25,
            mean_samples: 42.0,
            min_samples: 10,
            teacher_dev: 0.3,
            topic_strength: 1.5,
        }
    }
}

impl Sent140LikeConfig {
    /// Paper-default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the user count.
    pub fn with_users(mut self, users: usize) -> Self {
        self.users = users;
        self
    }

    /// Overrides the embedding dimension.
    pub fn with_embed_dim(mut self, dim: usize) -> Self {
        self.embed_dim = dim;
        self
    }

    /// Overrides the mean samples per user.
    pub fn with_mean_samples(mut self, mean: f64) -> Self {
        self.mean_samples = mean;
        self
    }

    /// Overrides the minimum samples per user.
    pub fn with_min_samples(mut self, min: usize) -> Self {
        self.min_samples = min;
        self
    }

    /// Generates the federation of pooled-embedding features and teacher
    /// labels.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Federation {
        let table = embedding_table(self.vocab, self.embed_dim, rng);
        // Per-character sentiment scores: the latent topic biases sampling
        // toward positively or negatively scored characters.
        let sentiment: Vec<f64> = (0..self.vocab).map(|_| normal(rng, 1.0)).collect();
        // Global teacher network over pooled embeddings.
        let teacher = MlpBuilder::new(self.embed_dim, 2)
            .hidden(&[16])
            .activation(Activation::Tanh)
            .build()
            .expect("valid teacher config");
        let theta_global = teacher.init_params(rng);

        let sizes =
            partition::power_law_sizes(self.users, self.mean_samples, 1.6, self.min_samples, rng);

        let nodes = sizes
            .iter()
            .enumerate()
            .map(|(id, &n)| {
                // User's teacher = global + small deviation.
                let theta_user: Vec<f64> = theta_global
                    .iter()
                    .map(|&g| g + self.teacher_dev * normal(rng, 1.0))
                    .collect();
                // User's baseline character preferences.
                let char_bias: Vec<f64> = (0..self.vocab).map(|_| normal(rng, 1.0)).collect();

                let mut xs = Matrix::zeros(n, self.embed_dim);
                let mut labels = Vec::with_capacity(n);
                for r in 0..n {
                    let topic = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    let seq = sample_sequence(
                        &char_bias,
                        &sentiment,
                        topic * self.topic_strength,
                        self.seq_len,
                        rng,
                    );
                    let pooled = embed_sequence(&table, self.embed_dim, &seq);
                    xs.row_mut(r).copy_from_slice(&pooled);
                    let label = teacher
                        .predict(&theta_user, &pooled)
                        .label()
                        .expect("teacher is a classifier");
                    labels.push(label);
                }
                NodeData {
                    id,
                    batch: Batch::classification(xs, labels).expect("shape by construction"),
                }
            })
            .collect();

        Federation::new("Sent140-like", 2, nodes)
    }
}

/// Builds a frozen `vocab × dim` embedding table (row per character) with
/// unit-variance entries — the stand-in for pretrained GloVe vectors.
fn embedding_table<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Matrix {
    let mut m = Matrix::zeros(vocab, dim);
    for v in m.as_mut_slice() {
        *v = normal(rng, 1.0);
    }
    m
}

/// Mean-pools the embedding rows of a character sequence.
///
/// # Panics
///
/// Panics when the sequence is empty or a character index is out of range.
fn embed_sequence(table: &Matrix, dim: usize, seq: &[usize]) -> Vec<f64> {
    assert!(!seq.is_empty(), "embed_sequence: empty sequence");
    let mut pooled = vec![0.0; dim];
    for &c in seq {
        fml_linalg::vector::axpy(1.0, table.row(c), &mut pooled);
    }
    fml_linalg::vector::scale_in_place(1.0 / seq.len() as f64, &mut pooled);
    pooled
}

/// Samples a character sequence from
/// `softmax(char_bias + topic_shift · sentiment)`.
fn sample_sequence<R: Rng + ?Sized>(
    char_bias: &[f64],
    sentiment: &[f64],
    topic_shift: f64,
    len: usize,
    rng: &mut R,
) -> Vec<usize> {
    let logits: Vec<f64> = char_bias
        .iter()
        .zip(sentiment)
        .map(|(b, s)| b + topic_shift * s)
        .collect();
    let probs = softmax::softmax(&logits);
    (0..len).map(|_| sample_categorical(&probs, rng)).collect()
}

fn sample_categorical<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small(seed: u64) -> Federation {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Sent140LikeConfig::new()
            .with_users(15)
            .with_embed_dim(8)
            .with_mean_samples(30.0)
            .generate(&mut rng)
    }

    #[test]
    fn shape_and_classes() {
        let fed = small(0);
        assert_eq!(fed.len(), 15);
        assert_eq!(fed.dim(), 8);
        assert_eq!(fed.classes(), 2);
        assert_eq!(fed.name(), "Sent140-like");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(small(1), small(1));
    }

    #[test]
    fn both_labels_appear_in_aggregate() {
        let fed = small(2);
        let mut seen = [false; 2];
        for node in fed.nodes() {
            for (_, y) in node.batch.iter() {
                seen[y.expect_class()] = true;
            }
        }
        assert!(seen[0] && seen[1], "both sentiment classes present");
    }

    #[test]
    fn embedding_table_has_unit_scale() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let table = embedding_table(64, 16, &mut rng);
        let std = fml_linalg::stats::std_dev(table.as_slice());
        assert!((std - 1.0).abs() < 0.1, "std {std}");
    }

    #[test]
    fn embed_sequence_averages_rows() {
        let table = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let pooled = embed_sequence(&table, 2, &[0, 1, 1, 1]);
        assert_eq!(pooled, vec![0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn embed_sequence_rejects_empty() {
        let table = Matrix::zeros(2, 2);
        embed_sequence(&table, 2, &[]);
    }

    #[test]
    fn topic_shift_moves_features() {
        // Sequences drawn with opposite topic shifts should pool to
        // measurably different embeddings.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let table = embedding_table(32, 8, &mut rng);
        let bias: Vec<f64> = vec![0.0; 32];
        let sentiment: Vec<f64> = (0..32).map(|i| if i < 16 { 2.0 } else { -2.0 }).collect();
        let pos = sample_sequence(&bias, &sentiment, 2.0, 200, &mut rng);
        let neg = sample_sequence(&bias, &sentiment, -2.0, 200, &mut rng);
        let ep = embed_sequence(&table, 8, &pos);
        let en = embed_sequence(&table, 8, &neg);
        assert!(
            fml_linalg::vector::dist2(&ep, &en) > 0.1,
            "opposite topics should separate"
        );
    }

    #[test]
    fn sample_counts_are_heterogeneous() {
        let fed = small(5);
        let s = fed.stats();
        assert!(s.stdev_samples > 0.0);
        assert!(fed.nodes().iter().all(|n| n.batch.len() >= 10));
    }

    #[test]
    fn sample_categorical_is_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let probs = vec![0.25; 4];
        for _ in 0..100 {
            assert!(sample_categorical(&probs, &mut rng) < 4);
        }
    }
}
