//! Source-node selection for the platform.
//!
//! Theorem 3 bounds the target's post-adaptation gap by the surrogate
//! difference `‖θ_t* − θ_c*‖` and the paper notes this "serves as a
//! guidance for the platform to determine how similar the source edge
//! nodes in the federated meta-learning should be with the target node".
//! This module turns that guidance into a mechanism: rank candidate
//! source nodes by the similarity of their loss gradients to the
//! target's K-shot gradient (a privacy-compatible signal — gradients at a
//! shared probe point are exactly what federated learning already ships),
//! and meta-train on the most similar subset.
//!
//! The [`similarity score`](gradient_similarity) is the mean cosine
//! similarity between per-node and target gradients at a set of shared
//! probe parameters. Scores near 1 mean the nodes pull the model the same
//! way the target would (small Assumption-4 `δ` between them); scores
//! near 0 or negative mean the node's task actively conflicts.

use fml_models::{Batch, Model};
use rand::Rng;

use crate::SourceTask;

/// Mean cosine similarity between the gradients of `a` and `b` over
/// `probes` random parameter points within `radius` of `center`.
///
/// Returns 0 when either gradient vanishes at every probe.
///
/// # Panics
///
/// Panics when `probes == 0` or `center` has the wrong length.
pub fn gradient_similarity<R: Rng + ?Sized>(
    model: &dyn Model,
    a: &Batch,
    b: &Batch,
    center: &[f64],
    radius: f64,
    probes: usize,
    rng: &mut R,
) -> f64 {
    assert!(probes > 0, "gradient_similarity: need at least one probe");
    assert_eq!(
        center.len(),
        model.param_len(),
        "gradient_similarity: bad center length"
    );
    let mut total = 0.0;
    let mut counted = 0usize;
    for _ in 0..probes {
        let theta: Vec<f64> = center
            .iter()
            .map(|&c| c + radius * (rng.gen::<f64>() * 2.0 - 1.0))
            .collect();
        let ga = model.grad(&theta, a);
        let gb = model.grad(&theta, b);
        let na = fml_linalg::vector::norm2(&ga);
        let nb = fml_linalg::vector::norm2(&gb);
        if na > 1e-12 && nb > 1e-12 {
            total += fml_linalg::vector::dot(&ga, &gb) / (na * nb);
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// One candidate's score.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSource {
    /// Index into the candidate slice.
    pub index: usize,
    /// Mean cosine gradient similarity to the target sample.
    pub score: f64,
}

/// Ranks candidate source tasks by gradient similarity to a target's
/// K-shot sample, most similar first.
///
/// # Panics
///
/// Panics when `candidates` is empty or `probes == 0`.
pub fn rank_sources<R: Rng + ?Sized>(
    model: &dyn Model,
    candidates: &[SourceTask],
    target_sample: &Batch,
    center: &[f64],
    radius: f64,
    probes: usize,
    rng: &mut R,
) -> Vec<RankedSource> {
    assert!(!candidates.is_empty(), "rank_sources: no candidates");
    let mut ranked: Vec<RankedSource> = candidates
        .iter()
        .enumerate()
        .map(|(index, task)| {
            let full = task.split.train.concat(&task.split.test);
            RankedSource {
                index,
                score: gradient_similarity(
                    model,
                    &full,
                    target_sample,
                    center,
                    radius,
                    probes,
                    rng,
                ),
            }
        })
        .collect();
    ranked.sort_by(|x, y| y.score.partial_cmp(&x.score).expect("finite scores"));
    ranked
}

/// Selects the `m` most target-similar candidates and renormalizes their
/// aggregation weights (eq. 2 over the selected subset).
///
/// # Panics
///
/// Panics when `m == 0` or exceeds the candidate count.
#[allow(clippy::too_many_arguments)]
pub fn select_sources<R: Rng + ?Sized>(
    model: &dyn Model,
    candidates: &[SourceTask],
    target_sample: &Batch,
    m: usize,
    center: &[f64],
    radius: f64,
    probes: usize,
    rng: &mut R,
) -> Vec<SourceTask> {
    assert!(m > 0, "select_sources: need at least one source");
    assert!(
        m <= candidates.len(),
        "select_sources: m exceeds candidate count"
    );
    let ranked = rank_sources(model, candidates, target_sample, center, radius, probes, rng);
    let mut picked: Vec<SourceTask> = ranked[..m]
        .iter()
        .map(|r| candidates[r.index].clone())
        .collect();
    let total: f64 = picked.iter().map(|t| t.weight).sum();
    for t in &mut picked {
        t.weight /= total;
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalStepper;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{LinearRegression, Target};
    use rand::SeedableRng;

    /// Regression node with ground truth `w`, fixed design.
    fn node(id: usize, w: &[f64; 2], samples: usize, seed: u64) -> NodeData {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut xs = Matrix::zeros(samples, 2);
        let mut ys = Vec::new();
        for r in 0..samples {
            let a = rng.gen::<f64>() * 2.0 - 1.0;
            let b = rng.gen::<f64>() * 2.0 - 1.0;
            xs.set(r, 0, a);
            xs.set(r, 1, b);
            ys.push(w[0] * a + w[1] * b);
        }
        NodeData {
            id,
            batch: Batch::regression(xs, ys).unwrap(),
        }
    }

    fn target_sample(w: &[f64; 2]) -> Batch {
        let xs = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5], &[-0.5, 1.0]]).unwrap();
        let ys: Vec<Target> = (0..4)
            .map(|r| {
                let x = xs.row(r);
                Target::Value(w[0] * x[0] + w[1] * x[1])
            })
            .collect();
        Batch::new(xs, ys).unwrap()
    }

    #[test]
    fn identical_tasks_have_similarity_near_one() {
        let model = LinearRegression::new(2);
        let a = node(0, &[1.0, -1.0], 48, 1).batch;
        let target = target_sample(&[1.0, -1.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let s = gradient_similarity(&model, &a, &target, &[0.0, 0.0, 0.0], 1.0, 24, &mut rng);
        // Finite-sample designs keep this below 1 even for identical
        // ground truths; it must still clearly dominate unrelated tasks.
        assert!(s > 0.6, "same ground truth should score high: {s}");
    }

    #[test]
    fn opposite_tasks_have_negative_similarity() {
        let model = LinearRegression::new(2);
        // 48 samples concentrate the node's gradient (especially its bias
        // component, whose sign is otherwise a coin flip at small n) so the
        // opposed pull dominates for any probe stream.
        let a = node(0, &[1.0, 1.0], 48, 3).batch;
        let target = target_sample(&[-1.0, -1.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let s = gradient_similarity(&model, &a, &target, &[0.0, 0.0, 0.0], 0.2, 24, &mut rng);
        assert!(s < 0.0, "opposed ground truths should score negative: {s}");
    }

    #[test]
    fn ranking_puts_similar_nodes_first() {
        let model = LinearRegression::new(2);
        let nodes = vec![
            node(0, &[-2.0, 0.5], 12, 10),
            node(1, &[1.0, -1.0], 12, 11), // matches the target
            node(2, &[0.0, 3.0], 12, 12),
            node(3, &[0.9, -1.1], 12, 13), // near match
        ];
        let tasks = SourceTask::from_nodes_deterministic(&nodes, 4);
        let target = target_sample(&[1.0, -1.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ranked = rank_sources(&model, &tasks, &target, &[0.0; 3], 1.0, 24, &mut rng);
        let top2: Vec<usize> = ranked[..2].iter().map(|r| r.index).collect();
        assert!(top2.contains(&1) && top2.contains(&3), "ranked {ranked:?}");
        assert!(ranked[0].score >= ranked[1].score);
    }

    #[test]
    fn selection_renormalizes_weights() {
        let model = LinearRegression::new(2);
        let nodes = vec![
            node(0, &[1.0, -1.0], 10, 20),
            node(1, &[1.0, -1.0], 30, 21),
            node(2, &[-5.0, 5.0], 20, 22),
        ];
        let tasks = SourceTask::from_nodes_deterministic(&nodes, 4);
        let target = target_sample(&[1.0, -1.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let picked = select_sources(&model, &tasks, &target, 2, &[0.0; 3], 1.0, 24, &mut rng);
        assert_eq!(picked.len(), 2);
        let total: f64 = picked.iter().map(|t| t.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(picked.iter().all(|t| t.id != 2), "the conflicting node is excluded");
    }

    #[test]
    fn selected_training_beats_all_sources_on_a_polluted_federation() {
        // Half the candidates share the target's ground truth; half are
        // opposed. Meta-training on the selected half must adapt better at
        // the target than training on everyone.
        let model = LinearRegression::new(2).with_l2(0.01);
        let good_w = [1.0, -1.0];
        let bad_w = [-1.0, 1.0];
        let mut nodes = Vec::new();
        for i in 0..4 {
            nodes.push(node(i, &good_w, 12, 30 + i as u64));
        }
        for i in 4..8 {
            nodes.push(node(i, &bad_w, 12, 30 + i as u64));
        }
        let tasks = SourceTask::from_nodes_deterministic(&nodes, 5);
        let target = target_sample(&good_w);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let selected =
            select_sources(&model, &tasks, &target, 4, &[0.0; 3], 1.0, 24, &mut rng);
        assert!(selected.iter().all(|t| t.id < 4), "selection finds the good half");

        let cfg = crate::FedMlConfig::new(0.2, 0.2)
            .with_local_steps(2)
            .with_rounds(40)
            .with_record_every(0);
        let theta0 = vec![0.0; 3];
        let all = crate::FedMl::new(cfg).train_from(&model, &tasks, &theta0);
        let chosen = crate::FedMl::new(cfg).train_from(&model, &selected, &theta0);

        let adapted_all = crate::adapt::adapt(&model, &all.params, &target, 0.2, 1);
        let adapted_sel = crate::adapt::adapt(&model, &chosen.params, &target, 0.2, 1);
        let loss_all = fml_models::Model::loss(&model, &adapted_all, &target);
        let loss_sel = fml_models::Model::loss(&model, &adapted_sel, &target);
        assert!(
            loss_sel < loss_all,
            "similarity-selected sources should adapt better: {loss_sel} vs {loss_all}"
        );
    }

    #[test]
    #[should_panic(expected = "m exceeds candidate count")]
    fn rejects_overlarge_m() {
        let model = LinearRegression::new(2);
        let nodes = vec![node(0, &[1.0, 0.0], 8, 40)];
        let tasks = SourceTask::from_nodes_deterministic(&nodes, 3);
        let target = target_sample(&[1.0, 0.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        select_sources(&model, &tasks, &target, 2, &[0.0; 3], 1.0, 4, &mut rng);
    }
}
