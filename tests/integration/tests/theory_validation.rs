//! Convergence-theory integration tests: estimate Assumption-1–4
//! constants empirically on real workloads, apply Lemma 1 / Theorem 2,
//! and check the bound against measured training curves.

use fml_core::theory::{estimate_constants, MetaConstants, ProblemConstants, TheoremTwoBound};
use fml_core::{weighted_meta_loss, FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::NodeData;
use fml_linalg::Matrix;
use fml_models::{Batch, LogisticRegression, Model, Quadratic};
use rand::SeedableRng;

fn quad_tasks(centers: &[(f64, f64)], curvature: f64) -> (Quadratic, Vec<SourceTask>) {
    let nodes: Vec<NodeData> = centers
        .iter()
        .enumerate()
        .map(|(id, &(a, b))| {
            let rows: Vec<Vec<f64>> = (0..4).map(|_| vec![a, b]).collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            NodeData {
                id,
                batch: Batch::regression(Matrix::from_rows(&refs).unwrap(), vec![0.0; 4]).unwrap(),
            }
        })
        .collect();
    (
        Quadratic::isotropic(2, curvature),
        SourceTask::from_nodes_deterministic(&nodes, 2),
    )
}

#[test]
fn estimated_constants_feed_a_valid_theorem2_bound() {
    // Estimate constants empirically (as a user without closed forms
    // would), inflate them slightly, and verify the resulting Theorem 2
    // bound still dominates the measured optimality gap.
    let (model, tasks) = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], 1.0);
    let theta0 = vec![2.0, 2.0];
    let alpha = 0.2;
    let beta = 0.3;
    let t0 = 5;
    let rounds = 40;

    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut pc = estimate_constants(&model, &tasks, &[0.0, 0.0], 3.0, 64, &mut rng);
    // Estimates are inner approximations of the suprema; inflate 10% and
    // make B cover the whole iterate region.
    pc.smoothness *= 1.1;
    pc.grad_bound = pc.grad_bound.max(fml_linalg::vector::norm2(&theta0) + 2.0);
    for d in &mut pc.delta {
        *d *= 1.1;
    }

    let mc = MetaConstants::from_lemma1(&pc, alpha).expect("alpha admissible");
    let g_star = weighted_meta_loss(&model, &tasks, &[0.0, 0.0], alpha);
    let g_0 = weighted_meta_loss(&model, &tasks, &theta0, alpha);

    let out = FedMl::new(
        FedMlConfig::new(alpha, beta)
            .with_local_steps(t0)
            .with_rounds(rounds),
    )
    .train_from(&model, &tasks, &theta0);

    let bound = TheoremTwoBound {
        constants: pc,
        meta: mc,
        alpha,
        beta,
        t0,
        c: 2.0,
        weights: tasks.iter().map(|t| t.weight).collect(),
    };
    for (iter, g) in out.aggregation_curve() {
        let measured = (g - g_star).max(0.0);
        let predicted = bound.bound(iter, g_0 - g_star);
        assert!(
            measured <= predicted + 1e-9,
            "bound violated at iteration {iter}: measured {measured}, bound {predicted}"
        );
    }
}

#[test]
fn error_floor_increases_with_t0_in_measurement() {
    // Theorem 2 predicts the converged gap grows with T0; check the
    // measured steady-state gaps are ordered.
    let (model, tasks) = quad_tasks(&[(2.0, 0.0), (-2.0, 0.0)], 1.0);
    let theta0 = vec![1.0, 1.0];
    let alpha = 0.2;
    let beta = 0.3;
    let g_star = weighted_meta_loss(&model, &tasks, &[0.0, 0.0], alpha);

    let gap = |t0: usize| {
        let out = FedMl::new(
            FedMlConfig::new(alpha, beta)
                .with_local_steps(t0)
                .with_total_iterations(400),
        )
        .train_from(&model, &tasks, &theta0);
        out.final_meta_loss().unwrap() - g_star
    };
    let g1 = gap(1);
    let g10 = gap(10);
    let g20 = gap(20);
    assert!(
        g1 <= g10 + 1e-9 && g10 <= g20 + 1e-9,
        "steady-state gap should grow with T0: {g1} {g10} {g20}"
    );
}

#[test]
fn estimated_logistic_constants_are_sane() {
    // Logistic regression + L2 on bounded data: μ ≥ λ_reg, H bounded by
    // λ_reg + max ‖x̃‖²/4, ρ finite, σ_i small but nonzero.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
        .with_nodes(6)
        .with_dim(5)
        .with_classes(2)
        .with_mean_samples(20.0)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 5);
    let l2 = 0.1;
    let model = LogisticRegression::new(5).with_l2(l2);
    let center = vec![0.0; model.param_len()];
    let pc = estimate_constants(&model, &tasks, &center, 1.0, 48, &mut rng);

    // The bias coordinate is unregularized, so the minimal Rayleigh
    // quotient can dip below l2; it must still be positive because the
    // data term p(1-p)·x̃x̃ᵀ covers the bias direction.
    assert!(pc.mu > 0.0, "mu must be positive: {}", pc.mu);
    let _ = l2;
    assert!(pc.smoothness > pc.mu, "H > mu");
    assert!(pc.grad_bound > 0.0);
    assert!(pc.hessian_lipschitz >= 0.0);
    assert_eq!(pc.delta.len(), tasks.len());
    assert!(
        pc.delta.iter().any(|&d| d > 0.0),
        "heterogeneous nodes have nonzero delta"
    );
    // Lemma 1 applies at a small enough alpha.
    let alpha = 0.5 * pc.alpha_bound();
    let mc = MetaConstants::from_lemma1(&pc, alpha).expect("lemma applies");
    assert!(mc.mu_prime > 0.0 && mc.h_prime > 0.0);
    assert!(mc.beta_bound() > 0.0);
}

#[test]
fn corollary1_no_floor_at_t0_one_in_measurement() {
    // With T0 = 1, FedML should converge to (numerical) optimality even on
    // a dissimilar federation — no error floor.
    let (model, tasks) = quad_tasks(&[(3.0, 0.0), (-3.0, 0.0)], 1.0);
    let alpha = 0.2;
    let out = FedMl::new(
        FedMlConfig::new(alpha, 0.3)
            .with_local_steps(1)
            .with_rounds(400),
    )
    .train_from(&model, &tasks, &[2.0, 2.0]);
    let g_star = weighted_meta_loss(&model, &tasks, &[0.0, 0.0], alpha);
    let gap = out.final_meta_loss().unwrap() - g_star;
    assert!(gap.abs() < 1e-8, "T0=1 should reach the optimum: gap {gap}");
}

#[test]
fn theorem2_bound_holds_at_every_aggregation_for_every_t0() {
    // The sweep `theory_check` plots, as an invariant: a quadratic
    // federation with centers on a circle of radius r, where every
    // constant of Assumptions 1–4 is closed-form (μ = H = 1, ρ = 0,
    // σ_i = 0, δ_i = r). The curve is the shared lockstep driver's.
    let (nodes, radius, alpha, beta) = (8usize, 1.0, 0.2, 0.3);
    let centers: Vec<(f64, f64)> = (0..nodes)
        .map(|i| {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / nodes as f64;
            (radius * angle.cos(), radius * angle.sin())
        })
        .collect();
    let (model, tasks) = quad_tasks(&centers, 1.0);
    let theta0 = vec![3.0, 3.0];
    let pc = ProblemConstants {
        mu: 1.0,
        smoothness: 1.0,
        // ‖∇L_i(θ)‖ = ‖θ − x̄_i‖ ≤ ‖θ⁰‖ + r over the iterates.
        grad_bound: fml_linalg::vector::norm2(&theta0) + radius,
        hessian_lipschitz: 0.0,
        delta: vec![radius; nodes],
        sigma: vec![0.0; nodes],
    };
    let mc = MetaConstants::from_lemma1(&pc, alpha).expect("alpha admissible");
    let g_star = weighted_meta_loss(&model, &tasks, &[0.0, 0.0], alpha);
    let gap0 = weighted_meta_loss(&model, &tasks, &theta0, alpha) - g_star;

    let mut floors = Vec::new();
    for t0 in [1usize, 2, 5, 10] {
        let bound = TheoremTwoBound {
            constants: pc.clone(),
            meta: mc,
            alpha,
            beta,
            t0,
            c: 2.0,
            weights: tasks.iter().map(|t| t.weight).collect(),
        };
        let cfg = FedMlConfig::new(alpha, beta)
            .with_local_steps(t0)
            .with_total_iterations(200);
        let out = FedMl::new(cfg).train_from(&model, &tasks, &theta0);
        assert_eq!(out.history.len(), 200 / t0);
        for r in &out.history {
            assert!(r.aggregated);
            let measured = (r.meta_loss - g_star).max(0.0);
            let predicted = bound.bound(r.iteration, gap0);
            assert!(
                measured <= predicted + 1e-9,
                "T0={t0}, t={}: measured {measured} above the bound {predicted}",
                r.iteration
            );
        }
        floors.push(bound.error_floor());
    }
    assert_eq!(floors[0], 0.0, "Corollary 1: no floor at T0 = 1");
    assert!(
        floors.windows(2).all(|w| w[0] <= w[1]) && floors[1] > 0.0,
        "the floor must grow with T0: {floors:?}"
    );
}
