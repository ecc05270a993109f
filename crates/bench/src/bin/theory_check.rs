//! X1 — theory-vs-practice: Theorem 2's bound against the measured
//! optimality gap on a strongly convex quadratic federation where every
//! constant of Assumptions 1–4 is known in closed form.
//!
//! Expected shape: for every `T0`, the measured gap stays below the bound
//! at every aggregation; the bound's error floor grows with `T0` while
//! `T0 = 1`'s bound decays to zero (Corollary 1).

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::theory::{MetaConstants, ProblemConstants, TheoremTwoBound};
use fml_core::{weighted_meta_loss, FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::NodeData;
use fml_linalg::Matrix;
use fml_models::{Batch, Quadratic};

/// Builds a quadratic federation with centers on a circle of radius `r`
/// (controls dissimilarity: δ_i = r exactly, σ_i = 0, ρ = 0).
///
/// Note: because every node shares the same curvature, the local dynamics
/// are affine and commute with weighted averaging — the *measured* gap is
/// ~0 for every T0 and the bound holds with room to spare. The point of
/// this experiment is that the bound's floor still orders correctly with
/// T0 and is never violated; `fig2a` covers the nonzero-floor regime
/// (per-node curvature variation).
fn quad_federation(nodes: usize, r: f64) -> Vec<SourceTask> {
    let data: Vec<NodeData> = (0..nodes)
        .map(|id| {
            let angle = 2.0 * std::f64::consts::PI * id as f64 / nodes as f64;
            let c = [r * angle.cos(), r * angle.sin()];
            let rows: Vec<Vec<f64>> = (0..4).map(|_| c.to_vec()).collect();
            let refs: Vec<&[f64]> = rows.iter().map(|v| v.as_slice()).collect();
            NodeData {
                id,
                batch: Batch::regression(Matrix::from_rows(&refs).unwrap(), vec![0.0; 4]).unwrap(),
            }
        })
        .collect();
    SourceTask::from_nodes_deterministic(&data, 2)
}

fn main() {
    let args = ExpArgs::parse();
    let nodes = 8;
    let radius = 1.0;
    let alpha = 0.2;
    let beta = 0.3;
    let rounds_budget = args.scale(200, 40);
    let theta0 = vec![3.0, 3.0];

    let model = Quadratic::isotropic(2, 1.0);
    let tasks = quad_federation(nodes, radius);

    // Exact constants: μ = H = 1, ρ = 0, σ_i = 0, δ_i = ‖x̄_i − 0‖ = r.
    // B bounds ‖∇L_i‖ = ‖θ − x̄_i‖ over the iterates; ‖θ‖ ≤ ‖θ0‖ here.
    let b = fml_linalg::vector::norm2(&theta0) + radius;
    let pc = ProblemConstants {
        mu: 1.0,
        smoothness: 1.0,
        grad_bound: b,
        hessian_lipschitz: 0.0,
        delta: vec![radius; nodes],
        sigma: vec![0.0; nodes],
    };
    let mc = MetaConstants::from_lemma1(&pc, alpha).expect("alpha admissible");
    let g_star = weighted_meta_loss(&model, &tasks, &[0.0, 0.0], alpha);
    let g_0 = weighted_meta_loss(&model, &tasks, &theta0, alpha);

    let mut exp = Experiment::new(
        "theory_check",
        "Theorem 2 bound vs measured gap (quadratic federation)",
        "iteration",
        "G(theta_t) - G(theta*)",
    );
    exp.note(format!(
        "mu=H=1, rho=0, delta_i={radius}, alpha={alpha}, beta={beta}, xi={:.4}",
        mc.xi(beta)
    ));

    let mut violations = 0usize;
    for t0 in [1usize, 5, 10] {
        let rounds = rounds_budget / t0.max(1);
        let cfg = FedMlConfig::new(alpha, beta)
            .with_local_steps(t0)
            .with_rounds(rounds);
        let out = FedMl::new(cfg).train_from(&model, &tasks, &theta0);
        let bound = TheoremTwoBound {
            constants: pc.clone(),
            meta: mc,
            alpha,
            beta,
            t0,
            c: 2.0,
            weights: tasks.iter().map(|t| t.weight).collect(),
        };
        let curve = out.aggregation_curve();
        let x: Vec<f64> = curve.iter().map(|&(i, _)| i as f64).collect();
        let measured: Vec<f64> = curve.iter().map(|&(_, g)| (g - g_star).max(0.0)).collect();
        let predicted: Vec<f64> = curve
            .iter()
            .map(|&(i, _)| bound.bound(i, g_0 - g_star))
            .collect();
        violations += measured
            .iter()
            .zip(&predicted)
            .filter(|&(m, p)| *m > *p + 1e-9)
            .count();
        exp.note(format!(
            "T0={t0}: final measured {:.6}, final bound {:.6}, floor {:.6}",
            measured.last().copied().unwrap_or(f64::NAN),
            predicted.last().copied().unwrap_or(f64::NAN),
            bound.error_floor()
        ));
        exp.push_series(Series::new(
            format!("measured(T0={t0})"),
            x.clone(),
            measured,
        ));
        exp.push_series(Series::new(format!("bound(T0={t0})"), x, predicted));
    }

    exp.note(format!("bound violations across all points: {violations}"));
    assert_eq!(
        violations, 0,
        "Theorem 2 bound must hold at every aggregation"
    );
    exp.finish(&args);
}
