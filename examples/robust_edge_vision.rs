//! Adversarially robust edge vision with Robust FedML (Algorithm 2).
//!
//! Edge cameras classify digits (MNIST-like data, two digits per camera).
//! A plain FedML initialization is vulnerable to FGSM-perturbed inputs at
//! deployment; Robust FedML meta-trains against Wasserstein-ball
//! perturbations (λ controls the robustness/accuracy dial) so the adapted
//! model at a new camera resists the attack.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example robust_edge_vision
//! ```

use fedml_rs::prelude::*;
use fml_data::mnist_like::MnistLikeConfig;
use fml_dro::attack::BoxConstraint;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let k = 5;
    let xi = 0.25; // FGSM budget at deployment
    let clamp = BoxConstraint::Clamp { lo: 0.0, hi: 1.0 };

    let federation = MnistLikeConfig::new()
        .with_nodes(30)
        .with_dim(36)
        .with_mean_samples(30.0)
        .generate(&mut rng);
    let (sources, targets) = federation.split_sources_targets(0.8, &mut rng);
    let tasks = SourceTask::from_nodes(&sources, k, &mut rng);
    let model = SoftmaxRegression::new(federation.dim(), federation.classes()).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);

    // Plain FedML.
    let plain = FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_local_steps(5)
            .with_rounds(50),
    )
    .train_from(&model, &tasks, &theta0);

    // Robust FedML with a generous uncertainty set (small λ).
    let robust = RobustFedMl::new(
        RobustFedMlConfig::new(0.05, 0.05, 0.5)
            .with_local_steps(5)
            .with_rounds(50)
            .with_adversarial(1.0, 10, 2, 2),
    )
    .train_from(&model, &tasks, &theta0, &mut rng);

    println!(
        "evaluating at {} held-out cameras (K = {k}, FGSM xi = {xi}):",
        targets.len()
    );
    for (name, params) in [
        ("FedML      ", &plain.params),
        ("RobustFedML", &robust.params),
    ] {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(99);
        let clean = adapt::evaluate_targets(&model, params, &targets, k, 0.05, 5, &mut r1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(99);
        let attacked = adapt::evaluate_targets_adversarial(
            &model, params, &targets, k, 0.05, 5, xi, clamp, &mut r2,
        );
        println!(
            "  {name}: clean accuracy {:.3}, attacked accuracy {:.3} (clean loss {:.3}, attacked loss {:.3})",
            clean.final_accuracy(),
            attacked.final_accuracy(),
            clean.final_loss(),
            attacked.final_loss()
        );
    }
    println!(
        "smaller lambda ⇒ larger uncertainty set ⇒ more robustness, slightly lower clean accuracy."
    );
}
