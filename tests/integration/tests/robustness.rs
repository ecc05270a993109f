//! Robust FedML integration: the DRO-trained initialization must resist
//! FGSM attacks better than plain FedML after fast adaptation, and the
//! λ dial must trade robustness against clean accuracy monotonically
//! enough to reproduce Figure 4's shape.

use fml_core::{adapt, FedMl, FedMlConfig, LocalStepper, RobustFedMl, RobustFedMlConfig, SourceTask};
use fml_data::mnist_like::MnistLikeConfig;
use fml_dro::attack::BoxConstraint;
use fml_models::{Model, SoftmaxRegression};
use rand::SeedableRng;

struct Setup {
    model: SoftmaxRegression,
    tasks: Vec<SourceTask>,
    targets: Vec<fml_data::NodeData>,
    theta0: Vec<f64>,
}

fn setup(seed: u64) -> Setup {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let fed = MnistLikeConfig::new()
        .with_nodes(20)
        .with_dim(25)
        .with_mean_samples(30.0)
        .generate(&mut rng);
    let (sources, targets) = fed.split_sources_targets(0.8, &mut rng);
    let tasks = SourceTask::from_nodes(&sources, 5, &mut rng);
    let model = SoftmaxRegression::new(25, 10).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    Setup {
        model,
        tasks,
        targets,
        theta0,
    }
}

fn train_robust(s: &Setup, lambda: f64, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    RobustFedMl::new(
        RobustFedMlConfig::new(0.05, 0.05, lambda)
            .with_local_steps(5)
            .with_rounds(30)
            .with_adversarial(1.0, 10, 2, 2),
    )
    .train_from(&s.model, &s.tasks, &s.theta0, &mut rng)
    .params
}

fn train_plain(s: &Setup) -> Vec<f64> {
    FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_local_steps(5)
            .with_rounds(30),
    )
    .train_from(&s.model, &s.tasks, &s.theta0)
    .params
}

fn attacked_accuracy(s: &Setup, params: &[f64], xi: f64, seed: u64) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    adapt::evaluate_targets_adversarial(
        &s.model,
        params,
        &s.targets,
        5,
        0.05,
        5,
        xi,
        BoxConstraint::Clamp { lo: 0.0, hi: 1.0 },
        &mut rng,
    )
    .final_accuracy()
}

fn clean_accuracy(s: &Setup, params: &[f64], seed: u64) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    adapt::evaluate_targets(&s.model, params, &s.targets, 5, 0.05, 5, &mut rng).final_accuracy()
}

#[test]
fn robust_beats_plain_under_attack() {
    let s = setup(0);
    let plain = train_plain(&s);
    let robust = train_robust(&s, 0.5, 1);
    // ξ = 0.1 is strong enough to cost the plain model ~20 points of
    // accuracy yet weak enough that a robust initialization can actually
    // resist it — at ξ ≳ 0.3 FGSM zeroes out any linear model and the
    // comparison is pure noise. Average over eval seeds to keep the
    // margin well clear of K-shot sampling variance.
    let xi = 0.1;
    let (mut plain_adv, mut robust_adv) = (0.0, 0.0);
    let eval_seeds = [2, 3, 4];
    for &seed in &eval_seeds {
        plain_adv += attacked_accuracy(&s, &plain, xi, seed);
        robust_adv += attacked_accuracy(&s, &robust, xi, seed);
    }
    plain_adv /= eval_seeds.len() as f64;
    robust_adv /= eval_seeds.len() as f64;
    assert!(
        robust_adv >= plain_adv,
        "robust init should resist FGSM at least as well: {robust_adv} vs {plain_adv}"
    );
}

#[test]
fn robust_clean_accuracy_not_destroyed() {
    // "without significantly sacrificing the learning accuracy" — allow a
    // modest clean-accuracy cost.
    let s = setup(3);
    let plain = train_plain(&s);
    let robust = train_robust(&s, 0.5, 4);
    let pc = clean_accuracy(&s, &plain, 5);
    let rc = clean_accuracy(&s, &robust, 5);
    assert!(
        rc >= pc - 0.15,
        "robust training should not destroy clean accuracy: {rc} vs {pc}"
    );
}

#[test]
fn attack_strength_degrades_accuracy_monotonically_in_aggregate() {
    let s = setup(6);
    let plain = train_plain(&s);
    let weak = attacked_accuracy(&s, &plain, 0.05, 7);
    let strong = attacked_accuracy(&s, &plain, 0.5, 7);
    assert!(
        strong <= weak + 1e-9,
        "stronger FGSM should not improve accuracy: xi=0.05 -> {weak}, xi=0.5 -> {strong}"
    );
}

#[test]
fn zero_attack_equals_clean_evaluation() {
    let s = setup(8);
    let plain = train_plain(&s);
    let clean = clean_accuracy(&s, &plain, 9);
    let zero_attack = attacked_accuracy(&s, &plain, 0.0, 9);
    assert!(
        (clean - zero_attack).abs() < 1e-12,
        "xi = 0 must equal clean evaluation: {clean} vs {zero_attack}"
    );
}
