//! End-to-end pipeline tests: dataset generation → federated
//! meta-training → fast adaptation at held-out targets, asserting the
//! paper's headline qualitative claims on small-but-real workloads.

use fml_core::{
    adapt, FedAvg, FedAvgConfig, FedMl, FedMlConfig, LocalStepper, MetaGradientMode, SourceTask,
};
use fml_data::shared_synthetic::SharedSyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use rand::SeedableRng;

struct Pipeline {
    model: SoftmaxRegression,
    tasks: Vec<SourceTask>,
    targets: Vec<fml_data::NodeData>,
    theta0: Vec<f64>,
}

fn pipeline(model_dev: f64, input_dev: f64, seed: u64) -> Pipeline {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let fed = SharedSyntheticConfig::new(model_dev, input_dev)
        .with_nodes(16)
        .with_dim(12)
        .with_classes(4)
        .with_mean_samples(24.0)
        .generate(&mut rng);
    let (sources, targets) = fed.split_sources_targets(0.75, &mut rng);
    let tasks = SourceTask::from_nodes(&sources, 5, &mut rng);
    let model = SoftmaxRegression::new(12, 4).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    Pipeline {
        model,
        tasks,
        targets,
        theta0,
    }
}

#[test]
fn fedml_meta_loss_decreases_on_synthetic() {
    let p = pipeline(0.5, 0.5, 0);
    let out = FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_local_steps(5)
            .with_rounds(30),
    )
    .train_from(&p.model, &p.tasks, &p.theta0);
    let first = out.history.first().unwrap().meta_loss;
    let last = out.history.last().unwrap().meta_loss;
    assert!(
        last < 0.7 * first,
        "meta loss should drop substantially: {first} -> {last}"
    );
}

#[test]
fn meta_trained_init_adapts_better_than_random_init() {
    let p = pipeline(0.5, 0.5, 1);
    let out = FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_local_steps(5)
            .with_rounds(40),
    )
    .train_from(&p.model, &p.tasks, &p.theta0);

    let mut r1 = rand::rngs::StdRng::seed_from_u64(2);
    let trained = adapt::evaluate_targets(&p.model, &out.params, &p.targets, 5, 0.05, 5, &mut r1);
    let mut r2 = rand::rngs::StdRng::seed_from_u64(2);
    let random = adapt::evaluate_targets(&p.model, &p.theta0, &p.targets, 5, 0.05, 5, &mut r2);
    assert!(
        trained.final_loss() < random.final_loss(),
        "meta-trained init should adapt to lower loss: {} vs {}",
        trained.final_loss(),
        random.final_loss()
    );
}

#[test]
fn adaptation_improves_over_no_adaptation() {
    let p = pipeline(0.5, 0.5, 3);
    let out = FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_local_steps(5)
            .with_rounds(40),
    )
    .train_from(&p.model, &p.tasks, &p.theta0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let eval = adapt::evaluate_targets(&p.model, &out.params, &p.targets, 5, 0.05, 10, &mut rng);
    let start = eval.curve.first().unwrap();
    let end = eval.curve.last().unwrap();
    assert!(
        end.loss < start.loss,
        "adaptation steps should reduce target loss: {} -> {}",
        start.loss,
        end.loss
    );
}

#[test]
fn fedml_adapts_better_than_fedavg_on_heterogeneous_federation() {
    // The paper's central comparison (Figure 3(c)): on a heterogeneous
    // federation the meta-learned initialization adapts better at targets
    // than FedAvg's consensus model.
    let p = pipeline(1.0, 1.0, 5);
    let fedml = FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_local_steps(5)
            .with_rounds(60),
    )
    .train_from(&p.model, &p.tasks, &p.theta0);
    let fedavg = FedAvg::new(FedAvgConfig::new(0.05).with_local_steps(5).with_rounds(60))
        .train_from(&p.model, &p.tasks, &p.theta0);

    let mut r1 = rand::rngs::StdRng::seed_from_u64(6);
    let ml = adapt::evaluate_targets(&p.model, &fedml.params, &p.targets, 5, 0.05, 10, &mut r1);
    let mut r2 = rand::rngs::StdRng::seed_from_u64(6);
    let avg = adapt::evaluate_targets(&p.model, &fedavg.params, &p.targets, 5, 0.05, 10, &mut r2);
    assert!(
        ml.final_loss() <= avg.final_loss() * 1.05,
        "FedML should adapt at least as well as FedAvg: {} vs {}",
        ml.final_loss(),
        avg.final_loss()
    );
}

#[test]
fn first_order_mode_approximates_full_fedml() {
    // FOMAML should land close to full FedML at small α (the Jacobian
    // correction is O(α)).
    let p = pipeline(0.5, 0.5, 7);
    let full = FedMl::new(
        FedMlConfig::new(0.01, 0.05)
            .with_local_steps(5)
            .with_rounds(20),
    )
    .train_from(&p.model, &p.tasks, &p.theta0);
    let fo = FedMl::new(
        FedMlConfig::new(0.01, 0.05)
            .with_local_steps(5)
            .with_rounds(20)
            .with_mode(MetaGradientMode::FirstOrder),
    )
    .train_from(&p.model, &p.tasks, &p.theta0);
    let dist = fml_linalg::vector::dist2(&full.params, &fo.params);
    let scale = fml_linalg::vector::norm2(&full.params);
    assert!(
        dist / scale < 0.1,
        "FOMAML should stay within 10% of full FedML at small alpha: {}",
        dist / scale
    );
}

#[test]
fn homogeneous_federation_adapts_better_than_heterogeneous() {
    // Figure 3(b)'s claim: adaptation quality degrades with source-target
    // dissimilarity.
    // Vary only the model deviation; an input-mean shift also collapses
    // per-node label entropy (near-single-class nodes), which makes K-shot
    // adaptation *easier* and would confound the comparison.
    let run = |knob: f64, seed: u64| {
        let p = pipeline(knob, 0.0, seed);
        let out = FedMl::new(
            FedMlConfig::new(0.05, 0.05)
                .with_local_steps(5)
                .with_rounds(40),
        )
        .train_from(&p.model, &p.tasks, &p.theta0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 50);
        adapt::evaluate_targets(&p.model, &out.params, &p.targets, 5, 0.05, 10, &mut rng)
            .final_loss()
    };
    // Average over a few seeds to tame draw noise.
    let homo: f64 = (0..3).map(|s| run(0.0, 10 + s)).sum::<f64>() / 3.0;
    let hetero: f64 = (0..3).map(|s| run(2.0, 10 + s)).sum::<f64>() / 3.0;
    assert!(
        homo < hetero,
        "homogeneous federations should adapt better: {homo} vs {hetero}"
    );
}
