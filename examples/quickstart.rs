//! Quickstart: train a meta-model across simulated edge nodes with FedML
//! (Algorithm 1 of the paper) and fast-adapt it at a held-out target node
//! with just K = 5 samples.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fedml_rs::prelude::*;
use fml_data::synthetic::SyntheticConfig;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // 1. A federation of 20 edge nodes with related-but-distinct tasks.
    let federation = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(20)
        .with_dim(20)
        .with_classes(5)
        .with_mean_samples(24.0)
        .generate(&mut rng);
    println!("federation: {}", federation.name());
    let stats = federation.stats();
    println!(
        "  {} nodes, {:.1} ± {:.1} samples/node",
        stats.nodes, stats.mean_samples, stats.stdev_samples
    );

    // 2. 80% of nodes meta-train; 20% are future "target" devices.
    let (sources, targets) = federation.split_sources_targets(0.8, &mut rng);
    let k = 5;
    let tasks = SourceTask::from_nodes(&sources, k, &mut rng);

    // 3. Federated meta-learning: T0 = 5 local steps per round.
    let model = SoftmaxRegression::new(federation.dim(), federation.classes()).with_l2(1e-3);
    let config = FedMlConfig::new(0.1, 0.05)
        .with_local_steps(5)
        .with_rounds(60);
    let output = FedMl::new(config).train(&model, &tasks, &mut rng);
    println!(
        "trained {} rounds; meta loss {:.4} -> {:.4}",
        output.comm_rounds,
        output.history.first().map_or(f64::NAN, |r| r.meta_loss),
        output.history.last().map_or(f64::NAN, |r| r.meta_loss),
    );

    // 4. Real-time edge intelligence: adapt at each target with K samples
    //    and a single gradient step (eq. 6), then evaluate.
    for node in &targets {
        let split = TaskSplit::sample(&node.batch, k, &mut rng);
        let before_acc = model.accuracy(&output.params, &split.test);
        let adapted = adapt::adapt(&model, &output.params, &split.train, 0.1, 1);
        let after_acc = model.accuracy(&adapted, &split.test);
        println!(
            "target node {:>2}: accuracy {:.3} -> {:.3} after ONE gradient step on {k} samples",
            node.id, before_acc, after_acc
        );
    }

    // 5. The same protocol with more adaptation steps, averaged over all
    //    targets (the paper's Figure 3 protocol).
    let eval = adapt::evaluate_targets(&model, &output.params, &targets, k, 0.1, 10, &mut rng);
    println!(
        "mean over {} targets after 10 steps: accuracy {:.3}, loss {:.4}",
        eval.targets,
        eval.final_accuracy(),
        eval.final_loss()
    );
}
