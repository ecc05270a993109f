//! FedAvg vs FedML on a simulated edge network.
//!
//! Trains both algorithms over the platform simulator (lossy
//! asymmetric links, 10% node dropout, 20% stragglers at quarter speed)
//! and compares (a) fast-adaptation quality at held-out targets and
//! (b) what each run cost in bytes and simulated wall clock — the
//! systems half of the paper's argument.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fedavg_vs_fedml
//! ```

use fedml_rs::prelude::*;
use fml_data::synthetic::SyntheticConfig;
use fml_runtime::SimRunner;
use fml_sim::SimConfig;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let k = 5;

    let federation = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(24)
        .with_dim(20)
        .with_classes(5)
        .with_mean_samples(24.0)
        .generate(&mut rng);
    let (sources, targets) = federation.split_sources_targets(0.8, &mut rng);
    let tasks = SourceTask::from_nodes(&sources, k, &mut rng);
    let model = SoftmaxRegression::new(federation.dim(), federation.classes()).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);

    let sim = SimRunner::new(
        SimConfig::edge()
            .with_dropout(0.1)
            .with_stragglers(0.2, 0.25)
            .with_iteration_time(0.02),
    );

    let fedml_cfg = FedMlConfig::new(0.01, 0.01)
        .with_local_steps(5)
        .with_rounds(60);
    let mut r1 = rand::rngs::StdRng::seed_from_u64(17);
    let fedml = sim.run(&FedMl::new(fedml_cfg), &model, &tasks, &theta0, &mut r1);

    let fedavg_cfg = FedAvgConfig::new(0.01).with_local_steps(5).with_rounds(60);
    let mut r2 = rand::rngs::StdRng::seed_from_u64(17);
    let fedavg = sim.run(&FedAvg::new(fedavg_cfg), &model, &tasks, &theta0, &mut r2);

    for (name, out) in [("FedML ", &fedml), ("FedAvg", &fedavg)] {
        println!(
            "{name}: {:.2} MB payload, {} msgs, {} retransmissions, {:.1}s simulated wall clock",
            out.comm.total_bytes() as f64 / 1e6,
            out.comm.messages,
            out.comm.retransmissions,
            out.wall_clock_s()
        );
    }

    println!(
        "\nfast adaptation at {} held-out targets (K = {k}):",
        targets.len()
    );
    println!("{:>6} {:>14} {:>14}", "steps", "FedML acc", "FedAvg acc");
    let mut e1 = rand::rngs::StdRng::seed_from_u64(23);
    let ml = adapt::evaluate_targets(&model, &fedml.params, &targets, k, 0.01, 10, &mut e1);
    let mut e2 = rand::rngs::StdRng::seed_from_u64(23);
    let avg = adapt::evaluate_targets(&model, &fedavg.params, &targets, k, 0.01, 10, &mut e2);
    for (a, b) in ml.curve.iter().zip(&avg.curve) {
        println!("{:>6} {:>14.3} {:>14.3}", a.steps, a.accuracy, b.accuracy);
    }
    println!(
        "\nFedML buys adaptation quality for one extra HVP per local step \
         ({} vs {} gradient-equivalent oracle calls).",
        fedml.compute.grad_evals + 2 * fedml.compute.hvp_evals,
        fedavg.compute.grad_evals
    );
}
