//! Edge IoT fleet: collaborative sensor calibration.
//!
//! The paper's motivation is IoT devices that must make "intelligent
//! decisions in a real-time manner" with little local data. This example
//! plays that out concretely: a fleet of deployed temperature sensors,
//! each with its own drift (gain `a_i` and offset `b_i` against a
//! reference instrument). Historical fleet sensors meta-train a
//! calibration initialization with FedML; a **newly installed sensor**
//! then calibrates itself from only K = 4 reference readings — the
//! "real-time edge intelligence" moment.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example edge_iot_fleet
//! ```

use fedml_rs::prelude::*;
use fml_linalg::Matrix;
use rand::{Rng, SeedableRng};

/// Generates one sensor's calibration dataset: raw readings `x` against
/// reference values `y = a·x + b + noise`, where `(a, b)` drift around
/// the fleet-typical `(1.05, -0.4)`.
fn sensor_node<R: Rng>(id: usize, samples: usize, rng: &mut R) -> (NodeData, f64, f64) {
    let a = 1.05 + 0.1 * (rng.gen::<f64>() - 0.5);
    let b = -0.4 + 0.3 * (rng.gen::<f64>() - 0.5);
    let mut xs = Matrix::zeros(samples, 1);
    let mut ys = Vec::with_capacity(samples);
    for r in 0..samples {
        let raw = 15.0 + 15.0 * rng.gen::<f64>(); // 15–30 °C
        xs.set(r, 0, raw / 30.0); // normalize to ~[0.5, 1]
        ys.push(a * (raw / 30.0) + b + 0.01 * (rng.gen::<f64>() - 0.5));
    }
    (
        NodeData {
            id,
            batch: Batch::regression(xs, ys).expect("shapes match"),
        },
        a,
        b,
    )
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let k = 4;

    // 30 fleet sensors with drift; the 31st is the fresh install.
    let mut nodes = Vec::new();
    for id in 0..30 {
        let (node, _, _) = sensor_node(id, 24, &mut rng);
        nodes.push(node);
    }
    let (new_sensor, true_a, true_b) = sensor_node(30, 40, &mut rng);

    let model = LinearRegression::new(1).with_l2(1e-4);
    let tasks = SourceTask::from_nodes(&nodes, k, &mut rng);

    println!("meta-training calibration model across 30 fleet sensors…");
    let config = FedMlConfig::new(0.5, 0.2)
        .with_local_steps(5)
        .with_rounds(40);
    let out = FedMl::new(config).train(&model, &tasks, &mut rng);
    println!(
        "  meta loss {:.5} -> {:.5} over {} rounds",
        out.history.first().map_or(f64::NAN, |r| r.meta_loss),
        out.history.last().map_or(f64::NAN, |r| r.meta_loss),
        out.comm_rounds
    );

    // New sensor calibrates from K reference readings, one gradient step.
    let split = TaskSplit::sample(&new_sensor.batch, k, &mut rng);
    let before = model.loss(&out.params, &split.test);
    let calibrated = adapt::adapt(&model, &out.params, &split.train, 0.5, 1);
    let after_1 = model.loss(&calibrated, &split.test);
    let calibrated5 = adapt::adapt(&model, &out.params, &split.train, 0.5, 5);
    let after_5 = model.loss(&calibrated5, &split.test);

    println!("new sensor ground truth: gain {true_a:.3}, offset {true_b:.3}");
    println!(
        "  meta-init:   w = {:.3}, b = {:.3}",
        out.params[0], out.params[1]
    );
    println!(
        "  1-step:      w = {:.3}, b = {:.3}",
        calibrated[0], calibrated[1]
    );
    println!(
        "  5-step:      w = {:.3}, b = {:.3}",
        calibrated5[0], calibrated5[1]
    );
    println!("  test MSE: {before:.5} (no adaptation) -> {after_1:.5} (1 step) -> {after_5:.5} (5 steps)");
    assert!(after_5 <= before, "calibration should not hurt");
    println!("calibration complete with only {k} reference readings.");
}
