//! Adaptive platform: the aggregation-frequency controller in action.
//!
//! The paper observes that the platform should tune the number of local
//! steps `T0` "depending on the task similarity". This example runs the
//! divergence-targeting controller (`fml_runtime::run_adaptive_fedml`)
//! on two fleets — one with near-identical sensor tasks, one with widely
//! spread tasks — and shows the controller choosing very different
//! communication schedules for the same iteration budget.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example adaptive_platform
//! ```

use fedml_rs::prelude::*;
use fml_linalg::Matrix;
use fml_runtime::run_adaptive_fedml;
use fml_sim::{AdaptiveT0Config, SimConfig};
use rand::{Rng, SeedableRng};

/// Linear-regression fleet with ground truths `w_i = w0 + spread·z_i`.
fn fleet(nodes: usize, spread: f64, seed: u64) -> Vec<SourceTask> {
    let mut base = rand::rngs::StdRng::seed_from_u64(seed);
    let w0: Vec<f64> = (0..3).map(|_| base.gen::<f64>() * 2.0 - 1.0).collect();
    let data: Vec<NodeData> = (0..nodes)
        .map(|id| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 100 + id as u64);
            let wi: Vec<f64> = w0
                .iter()
                .map(|w| w + spread * (rng.gen::<f64>() - 0.5))
                .collect();
            let mut xs = Matrix::zeros(10, 2);
            let mut ys = Vec::new();
            for r in 0..10 {
                let a = rng.gen::<f64>() * 2.0 - 1.0;
                let b = rng.gen::<f64>() * 2.0 - 1.0;
                xs.set(r, 0, a);
                xs.set(r, 1, b);
                ys.push(wi[0] * a + wi[1] * b + wi[2]);
            }
            NodeData {
                id,
                batch: Batch::regression(xs, ys).expect("shapes match"),
            }
        })
        .collect();
    SourceTask::from_nodes_deterministic(&data, 5)
}

fn main() {
    let model = LinearRegression::new(2).with_l2(0.05);
    let fedml = FedMl::new(FedMlConfig::new(0.2, 0.3));
    let sim = SimConfig::edge().with_iteration_time(0.02);
    let ctrl = AdaptiveT0Config::new(1, 16, 0.05).with_initial(4);
    let budget = 120;

    for (name, spread) in [
        ("similar fleet (spread 0.1)", 0.1),
        ("diverse fleet (spread 4.0)", 4.0),
    ] {
        let tasks = fleet(12, spread, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let out = run_adaptive_fedml(
            &sim,
            &ctrl,
            &fedml,
            &model,
            &tasks,
            &[1.0; 3],
            budget,
            &mut rng,
        );
        println!("{name}:");
        println!("  T0 schedule: {:?}", out.t0_trace);
        println!(
            "  {} rounds for {budget} iterations, {:.2} KB payload, final loss {:.5}",
            out.t0_trace.len(),
            out.comm.total_bytes() as f64 / 1e3,
            out.history.last().map_or(f64::NAN, |&(_, g)| g)
        );
        println!(
            "  divergence: first {:.4}, last {:.4}\n",
            out.divergence_trace.first().unwrap_or(&f64::NAN),
            out.divergence_trace.last().unwrap_or(&f64::NAN)
        );
    }
    println!("similar tasks ⇒ the controller stretches T0 and saves rounds;");
    println!("diverse tasks ⇒ it keeps T0 short to hold the divergence target.");
}
