//! X5 — adaptive aggregation frequency vs fixed `T0`.
//!
//! Runs FedML under the same iteration budget on a simulated edge network
//! with (a) every fixed `T0` and (b) the divergence-targeting controller
//! of `fml_runtime::run_adaptive_fedml`. Reports final meta loss and
//! payload bytes.
//! Expected shape: the adaptive run lands near the loss of small fixed
//! `T0` at a fraction of the bytes — the trade the paper says the
//! platform should make "depending on the task similarity".

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{FedMl, FedMlConfig};
use fml_models::Model;
use fml_runtime::{run_adaptive_fedml, SimRunner};
use fml_sim::{AdaptiveT0Config, SimConfig};
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let total_t = args.scale(200, 40);
    let setup = fml_bench::workloads::synthetic(0.5, 0.5, k, args.quick, args.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
    let theta0 = setup.model.init_params(&mut rng);
    let sim = SimConfig::edge().with_iteration_time(0.02);

    let mut labels: Vec<f64> = Vec::new();
    let mut losses = Vec::new();
    let mut mbytes = Vec::new();
    let mut exp = Experiment::new(
        "adaptive_t0",
        "Adaptive aggregation frequency vs fixed T0 (same iteration budget)",
        "config (T0, or -1 = adaptive)",
        "see series",
    );
    exp.note(format!(
        "Synthetic(0.5,0.5), T={total_t}, alpha=beta=0.01, edge links"
    ));

    for &t0 in &[1usize, 5, 20] {
        let cfg = FedMlConfig::new(0.01, 0.01)
            .with_local_steps(t0)
            .with_total_iterations(total_t);
        let mut r = rand::rngs::StdRng::seed_from_u64(args.seed + 7);
        let out = SimRunner::new(sim).run(
            &FedMl::new(cfg),
            &setup.model,
            &setup.tasks,
            &theta0,
            &mut r,
        );
        let loss = out.history.last().map(|&(_, g)| g).unwrap_or(f64::NAN);
        exp.note(format!(
            "fixed T0={t0}: loss {loss:.4}, {:.2} MB",
            out.comm.total_bytes() as f64 / 1e6
        ));
        labels.push(t0 as f64);
        losses.push(loss);
        mbytes.push(out.comm.total_bytes() as f64 / 1e6);
    }

    // Adaptive controller: target calibrated as a small relative drift.
    let ctrl = AdaptiveT0Config::new(1, 20, 0.06).with_initial(1);
    let fedml = FedMl::new(FedMlConfig::new(0.01, 0.01));
    let mut r = rand::rngs::StdRng::seed_from_u64(args.seed + 7);
    let out = run_adaptive_fedml(
        &sim,
        &ctrl,
        &fedml,
        &setup.model,
        &setup.tasks,
        &theta0,
        total_t,
        &mut r,
    );
    let loss = out.history.last().map(|&(_, g)| g).unwrap_or(f64::NAN);
    exp.note(format!(
        "adaptive: loss {loss:.4}, {:.2} MB, T0 trace {:?}",
        out.comm.total_bytes() as f64 / 1e6,
        out.t0_trace
    ));
    labels.push(-1.0);
    losses.push(loss);
    mbytes.push(out.comm.total_bytes() as f64 / 1e6);

    exp.push_series(Series::new("final meta loss", labels.clone(), losses));
    exp.push_series(Series::new("payload MB", labels, mbytes));
    exp.finish(&args);
}
