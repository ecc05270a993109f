//! Figure 3(a) — convergence of FedML on the Sent140-like dataset
//! (non-convex MLP), α = 0.01, β = 0.3, T0 = 5.
//!
//! Expected shape: the meta training loss decreases and flattens — FedML
//! "also achieves good convergence performance in practical non-convex
//! settings".

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{FedMl, FedMlConfig, LocalStepper};
use fml_models::Model;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let rounds = args.scale(40, 5);

    let setup = fml_bench::workloads::sent140(k, args.quick, args.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
    let theta0 = setup.model.init_params(&mut rng);

    let cfg = FedMlConfig::new(0.01, 0.3)
        .with_local_steps(5)
        .with_rounds(rounds);
    let out = FedMl::new(cfg).train_from(&setup.model, &setup.tasks, &theta0);

    let curve = out.aggregation_curve();
    let mut exp = Experiment::new(
        "fig3a",
        "Convergence of FedML on Sent140-like (non-convex MLP)",
        "iteration",
        "meta training loss G(theta_t)",
    );
    exp.note(format!(
        "alpha=0.01, beta=0.3, T0=5, K={k}, {} source users, MLP {} params",
        setup.tasks.len(),
        setup.model.param_len()
    ));
    exp.push_series(Series::new(
        "FedML",
        curve.iter().map(|&(i, _)| i as f64).collect(),
        curve.iter().map(|&(_, g)| g).collect(),
    ));
    exp.note(format!(
        "loss {:.4} -> {:.4}",
        curve.first().map(|&(_, g)| g).unwrap_or(f64::NAN),
        curve.last().map(|&(_, g)| g).unwrap_or(f64::NAN)
    ));
    exp.finish(&args);
}
