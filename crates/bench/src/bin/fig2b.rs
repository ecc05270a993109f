//! Figure 2(b) — impact of the number of local update steps `T0` on FedML
//! convergence, Synthetic(0.5,0.5), fixed total iterations T = 500.
//!
//! Expected shape: for a fixed iteration budget the convergence error
//! grows with `T0` (Theorem 2's floor `B(1−αμ)/(1−ξ^{T0})·h(T0)` is
//! increasing in `T0`), while `T0 = 1` has no floor at all (Corollary 1).

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{FedMl, FedMlConfig, LocalStepper};
use fml_models::Model;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let total_t = args.scale(500, 60);

    let setup = fml_bench::workloads::synthetic(0.5, 0.5, k, args.quick, args.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
    let theta0 = setup.model.init_params(&mut rng);

    // Shared optimum estimate across all T0 settings (same objective).
    let base = FedMl::new(FedMlConfig::new(0.01, 0.01));
    let (_, g_star) =
        base.centralized_optimum(&setup.model, &setup.tasks, &theta0, args.scale(4000, 400));

    let mut exp = Experiment::new(
        "fig2b",
        "Impact of T0 on the convergence of FedML, Synthetic(0.5,0.5)",
        "iteration",
        "G(theta_t) - G(theta*)",
    );
    exp.note(format!(
        "T={total_t}, alpha=beta=0.01, K={k}, G*~{g_star:.4}"
    ));

    for t0 in [1usize, 2, 5, 10, 20] {
        let cfg = FedMlConfig::new(0.01, 0.01)
            .with_local_steps(t0)
            .with_total_iterations(total_t);
        let out = FedMl::new(cfg).train_from(&setup.model, &setup.tasks, &theta0);
        let curve = out.aggregation_curve();
        let x: Vec<f64> = curve.iter().map(|&(i, _)| i as f64).collect();
        let y: Vec<f64> = curve.iter().map(|&(_, g)| (g - g_star).max(0.0)).collect();
        exp.note(format!(
            "T0={t0}: final gap {:.6} after {} comm rounds",
            y.last().copied().unwrap_or(f64::NAN),
            out.comm_rounds
        ));
        exp.push_series(Series::new(format!("T0={t0}"), x, y));
    }

    exp.finish(&args);
}
