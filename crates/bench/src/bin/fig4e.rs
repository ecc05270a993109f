//! Figure 4(e) — impact of the FGSM perturbation budget ξ.
//!
//! Sweeps ξ and reports adversarial target accuracy for FedML and Robust
//! FedML (λ = 1, fresh generation; see fig4's doc for why), plus the
//! improvement of Robust FedML over FedML.
//! Expected shape: both degrade as ξ grows, and "the improvement of
//! Robust FedML over FedML is higher with more perturbed data".

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{adapt, FedMl, FedMlConfig, LocalStepper, RobustFedMl, RobustFedMlConfig};
use fml_dro::attack::BoxConstraint;
use fml_models::Model;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let rounds = args.scale(60, 5);
    let steps = 5;
    let clamp = BoxConstraint::Clamp { lo: 0.0, hi: 1.0 };

    let setup = fml_bench::workloads::mnist(k, args.quick, args.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
    let theta0 = setup.model.init_params(&mut rng);

    let fedml = FedMl::new(
        FedMlConfig::new(0.3, 0.05)
            .with_local_steps(5)
            .with_rounds(rounds),
    )
    .train_from(&setup.model, &setup.tasks, &theta0);
    let mut train_rng = rand::rngs::StdRng::seed_from_u64(args.seed + 300);
    let robust = RobustFedMl::new(
        RobustFedMlConfig::new(0.3, 0.05, 1.0)
            .with_local_steps(5)
            .with_rounds(rounds)
            .with_adversarial(1.0, args.scale(10, 3), 1, args.scale(10, 3))
            .with_constraint(clamp),
    )
    .train_from(&setup.model, &setup.tasks, &theta0, &mut train_rng);

    let xis = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4];
    let mut acc_fedml = Vec::new();
    let mut acc_robust = Vec::new();
    for &xi in &xis {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(args.seed + 500);
        let a = adapt::evaluate_targets_adversarial(
            &setup.model,
            &fedml.params,
            &setup.targets,
            k,
            0.3,
            steps,
            xi,
            clamp,
            &mut r1,
        );
        let mut r2 = rand::rngs::StdRng::seed_from_u64(args.seed + 500);
        let b = adapt::evaluate_targets_adversarial(
            &setup.model,
            &robust.params,
            &setup.targets,
            k,
            0.3,
            steps,
            xi,
            clamp,
            &mut r2,
        );
        acc_fedml.push(a.final_accuracy());
        acc_robust.push(b.final_accuracy());
    }

    let xv: Vec<f64> = xis.to_vec();
    let improvement: Vec<f64> = acc_robust
        .iter()
        .zip(&acc_fedml)
        .map(|(r, f)| r - f)
        .collect();
    let mut exp = Experiment::new(
        "fig4e",
        "Impact of FGSM xi: Robust FedML (lambda=1) vs FedML",
        "xi",
        "adversarial target accuracy",
    );
    exp.note(format!(
        "T0=5, K={k}, {steps} adaptation steps, rounds={rounds}"
    ));
    exp.push_series(Series::new("FedML", xv.clone(), acc_fedml));
    exp.push_series(Series::new("RobustFedML", xv.clone(), acc_robust));
    exp.push_series(Series::new("improvement", xv, improvement));
    exp.finish(&args);
}
