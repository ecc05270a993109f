//! Figure 4(a)–(d) — adaptation performance of Robust FedML on the
//! MNIST-like dataset, T0 = 5: loss and accuracy on clean and
//! FGSM-adversarial data, for FedML and Robust FedML with
//! λ ∈ {0.1, 1, 10}.
//!
//! Paper parameters: ν = 1, R = 2, N0 = 7, Ta = 10; transport cost
//! `‖x − x′‖² + ∞·1(y ≠ y′)`. Expected shape: smaller λ ⇒ slightly worse
//! clean performance, much better adversarial performance; λ = 10's
//! uncertainty set is "too small to positively affect the robustness".

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{adapt, FedMl, FedMlConfig, LocalStepper, RobustFedMl, RobustFedMlConfig};
use fml_dro::attack::BoxConstraint;
use fml_models::Model;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let rounds = args.scale(60, 5);
    let max_steps = 10;
    let xi = 0.1;
    let clamp = BoxConstraint::Clamp { lo: 0.0, hi: 1.0 };

    let setup = fml_bench::workloads::mnist(k, args.quick, args.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
    let theta0 = setup.model.init_params(&mut rng);

    // Train FedML and Robust FedML(λ) from the same initialization.
    let mut variants: Vec<(String, Vec<f64>)> = Vec::new();
    let fedml = FedMl::new(
        FedMlConfig::new(0.3, 0.05)
            .with_local_steps(5)
            .with_rounds(rounds),
    )
    .train_from(&setup.model, &setup.tasks, &theta0);
    variants.push(("FedML".into(), fedml.params));

    for lambda in [0.1, 1.0, 10.0] {
        let cfg = RobustFedMlConfig::new(0.3, 0.05, lambda)
            .with_local_steps(5)
            .with_rounds(rounds)
            .with_adversarial(1.0, args.scale(10, 3), 1, args.scale(10, 3))
            .with_constraint(clamp);
        let mut train_rng = rand::rngs::StdRng::seed_from_u64(args.seed + 300);
        let out =
            RobustFedMl::new(cfg).train_from(&setup.model, &setup.tasks, &theta0, &mut train_rng);
        variants.push((format!("Robust(l={lambda})"), out.params));
    }

    let mut figs = [
        Experiment::new(
            "fig4a",
            "Loss on clean data (MNIST-like targets)",
            "adaptation steps",
            "loss",
        ),
        Experiment::new(
            "fig4b",
            "Loss on adversarial data (FGSM)",
            "adaptation steps",
            "loss",
        ),
        Experiment::new(
            "fig4c",
            "Accuracy on clean data",
            "adaptation steps",
            "accuracy",
        ),
        Experiment::new(
            "fig4d",
            "Accuracy on adversarial data (FGSM)",
            "adaptation steps",
            "accuracy",
        ),
    ];
    for f in &mut figs {
        f.note(format!("T0=5, K={k}, alpha=0.3, beta=0.05, nu=1, N0=1, R=10, Ta=10, FGSM xi={xi}, rounds={rounds}"));
    }

    for (name, params) in &variants {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(args.seed + 400);
        let clean = adapt::evaluate_targets(
            &setup.model,
            params,
            &setup.targets,
            k,
            0.3,
            max_steps,
            &mut r1,
        );
        let mut r2 = rand::rngs::StdRng::seed_from_u64(args.seed + 400);
        let adv = adapt::evaluate_targets_adversarial(
            &setup.model,
            params,
            &setup.targets,
            k,
            0.3,
            max_steps,
            xi,
            clamp,
            &mut r2,
        );
        let x: Vec<f64> = clean.curve.iter().map(|p| p.steps as f64).collect();
        figs[0].push_series(Series::new(
            name.clone(),
            x.clone(),
            clean.curve.iter().map(|p| p.loss).collect(),
        ));
        figs[1].push_series(Series::new(
            name.clone(),
            x.clone(),
            adv.curve.iter().map(|p| p.loss).collect(),
        ));
        figs[2].push_series(Series::new(
            name.clone(),
            x.clone(),
            clean.curve.iter().map(|p| p.accuracy).collect(),
        ));
        figs[3].push_series(Series::new(
            name.clone(),
            x,
            adv.curve.iter().map(|p| p.accuracy).collect(),
        ));
        for f in &mut figs {
            f.note(format!(
                "{name}: clean acc {:.3}, adv acc {:.3}",
                clean.final_accuracy(),
                adv.final_accuracy()
            ));
        }
    }

    for f in &figs {
        f.finish(&args);
    }
}
