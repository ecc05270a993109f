//! X2 — ablation: full second-order meta-gradient (FedML) vs first-order
//! approximation (FOMAML) vs Reptile vs FedProx vs FedAvg on
//! Synthetic(0.5,0.5).
//!
//! Reports target-adaptation accuracy after each adaptation step, plus
//! each algorithm's oracle cost per local iteration, quantifying the
//! "HVP is worth it?" design question DESIGN.md calls out.

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{
    adapt, FedAvg, FedAvgConfig, FedMl, FedMlConfig, FedProx, FedProxConfig, LocalStepper,
    MetaGradientMode, MetaSgd, MetaSgdConfig, Reptile, ReptileConfig, SourceTask, TrainOutput,
};
use fml_data::NodeData;
use fml_models::Model;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let t0 = 5;
    let rounds = args.scale(80, 6);
    let max_steps = 10;
    let setup = fml_bench::workloads::synthetic(0.5, 0.5, k, args.quick, args.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
    let theta0 = setup.model.init_params(&mut rng);

    let run = |name: &str, out: TrainOutput, exp: &mut Experiment, targets: &[NodeData]| {
        let mut eval_rng = rand::rngs::StdRng::seed_from_u64(args.seed + 200);
        let eval = adapt::evaluate_targets(
            &setup.model,
            &out.params,
            targets,
            k,
            0.1,
            max_steps,
            &mut eval_rng,
        );
        exp.note(format!(
            "{name}: final target accuracy {:.3}, loss {:.4}, {} comm rounds",
            eval.final_accuracy(),
            eval.final_loss(),
            out.comm_rounds
        ));
        exp.push_series(Series::new(
            name,
            eval.curve.iter().map(|p| p.steps as f64).collect(),
            eval.curve.iter().map(|p| p.accuracy).collect(),
        ));
    };

    let mut exp = Experiment::new(
        "ablation_fo",
        "Second-order vs first-order meta-learning and FL baselines",
        "adaptation steps",
        "target accuracy",
    );
    exp.note(format!(
        "Synthetic(0.5,0.5), T0={t0}, rounds={rounds}, K={k}, alpha=0.1, beta=0.05"
    ));
    exp.note(
        "oracle cost/iter: FedML 2 grad + 1 HVP; FOMAML 2 grad; Reptile/FedProx/FedAvg 1 grad",
    );

    let tasks: &[SourceTask] = &setup.tasks;
    let fedml = FedMl::new(
        FedMlConfig::new(0.1, 0.05)
            .with_local_steps(t0)
            .with_rounds(rounds),
    );
    run(
        "FedML",
        fedml.train_from(&setup.model, tasks, &theta0),
        &mut exp,
        &setup.targets,
    );

    let fomaml = FedMl::new(
        FedMlConfig::new(0.1, 0.05)
            .with_local_steps(t0)
            .with_rounds(rounds)
            .with_mode(MetaGradientMode::FirstOrder),
    );
    run(
        "FOMAML",
        fomaml.train_from(&setup.model, tasks, &theta0),
        &mut exp,
        &setup.targets,
    );

    let reptile = Reptile::new(
        ReptileConfig::new(0.1, 0.5)
            .with_inner_steps(t0)
            .with_rounds(rounds),
    );
    run(
        "Reptile",
        reptile.train_from(&setup.model, tasks, &theta0),
        &mut exp,
        &setup.targets,
    );

    let fedprox = FedProx::new(
        FedProxConfig::new(0.05, 0.1)
            .with_local_steps(t0)
            .with_rounds(rounds),
    );
    run(
        "FedProx",
        fedprox.train_from(&setup.model, tasks, &theta0),
        &mut exp,
        &setup.targets,
    );

    let metasgd = MetaSgd::new(
        MetaSgdConfig::new(0.1, 0.05)
            .with_local_steps(t0)
            .with_rounds(rounds),
    );
    run(
        "MetaSGD",
        metasgd.train_from(&setup.model, tasks, &theta0).train,
        &mut exp,
        &setup.targets,
    );

    let fedavg = FedAvg::new(
        FedAvgConfig::new(0.05)
            .with_local_steps(t0)
            .with_rounds(rounds),
    );
    run(
        "FedAvg",
        fedavg.train_from(&setup.model, tasks, &theta0),
        &mut exp,
        &setup.targets,
    );

    // Sanity that every trainer exposes its name for logs.
    exp.note(format!(
        "trainers: {} {} {} {}",
        fedml.algorithm(),
        reptile.algorithm(),
        fedprox.algorithm(),
        fedavg.algorithm()
    ));
    exp.finish(&args);
}
