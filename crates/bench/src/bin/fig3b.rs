//! Figure 3(b) — impact of target–source similarity on test performance.
//!
//! FedML is trained on three federations of increasing node
//! dissimilarity; each model is then fast-adapted at that federation's
//! held-out target nodes. Expected shape: the most homogeneous federation
//! yields the best post-adaptation test loss — "FedML achieves the best
//! adaptation performance on Synthetic(0,0) where the nodes are the most
//! similar" (Theorem 3: the gap scales with ‖θ_t* − θ_c*‖).
//!
//! Deviation from the paper (recorded in EXPERIMENTS.md): the similarity
//! axis uses the shared-base generator `SharedSynthetic(dev, 0)` varying
//! only the model deviation. The paper-exact Synthetic(α̃, β̃) knob does
//! not move task similarity (α̃ cancels in the labels) and its β̃ input
//! shift collapses per-node label entropy, which makes K-shot adaptation
//! *easier* on the "less similar" datasets and would invert the figure.

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{adapt, FedMl, FedMlConfig, LocalStepper};
use fml_models::Model;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let rounds = args.scale(60, 6);
    let max_steps = 10;

    let mut exp = Experiment::new(
        "fig3b",
        "Impact of target-source similarity on test performance",
        "adaptation steps",
        "test loss at target",
    );
    exp.note(format!("T0=5, alpha=beta=0.01, K={k}, rounds={rounds}"));

    for dev in [0.0, 0.5, 1.0] {
        let setup = fml_bench::workloads::shared_synthetic(dev, 0.0, k, args.quick, args.seed);
        let cfg = FedMlConfig::new(0.01, 0.01)
            .with_local_steps(5)
            .with_rounds(rounds);
        let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
        let theta0 = setup.model.init_params(&mut rng);
        let out = FedMl::new(cfg).train_from(&setup.model, &setup.tasks, &theta0);

        let mut eval_rng = rand::rngs::StdRng::seed_from_u64(args.seed + 200);
        let eval = adapt::evaluate_targets(
            &setup.model,
            &out.params,
            &setup.targets,
            k,
            0.01,
            max_steps,
            &mut eval_rng,
        );
        let x: Vec<f64> = eval.curve.iter().map(|p| p.steps as f64).collect();
        let y: Vec<f64> = eval.curve.iter().map(|p| p.loss).collect();
        exp.note(format!(
            "SharedSynthetic({dev},0): final target loss {:.4}, accuracy {:.3}",
            eval.final_loss(),
            eval.final_accuracy()
        ));
        exp.push_series(Series::new(format!("dev={dev}"), x, y));
    }

    exp.finish(&args);
}
