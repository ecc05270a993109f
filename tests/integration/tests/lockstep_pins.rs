//! Literal bit pins of every lockstep trainer's `train_from`: final
//! parameters **and** the whole recorded curve.
//!
//! Recorded at the commit *before* `LocalStepper` grew its provided
//! `train_from` — when each of `FedMl`/`FedAvg`/`FedProx`/`MetaSgd`
//! carried its own copy of the Algorithm-1 loop and wrote its step body
//! twice (once inline there, once in `local_update`). The one shared
//! driver must reproduce these digests; they are what keeps
//! `local_update` and `train_from` from drifting apart now that no
//! second copy of the step exists to compare against.
//!
//! The curve is recorded once per aggregation (`T0 = 4`: t = 4, 8, 12).
//! The pins were taken when the loop stepped one iteration at a time and
//! could also record between aggregations; the round-granular loop keeps
//! the aggregation-only digests bit for bit. The curve point was then
//! moved from the re-average of `n` copies of the global to the global
//! itself — equal in exact arithmetic — which re-recorded the two curve
//! digests it moved (FedML second order and Meta-SGD); the result still
//! re-averages, so no params digest moved.

use fml_core::{
    FedAvg, FedAvgConfig, FedMl, FedMlConfig, FedProx, FedProxConfig, LocalStepper,
    MetaGradientMode, MetaSgd, MetaSgdConfig, Reptile, ReptileConfig, SourceTask, TrainOutput,
};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::param_hash;
use rand::SeedableRng;

const T0: usize = 4;
const ROUNDS: usize = 3;

fn fixture() -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2020);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(6)
        .with_dim(5)
        .with_classes(3)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 4);
    let model = SoftmaxRegression::new(5, 3).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

/// Digest of the curve: `iteration`, `meta_loss`, `train_loss` and
/// `aggregated` of every record, in order.
fn history_hash(out: &TrainOutput) -> String {
    let flat: Vec<f64> = out
        .history
        .iter()
        .flat_map(|r| {
            [
                r.iteration as f64,
                r.meta_loss,
                r.train_loss,
                f64::from(u8::from(r.aggregated)),
            ]
        })
        .collect();
    param_hash(&flat)
}

/// The `(params, history)` digests.
type Pin = (&'static str, &'static str);

fn check(name: &str, (params, history): Pin, run: impl Fn(usize) -> TrainOutput) {
    for threads in [1usize, 4] {
        let out = run(threads);
        let at = format!("{name}, {threads} threads");
        assert_eq!(param_hash(&out.params), params, "params: {at}");
        assert_eq!(history_hash(&out), history, "history: {at}");
        assert_eq!(out.comm_rounds, ROUNDS, "{at}");
        assert_eq!(out.local_iterations, ROUNDS * T0, "{at}");
    }
}

fn fedml_cfg(mode: MetaGradientMode, threads: usize) -> FedMlConfig {
    FedMlConfig::new(0.05, 0.04)
        .with_local_steps(T0)
        .with_rounds(ROUNDS)
        .with_mode(mode)
        .with_threads(threads)
}

#[test]
fn fedml_second_order_curve_is_pinned() {
    let (model, tasks, theta0) = fixture();
    let pin = ("c4ff9054057480dc", "bb4718aed4e4ff52");
    check("fedml", pin, |threads| {
        let cfg = fedml_cfg(MetaGradientMode::FullSecondOrder, threads);
        FedMl::new(cfg).train_from(&model, &tasks, &theta0)
    });
}

#[test]
fn fedml_first_order_curve_is_pinned() {
    let (model, tasks, theta0) = fixture();
    let pin = ("4a8d8d39eb1b792b", "f49d84f9d10ef1e2");
    check("fomaml", pin, |threads| {
        let cfg = fedml_cfg(MetaGradientMode::FirstOrder, threads);
        FedMl::new(cfg).train_from(&model, &tasks, &theta0)
    });
}

#[test]
fn fedavg_curve_is_pinned() {
    let (model, tasks, theta0) = fixture();
    let pin = ("60f2d0286704d3d4", "4e939301047fbba4");
    check("fedavg", pin, |threads| {
        let cfg = FedAvgConfig {
            threads: Some(threads),
            ..FedAvgConfig::new(0.04)
                .with_local_steps(T0)
                .with_rounds(ROUNDS)
                .with_eval_alpha(0.05)
        };
        FedAvg::new(cfg).train_from(&model, &tasks, &theta0)
    });
}

#[test]
fn fedprox_curve_is_pinned() {
    let (model, tasks, theta0) = fixture();
    let pin = ("2162fbc38ccb989d", "53b48fcd298d26c9");
    check("fedprox", pin, |threads| {
        let cfg = FedProxConfig {
            threads: Some(threads),
            ..FedProxConfig::new(0.04, 0.5)
                .with_local_steps(T0)
                .with_rounds(ROUNDS)
        };
        FedProx::new(cfg).train_from(&model, &tasks, &theta0)
    });
}

#[test]
fn reptile_curve_is_pinned() {
    // One record per round, at θ itself.
    let (model, tasks, theta0) = fixture();
    let pin = ("6635f1d6550a0847", "53c770f74dc23edd");
    check("reptile", pin, |threads| {
        let cfg = ReptileConfig {
            threads: Some(threads),
            ..ReptileConfig::new(0.04, 0.5)
                .with_inner_steps(T0)
                .with_rounds(ROUNDS)
        };
        Reptile::new(cfg).train_from(&model, &tasks, &theta0)
    });
}

#[test]
fn metasgd_curve_and_rates_are_pinned() {
    let (model, tasks, theta0) = fixture();
    let rates = "31d3cb8f6f3060c8";
    let pin = ("7b8399ed72bc3e6a", "dec460fce9868e14");
    check("metasgd", pin, |threads| {
        let cfg = MetaSgdConfig {
            threads: Some(threads),
            ..MetaSgdConfig::new(0.05, 0.04)
                .with_local_steps(T0)
                .with_rounds(ROUNDS)
        };
        let out = MetaSgd::new(cfg).train_from(&model, &tasks, &theta0);
        assert_eq!(param_hash(&out.rates), rates, "rates, {threads} threads");
        out.train
    });
}
