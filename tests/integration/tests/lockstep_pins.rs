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
//! `T0 = 4` with `record_every ∈ {0, 1, 3}` covers aggregation-only
//! curves, a record at every iteration, and records that fall between
//! aggregations (t = 3, 6, 9 — evaluated at the re-averaged locals).

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
const RECORD_EVERY: [usize; 3] = [0, 1, 3];

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

/// `(params, history)` digests per `record_every`, in `RECORD_EVERY` order.
type Pins = [(&'static str, &'static str); 3];

fn check(name: &str, pins: &Pins, run: impl Fn(usize, usize) -> TrainOutput) {
    for (&every, &(params, history)) in RECORD_EVERY.iter().zip(pins) {
        for threads in [1usize, 4] {
            let out = run(every, threads);
            let at = format!("{name}, record_every {every}, {threads} threads");
            assert_eq!(param_hash(&out.params), params, "params: {at}");
            assert_eq!(history_hash(&out), history, "history: {at}");
            assert_eq!(out.comm_rounds, ROUNDS, "{at}");
            assert_eq!(out.local_iterations, ROUNDS * T0, "{at}");
        }
    }
}

fn fedml_cfg(mode: MetaGradientMode, every: usize, threads: usize) -> FedMlConfig {
    FedMlConfig::new(0.05, 0.04)
        .with_local_steps(T0)
        .with_rounds(ROUNDS)
        .with_mode(mode)
        .with_record_every(every)
        .with_threads(threads)
}

#[test]
fn fedml_second_order_curve_is_pinned() {
    let (model, tasks, theta0) = fixture();
    let pins: Pins = [
        ("c4ff9054057480dc", "6342aa5c1af08d19"),
        ("c4ff9054057480dc", "dba2116c6c52a205"),
        ("c4ff9054057480dc", "44cee4e4301e0e05"),
    ];
    check("fedml", &pins, |every, threads| {
        let cfg = fedml_cfg(MetaGradientMode::FullSecondOrder, every, threads);
        FedMl::new(cfg).train_from(&model, &tasks, &theta0)
    });
}

#[test]
fn fedml_first_order_curve_is_pinned() {
    let (model, tasks, theta0) = fixture();
    let pins: Pins = [
        ("4a8d8d39eb1b792b", "f49d84f9d10ef1e2"),
        ("4a8d8d39eb1b792b", "6722a9675e7f4eca"),
        ("4a8d8d39eb1b792b", "219413f08af09e78"),
    ];
    check("fomaml", &pins, |every, threads| {
        let cfg = fedml_cfg(MetaGradientMode::FirstOrder, every, threads);
        FedMl::new(cfg).train_from(&model, &tasks, &theta0)
    });
}

#[test]
fn fedavg_curve_is_pinned() {
    let (model, tasks, theta0) = fixture();
    let pins: Pins = [
        ("60f2d0286704d3d4", "4e939301047fbba4"),
        ("60f2d0286704d3d4", "562e932e19b72c2a"),
        ("60f2d0286704d3d4", "51439261c854ff89"),
    ];
    check("fedavg", &pins, |every, threads| {
        let cfg = FedAvgConfig {
            record_every: every,
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
    let pins: Pins = [
        ("2162fbc38ccb989d", "53b48fcd298d26c9"),
        ("2162fbc38ccb989d", "92ea1aa648d06ccf"),
        ("2162fbc38ccb989d", "d690e7d654840cef"),
    ];
    check("fedprox", &pins, |every, threads| {
        let cfg = FedProxConfig {
            record_every: every,
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
    // Reptile has no `record_every`: one record per round, at θ itself.
    let (model, tasks, theta0) = fixture();
    let pin = ("6635f1d6550a0847", "53c770f74dc23edd");
    check("reptile", &[pin; 3], |_, threads| {
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
    let pins: Pins = [
        ("7b8399ed72bc3e6a", "8fb6e1dda05c772f"),
        ("7b8399ed72bc3e6a", "efbdbd52cdaedc55"),
        ("7b8399ed72bc3e6a", "064adfaa62eb00cf"),
    ];
    check("metasgd", &pins, |every, threads| {
        let cfg = MetaSgdConfig {
            record_every: every,
            threads: Some(threads),
            ..MetaSgdConfig::new(0.05, 0.04)
                .with_local_steps(T0)
                .with_rounds(ROUNDS)
        };
        let out = MetaSgd::new(cfg).train_from(&model, &tasks, &theta0);
        assert_eq!(param_hash(&out.rates), rates, "rates, record_every {every}");
        out.train
    });
}
