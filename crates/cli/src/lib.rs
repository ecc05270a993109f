//! Config-driven experiment runner behind the `fedml` binary.
//!
//! One JSON document ([`RunConfig`]) describes the dataset, model,
//! algorithm, optional simulated network, and evaluation protocol;
//! [`run`] executes it end to end and returns a [`Report`]:
//!
//! ```
//! use fml_cli::{run, RunConfig};
//!
//! let mut cfg = RunConfig::example();
//! // shrink for the doctest
//! cfg.dataset = fml_cli::DatasetConfig::Synthetic {
//!     alpha: 0.5, beta: 0.5, nodes: 6, dim: 6, classes: 3, mean_samples: 16.0,
//! };
//! cfg.model = fml_cli::ModelConfig::Softmax { l2: 1e-3 };
//! cfg.algorithm = fml_cli::AlgorithmConfig::Fedavg { lr: 0.05, local_steps: 2, rounds: 2 };
//! cfg.simulate = None;
//! let report = run(&cfg)?;
//! assert_eq!(report.algorithm, "FedAvg");
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod report;

pub use config::{
    AlgorithmConfig, DatasetConfig, EvalConfig, ModelConfig, NetworkKind, RunConfig, SimulateConfig,
};
pub use report::{AdaptReport, EvalReport, Report, RuntimeSummary, SimReport, TrainReport};

use fml_core::{
    adapt, FedAvg, FedAvgConfig, FedMl, FedMlConfig, FedProx,
    FedProxConfig, LocalStepper, MetaGradientMode, MetaSgd, MetaSgdConfig, Reptile, ReptileConfig,
    RobustFedMl, RobustFedMlConfig, SourceTask, TrainOutput,
};
use fml_data::synthetic::SyntheticConfig;
use fml_data::{
    mnist_like::MnistLikeConfig, sent140_like::Sent140LikeConfig,
    shared_synthetic::SharedSyntheticConfig, Federation, NodeData,
};
use fml_dro::BoxConstraint;
use fml_models::{Activation, MlpBuilder, Model, SoftmaxRegression};
use fml_runtime::{
    param_hash, serving::request_from_batch, AdaptClient, AdaptOutcome, AdaptServer,
    FaultyTransport, LinkFaultPlan, NodeIo, Runtime, RuntimeConfig, ServingConfig,
    ServingReport, SharedGlobal, SimRunner, TcpTransport, TcpTransportListener, Transport,
    TransportListener, UnixTransport, UnixTransportListener, CONNECT_ATTEMPTS,
    CONNECT_BASE_DELAY,
};
use fml_sim::{Network, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the federation described by the config.
pub fn build_dataset(cfg: &DatasetConfig, rng: &mut StdRng) -> Federation {
    match *cfg {
        DatasetConfig::Synthetic {
            alpha,
            beta,
            nodes,
            dim,
            classes,
            mean_samples,
        } => SyntheticConfig::new(alpha, beta)
            .with_nodes(nodes)
            .with_dim(dim)
            .with_classes(classes)
            .with_mean_samples(mean_samples)
            .generate(rng),
        DatasetConfig::SharedSynthetic {
            model_dev,
            input_dev,
            nodes,
            dim,
            classes,
            mean_samples,
        } => SharedSyntheticConfig::new(model_dev, input_dev)
            .with_nodes(nodes)
            .with_dim(dim)
            .with_classes(classes)
            .with_mean_samples(mean_samples)
            .generate(rng),
        DatasetConfig::MnistLike {
            nodes,
            dim,
            mean_samples,
        } => MnistLikeConfig::new()
            .with_nodes(nodes)
            .with_dim(dim)
            .with_mean_samples(mean_samples)
            .generate(rng),
        DatasetConfig::Sent140Like {
            users,
            embed_dim,
            mean_samples,
        } => Sent140LikeConfig::new()
            .with_users(users)
            .with_embed_dim(embed_dim)
            .with_mean_samples(mean_samples)
            .generate(rng),
    }
}

/// Builds the model described by the config for the given federation.
fn build_model(cfg: &ModelConfig, fed: &Federation) -> Result<Box<dyn Model>, String> {
    match cfg {
        ModelConfig::Softmax { l2 } => {
            if *l2 < 0.0 {
                return Err("model.l2 must be non-negative".into());
            }
            Ok(Box::new(
                SoftmaxRegression::new(fed.dim(), fed.classes()).with_l2(*l2),
            ))
        }
        ModelConfig::Mlp { hidden, l2 } => MlpBuilder::new(fed.dim(), fed.classes())
            .hidden(hidden)
            .activation(Activation::Tanh)
            .l2(*l2)
            .build()
            .map(|m| Box::new(m) as Box<dyn Model>)
            .map_err(|e| e.to_string()),
    }
}

/// Executes a full configured experiment.
///
/// # Errors
///
/// Returns a human-readable message when the config is invalid or an
/// algorithm/simulation combination is unsupported.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let mut setup = build_runtime_setup(cfg, cfg.seed)?;
    let model = setup.model.as_ref();
    let (name, output, sim_report) = train(
        cfg,
        &setup.trainer,
        model,
        &setup.tasks,
        &setup.theta0,
        &mut setup.rng,
    )?;
    let eval = evaluate(cfg, model, &output.params, &setup.targets, &mut setup.rng);

    Ok(Report {
        dataset: setup.stats,
        algorithm: name,
        training: TrainReport::from_output(&output),
        simulation: sim_report,
        runtime: None,
        eval,
    })
}

/// Which transport the `runtime` subcommand moves frames over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process channels (the default; single process).
    #[default]
    Channel,
    /// Length-prefixed frames over TCP (`--listen`/`--connect` take a
    /// `host:port` address).
    Tcp,
    /// Length-prefixed frames over a Unix domain socket
    /// (`--listen`/`--connect` take a socket file path).
    Uds,
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "channel" => Ok(TransportKind::Channel),
            "tcp" => Ok(TransportKind::Tcp),
            "uds" => Ok(TransportKind::Uds),
            other => Err(format!("unknown transport {other} (channel|tcp|uds)")),
        }
    }
}

/// What a `runtime` or `adapt-serve` launch needs that no runtime type
/// holds. Every other flag of those subcommands is parsed straight onto
/// the [`RuntimeConfig`] / [`ServingConfig`] handed in beside it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Launch {
    /// The resolved seed: `--seed` when given, else the config's.
    pub seed: u64,
    /// Transport the links ride on.
    pub transport: TransportKind,
    /// Platform or service side of a socket transport: address/path to
    /// listen on.
    pub listen: Option<String>,
    /// Node side of a socket transport: address/path to connect to.
    pub connect: Option<String>,
    /// Run as a single node process with this node id (requires
    /// `connect`); `None` runs the platform.
    pub node: Option<usize>,
    /// Wire faults a node process wraps its link in. The seed is the
    /// fleet's (`--fault-seed`, else the run seed); [`run_runtime_node`]
    /// decorrelates it per node, so a fleet sharing one seed still draws
    /// independent schedules.
    pub link_faults: Option<LinkFaultPlan>,
    /// `adapt-serve`: load the served global from this checkpoint
    /// directory.
    pub checkpoint_dir: Option<String>,
    /// `adapt-serve`: run a co-resident training platform (in-process,
    /// barrier mode) and hot-swap its global into the service after
    /// every round.
    pub attach: bool,
    /// `adapt-serve`: serve this many well-formed requests, then shut
    /// down and report (`None` serves until the process is killed).
    pub max_requests: Option<u64>,
}

/// Everything the runtime paths derive deterministically from
/// `(config, seed)` — identical in the platform process and in every
/// node process, which is what lets them agree without sharing memory.
struct RuntimeSetup {
    stats: fml_data::FederationStats,
    tasks: Vec<SourceTask>,
    targets: Vec<NodeData>,
    model: Box<dyn Model>,
    theta0: Vec<f64>,
    trainer: Trainer,
    rng: StdRng,
}

/// Builds dataset, tasks, model, initial parameters, and the trainer
/// from the config at `seed`.
fn build_runtime_setup(cfg: &RunConfig, seed: u64) -> Result<RuntimeSetup, String> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let fed = build_dataset(&cfg.dataset, &mut rng);
    let stats = fed.stats();
    let (sources, targets) = fed.split_sources_targets(cfg.source_frac, &mut rng);
    let tasks = SourceTask::from_nodes(&sources, cfg.eval.k, &mut rng);
    let model = build_model(&cfg.model, &fed)?;
    let theta0 = model.init_params(&mut rng);

    Ok(RuntimeSetup {
        stats,
        tasks,
        targets,
        model,
        theta0,
        trainer: build_trainer(cfg),
        rng,
    })
}

/// Executes a configured experiment on the `fml-runtime` actor fleet
/// instead of the in-process training loop.
///
/// The algorithm section must be one the runtime can drive round by
/// round (`fedml`, `fedavg`, `fedprox` or `reptile` — the trainers on
/// the [`LocalStepper`] seam).
///
/// # Errors
///
/// Returns a human-readable message when the config is invalid, the
/// launch names a node-side knob, or the algorithm has no extracted
/// local step.
pub fn run_runtime(
    cfg: &RunConfig,
    launch: &Launch,
    rt_cfg: RuntimeConfig,
) -> Result<Report, String> {
    if launch.node.is_some() {
        return Err("--node runs a node process; use run_runtime_node".into());
    }
    if launch.connect.is_some() {
        return Err("--connect is for node processes (add --node <id>)".into());
    }
    if launch.link_faults.is_some() {
        return Err("--fault-* wrap a node's link; add --node <id>".into());
    }
    if let Some(dir) = &rt_cfg.checkpoint.dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("--checkpoint-dir {}: {e}", dir.display()))?;
    }
    let RuntimeSetup {
        stats,
        tasks,
        targets,
        model,
        theta0,
        trainer,
        mut rng,
    } = build_runtime_setup(cfg, launch.seed)?;
    let stepper = trainer.stepper("the runtime subcommand")?;
    let runtime = Runtime::new(rt_cfg);

    let out = match (launch.transport, &launch.listen) {
        (TransportKind::Channel, None) => runtime.run(stepper, model.as_ref(), &tasks, &theta0),
        (TransportKind::Channel, Some(_)) => {
            return Err("--listen requires --transport tcp or uds".into())
        }
        (kind, Some(addr)) => {
            let listener = bind(kind, addr, "the platform")?;
            // Stderr so scripted runs can still capture a clean report
            // on stdout; with an ephemeral TCP port this line is where
            // the real address appears.
            eprintln!(
                "platform listening on {} ({} nodes expected)",
                listener.local_addr(),
                tasks.len()
            );
            runtime
                .serve(stepper, model.as_ref(), &tasks, &theta0, listener)
                .map_err(|e| format!("transport: {e}"))?
        }
        (_, None) => return Err("--transport tcp|uds requires --listen <addr>".into()),
    };

    let eval = evaluate(cfg, model.as_ref(), &out.train.params, &targets, &mut rng);
    let mut summary = RuntimeSummary::from_report(&out.report);
    summary.param_hash = param_hash(&out.train.params);
    Ok(Report {
        dataset: stats,
        algorithm: format!("{} (runtime {})", stepper.algorithm(), out.report.mode),
        training: TrainReport::from_output(&out.train),
        simulation: None,
        runtime: Some(summary),
        eval,
    })
}

/// Runs one node process of a socket-transport runtime: rebuilds the
/// identical experiment from `(config, seed)`, connects to the platform
/// (with backoff, so starting before the platform is fine), and answers
/// broadcasts until the schedule or the link ends.
///
/// Returns the node-side I/O counters.
///
/// # Errors
///
/// Returns a human-readable message when the launch is inconsistent,
/// the node id is out of range, or the platform cannot be reached.
pub fn run_runtime_node(
    cfg: &RunConfig,
    launch: &Launch,
    rt_cfg: RuntimeConfig,
) -> Result<NodeIo, String> {
    let node = launch.node.ok_or("node mode requires --node <id>")?;
    let addr = launch
        .connect
        .as_deref()
        .ok_or("node mode requires --connect <addr>")?;
    if launch.listen.is_some() {
        return Err("--listen is for the platform process".into());
    }
    let setup = build_runtime_setup(cfg, launch.seed)?;
    if node >= setup.tasks.len() {
        return Err(format!(
            "--node {node} out of range: {} source nodes",
            setup.tasks.len()
        ));
    }
    let mut link = connect(launch.transport, addr, "node mode")?;
    if let Some(plan) = launch.link_faults {
        let seed = plan.seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        link = Box::new(FaultyTransport::new(link, LinkFaultPlan { seed, ..plan }));
    }
    Ok(Runtime::new(rt_cfg).run_node(
        setup.trainer.stepper("the runtime subcommand")?,
        setup.model.as_ref(),
        &setup.tasks,
        node,
        link.as_mut(),
    ))
}

/// Knobs of the `adapt` subcommand: one client-side adaptation
/// round-trip against a running service (or an offline checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptOptions {
    /// Socket transport to dial (tcp or uds).
    pub transport: TransportKind,
    /// Address/path of a running adaptation service.
    pub connect: Option<String>,
    /// Index into the held-out target-node list to sample K shots from.
    pub target: usize,
    /// Support size override; `None` uses the config's `eval.k`.
    pub k: Option<usize>,
    /// Gradient-step override; `None` uses `eval.adapt_steps`.
    pub steps: Option<usize>,
    /// Inner-learning-rate override; `None` uses `eval.adapt_lr`.
    pub alpha: Option<f64>,
    /// Skip the wire: adapt locally from `--checkpoint-dir` instead.
    /// The parity reference for what the service should have returned.
    pub offline: bool,
    /// Checkpoint directory for `--offline`.
    pub checkpoint_dir: Option<String>,
    /// Seed override; `None` uses the config's seed.
    pub seed: Option<u64>,
    /// Reply deadline, milliseconds.
    pub timeout_ms: u64,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            transport: TransportKind::default(),
            connect: None,
            target: 0,
            k: None,
            steps: None,
            alpha: None,
            offline: false,
            checkpoint_dir: None,
            seed: None,
            timeout_ms: 10_000,
        }
    }
}

/// Binds a socket listener at `addr`; `who` names the caller when the
/// transport is not a socket.
fn bind(kind: TransportKind, addr: &str, who: &str) -> Result<Box<dyn TransportListener>, String> {
    let failed = |e: &dyn std::fmt::Display| format!("bind {addr}: {e}");
    Ok(match kind {
        TransportKind::Tcp => Box::new(TcpTransportListener::bind(addr).map_err(|e| failed(&e))?),
        TransportKind::Uds => Box::new(UnixTransportListener::bind(addr).map_err(|e| failed(&e))?),
        TransportKind::Channel => return Err(needs_socket(who)),
    })
}

/// Dials the socket at `addr` with backoff, so starting before the
/// listener is fine; `who` names the caller when the transport is not a
/// socket.
fn connect(kind: TransportKind, addr: &str, who: &str) -> Result<Box<dyn Transport>, String> {
    let failed = |e: &dyn std::fmt::Display| format!("connect {addr}: {e}");
    let (attempts, base) = (CONNECT_ATTEMPTS, CONNECT_BASE_DELAY);
    Ok(match kind {
        TransportKind::Tcp => Box::new(
            TcpTransport::connect_with_backoff(addr, attempts, base).map_err(|e| failed(&e))?,
        ),
        TransportKind::Uds => Box::new(
            UnixTransport::connect_with_backoff(addr, attempts, base).map_err(|e| failed(&e))?,
        ),
        TransportKind::Channel => return Err(needs_socket(who)),
    })
}

/// What [`bind`] and [`connect`] say about the channel transport.
fn needs_socket(who: &str) -> String {
    format!("{who} needs a socket transport (--transport tcp|uds)")
}

/// Loads the global `adapt-serve` serves and `adapt --offline` replays
/// from `dir`, with its parameters, checked against the configured model.
fn load_served_global(dir: &str, model: &dyn Model) -> Result<(SharedGlobal, Vec<f64>), String> {
    let (global, ck) = SharedGlobal::from_checkpoint(std::path::Path::new(dir))
        .map_err(|e| format!("loading checkpoint from {dir}: {e}"))?;
    if ck.params.len() != model.param_len() {
        return Err(format!(
            "checkpoint has {} parameters but the configured model has {}",
            ck.params.len(),
            model.param_len()
        ));
    }
    Ok((global, ck.params))
}

/// Polls the server until it has seen `max_requests` well-formed
/// requests (forever when `None`), then shuts it down for the report.
fn serve_until(server: AdaptServer, max_requests: Option<u64>) -> ServingReport {
    loop {
        if let Some(n) = max_requests {
            if server.report().requests >= n {
                return server.shutdown();
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Runs the long-lived adaptation service: loads or live-attaches a
/// meta-trained global and answers `Adapt(K samples)` requests over a
/// socket transport until the request budget is exhausted.
///
/// # Errors
///
/// Returns a human-readable message when the launch is inconsistent,
/// the checkpoint is missing or shaped for a different model, or the
/// listener cannot bind.
pub fn run_adapt_serve(
    cfg: &RunConfig,
    launch: &Launch,
    serving_cfg: ServingConfig,
) -> Result<ServingReport, String> {
    let addr = launch
        .listen
        .as_deref()
        .ok_or("adapt-serve requires --listen <addr>")?;
    let setup = build_runtime_setup(cfg, launch.seed)?;
    let model: std::sync::Arc<dyn Model> = std::sync::Arc::from(setup.model);

    let global = match (&launch.checkpoint_dir, launch.attach) {
        (Some(_), true) => {
            return Err("--checkpoint-dir and --attach are mutually exclusive".into())
        }
        (Some(dir), false) => load_served_global(dir, model.as_ref())?.0,
        (None, true) => SharedGlobal::new(),
        (None, false) => return Err("adapt-serve requires --checkpoint-dir or --attach".into()),
    };

    let listener = bind(launch.transport, addr, "adapt-serve")?;
    // Stderr, like the platform's listening line, so scripts can scrape
    // the real address when an ephemeral TCP port was requested.
    eprintln!("adapt service listening on {}", listener.local_addr());

    if launch.attach {
        // Train in-process on the channel runtime, hot-swapping each
        // round's global into the service while it answers requests.
        let stepper = setup.trainer.stepper("adapt-serve --attach")?;
        let runtime =
            Runtime::new(RuntimeConfig::barrier(launch.seed)).with_publisher(global.clone());
        let server = AdaptServer::start(listener, std::sync::Arc::clone(&model), global, serving_cfg);
        let report = std::thread::scope(|s| {
            let trainer =
                s.spawn(|| runtime.run(stepper, model.as_ref(), &setup.tasks, &setup.theta0));
            let report = serve_until(server, launch.max_requests);
            let _ = trainer.join();
            report
        });
        Ok(report)
    } else {
        let server = AdaptServer::start(listener, model, global, serving_cfg);
        Ok(serve_until(server, launch.max_requests))
    }
}

/// Runs one target-node adaptation: samples the first `K` shots from a
/// held-out target node, obtains personalized parameters — from a
/// running service over the wire, or offline from a checkpoint — and
/// evaluates query loss/accuracy before and after adaptation.
///
/// Served and offline runs on the same checkpoint produce the same
/// `param_hash`: the support split is deterministic in `(config, seed)`
/// and the service computes with the exact offline kernel.
///
/// # Errors
///
/// Returns a human-readable message when the options are inconsistent,
/// the target index is out of range, the service rejected the request,
/// or the wire failed.
pub fn run_adapt(cfg: &RunConfig, opts: &AdaptOptions) -> Result<AdaptReport, String> {
    let seed = opts.seed.unwrap_or(cfg.seed);
    let setup = build_runtime_setup(cfg, seed)?;
    if opts.target >= setup.targets.len() {
        return Err(format!(
            "--target {} out of range: {} held-out target nodes",
            opts.target,
            setup.targets.len()
        ));
    }
    let node = &setup.targets[opts.target];
    let k = opts.k.unwrap_or(cfg.eval.k);
    let steps = opts.steps.unwrap_or(cfg.eval.adapt_steps);
    let alpha = opts.alpha.unwrap_or(cfg.eval.adapt_lr);
    if node.batch.len() < 2 {
        return Err(format!("target node {} has fewer than 2 samples", node.id));
    }
    // First-K split: pure in (config, seed), so a served request and an
    // offline replay adapt on the same support set.
    let split = fml_data::TaskSplit::deterministic(&node.batch, k);
    let model = setup.model;

    let (source, global_round, theta, phi) = if opts.offline {
        let dir = opts
            .checkpoint_dir
            .as_deref()
            .ok_or("--offline requires --checkpoint-dir")?;
        let (global, params) = load_served_global(dir, model.as_ref())?;
        let phi = adapt::adapt(model.as_ref(), &params, &split.train, alpha, steps);
        ("offline".to_string(), global.round(), params, phi)
    } else {
        let addr = opts
            .connect
            .as_deref()
            .ok_or("adapt requires --connect <addr> (or --offline)")?;
        let link = connect(opts.transport, addr, "adapt")?;
        let timeout = std::time::Duration::from_millis(opts.timeout_ms.max(1));
        let mut client = AdaptClient::new(link);
        let steps_u32 =
            u32::try_from(steps).map_err(|_| format!("--steps {steps} does not fit in u32"))?;
        // Zero-step probe first: returns the global unchanged, giving
        // the pre-adaptation baseline without a second endpoint.
        let probe = request_from_batch(1, node.id as u32, alpha, 0, &split.train);
        let theta = match client
            .request(&probe, timeout)
            .map_err(|e| format!("adaptation probe: {e}"))?
        {
            AdaptOutcome::Adapted { params, .. } => params,
            AdaptOutcome::Rejected(reason) => {
                return Err(format!("service rejected the probe: {reason}"))
            }
        };
        let req = request_from_batch(2, node.id as u32, alpha, steps_u32, &split.train);
        match client
            .request(&req, timeout)
            .map_err(|e| format!("adaptation request: {e}"))?
        {
            AdaptOutcome::Adapted {
                global_round,
                params,
            } => {
                let kind = match opts.transport {
                    TransportKind::Tcp => "tcp",
                    TransportKind::Uds => "uds",
                    TransportKind::Channel => unreachable!("rejected above"),
                };
                (kind.to_string(), Some(global_round), theta, params)
            }
            AdaptOutcome::Rejected(reason) => {
                return Err(format!("service rejected the request: {reason}"))
            }
        }
    };

    Ok(AdaptReport {
        target: node.id,
        source,
        k: split.train.len(),
        steps,
        alpha,
        global_round,
        pre_loss: model.loss(&theta, &split.test),
        post_loss: model.loss(&phi, &split.test),
        pre_accuracy: model.accuracy(&theta, &split.test),
        post_accuracy: model.accuracy(&phi, &split.test),
        param_hash: param_hash(&phi),
    })
}

/// The trainer a config names, built in one place for every path.
enum Trainer {
    FedMl(FedMl),
    Robust(RobustFedMl),
    FedAvg(FedAvg),
    FedProx(FedProx),
    Reptile(Reptile),
    MetaSgd(MetaSgd),
}

fn build_trainer(cfg: &RunConfig) -> Trainer {
    match &cfg.algorithm {
        AlgorithmConfig::Fedml {
            alpha,
            beta,
            local_steps,
            rounds,
            first_order,
        } => {
            let mode = if *first_order {
                MetaGradientMode::FirstOrder
            } else {
                MetaGradientMode::FullSecondOrder
            };
            Trainer::FedMl(FedMl::new(
                FedMlConfig::new(*alpha, *beta)
                    .with_local_steps(*local_steps)
                    .with_rounds(*rounds)
                    .with_mode(mode),
            ))
        }
        AlgorithmConfig::RobustFedml {
            alpha,
            beta,
            local_steps,
            rounds,
            lambda,
            ascent_steps,
            n0,
            max_generations,
            clamp,
        } => {
            let constraint = match clamp {
                Some((lo, hi)) => BoxConstraint::Clamp { lo: *lo, hi: *hi },
                None => BoxConstraint::None,
            };
            Trainer::Robust(RobustFedMl::new(
                RobustFedMlConfig::new(*alpha, *beta, *lambda)
                    .with_local_steps(*local_steps)
                    .with_rounds(*rounds)
                    .with_adversarial(1.0, *ascent_steps, *n0, *max_generations)
                    .with_constraint(constraint),
            ))
        }
        AlgorithmConfig::Fedavg {
            lr,
            local_steps,
            rounds,
        } => Trainer::FedAvg(FedAvg::new(
            FedAvgConfig::new(*lr)
                .with_local_steps(*local_steps)
                .with_rounds(*rounds)
                .with_eval_alpha(cfg.eval.adapt_lr),
        )),
        AlgorithmConfig::Fedprox {
            lr,
            prox,
            local_steps,
            rounds,
        } => Trainer::FedProx(FedProx::new(FedProxConfig {
            eval_alpha: cfg.eval.adapt_lr,
            ..FedProxConfig::new(*lr, *prox)
                .with_local_steps(*local_steps)
                .with_rounds(*rounds)
        })),
        AlgorithmConfig::Reptile {
            inner_lr,
            outer_lr,
            inner_steps,
            rounds,
        } => Trainer::Reptile(Reptile::new(ReptileConfig {
            eval_alpha: cfg.eval.adapt_lr,
            ..ReptileConfig::new(*inner_lr, *outer_lr)
                .with_inner_steps(*inner_steps)
                .with_rounds(*rounds)
        })),
        AlgorithmConfig::Metasgd {
            alpha_init,
            beta,
            local_steps,
            rounds,
        } => Trainer::MetaSgd(MetaSgd::new(
            MetaSgdConfig::new(*alpha_init, *beta)
                .with_local_steps(*local_steps)
                .with_rounds(*rounds),
        )),
    }
}

impl Trainer {
    /// The trainer as the stepper `train --simulate`, `runtime` and
    /// `run-node` drive round by round.
    ///
    /// # Errors
    ///
    /// Meta-SGD and Robust FedML are not on the [`LocalStepper`] seam:
    /// `what` names the caller in the message.
    fn stepper(&self, what: &str) -> Result<&dyn LocalStepper, String> {
        match self {
            Trainer::FedMl(t) => Ok(t),
            Trainer::FedAvg(t) => Ok(t),
            Trainer::FedProx(t) => Ok(t),
            Trainer::Reptile(t) => Ok(t),
            Trainer::MetaSgd(_) | Trainer::Robust(_) => Err(format!(
                "{what} supports fedml, fedavg, fedprox, and reptile; metasgd and \
                 robust-fedml carry node state between rounds and run only in-process"
            )),
        }
    }

    /// The in-process lockstep reference run.
    fn train_from(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        rng: &mut StdRng,
    ) -> (&'static str, TrainOutput) {
        match self {
            Trainer::Robust(t) => ("RobustFedML", t.train_from(model, tasks, theta0, rng)),
            Trainer::MetaSgd(t) => ("MetaSGD", t.train_from(model, tasks, theta0).train),
            on_seam => {
                let s = on_seam
                    .stepper("train")
                    .expect("every other trainer is a stepper");
                (s.algorithm(), s.train_from(model, tasks, theta0))
            }
        }
    }
}

fn train(
    cfg: &RunConfig,
    trainer: &Trainer,
    model: &dyn Model,
    tasks: &[SourceTask],
    theta0: &[f64],
    rng: &mut StdRng,
) -> Result<(String, TrainOutput, Option<SimReport>), String> {
    let Some(s) = cfg.simulate else {
        let (name, out) = trainer.train_from(model, tasks, theta0, rng);
        return Ok((name.into(), out, None));
    };
    let sim_cfg = SimConfig {
        network: match s.network {
            NetworkKind::Edge => Network::edge(),
            NetworkKind::Ideal => Network::ideal(),
        },
        dropout_prob: s.dropout,
        client_fraction: s.client_fraction,
        straggler_frac: s.straggler_frac,
        straggler_speed: s.straggler_speed,
        wait_fraction: s.wait_fraction,
        iteration_time_s: s.iteration_time_s,
        threads: 4,
    };
    let stepper = trainer.stepper("simulate")?;
    let (out, sim) = SimRunner::new(sim_cfg).train(stepper, model, tasks, theta0, rng);
    let report = SimReport::from_output(&sim);
    Ok((
        format!("{} (simulated)", stepper.algorithm()),
        out,
        Some(report),
    ))
}

fn evaluate(
    cfg: &RunConfig,
    model: &dyn Model,
    params: &[f64],
    targets: &[NodeData],
    rng: &mut StdRng,
) -> EvalReport {
    let e = &cfg.eval;
    let clean =
        adapt::evaluate_targets(model, params, targets, e.k, e.adapt_lr, e.adapt_steps, rng);
    let adversarial = e.fgsm_xi.map(|xi| {
        let mut arng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        let a = adapt::evaluate_targets_adversarial(
            model,
            params,
            targets,
            e.k,
            e.adapt_lr,
            e.adapt_steps,
            xi,
            BoxConstraint::None,
            &mut arng,
        );
        (xi, a.final_loss(), a.final_accuracy())
    });
    EvalReport {
        targets: clean.targets,
        k: e.k,
        adapt_steps: e.adapt_steps,
        initial_loss: clean.curve.first().map_or(f64::NAN, |p| p.loss),
        initial_accuracy: clean.curve.first().map_or(f64::NAN, |p| p.accuracy),
        final_loss: clean.final_loss(),
        final_accuracy: clean.final_accuracy(),
        adversarial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_runtime::{AsyncPolicy, StalenessDecay, UpdateCodec};

    fn tiny(algo: AlgorithmConfig) -> RunConfig {
        RunConfig {
            seed: 3,
            source_frac: 0.75,
            dataset: DatasetConfig::Synthetic {
                alpha: 0.5,
                beta: 0.5,
                nodes: 8,
                dim: 6,
                classes: 3,
                mean_samples: 18.0,
            },
            model: ModelConfig::Softmax { l2: 1e-3 },
            algorithm: algo,
            simulate: None,
            eval: EvalConfig {
                k: 4,
                adapt_steps: 3,
                adapt_lr: 0.05,
                fgsm_xi: None,
            },
        }
    }

    /// The launch of an in-process platform at the config's seed.
    fn at_seed(cfg: &RunConfig) -> Launch {
        Launch {
            seed: cfg.seed,
            ..Launch::default()
        }
    }

    /// `fedml runtime <cfg>` with no flags.
    fn barrier(cfg: &RunConfig) -> Result<Report, String> {
        run_runtime(cfg, &at_seed(cfg), RuntimeConfig::barrier(cfg.seed))
    }

    /// `fedml runtime <cfg> --mode async` under `policy`.
    fn asynchronous(cfg: &RunConfig, policy: AsyncPolicy) -> Result<Report, String> {
        run_runtime(cfg, &at_seed(cfg), RuntimeConfig::async_mode(cfg.seed, policy))
    }

    #[test]
    fn runs_every_algorithm() {
        let algos = vec![
            AlgorithmConfig::Fedml {
                alpha: 0.05,
                beta: 0.05,
                local_steps: 2,
                rounds: 2,
                first_order: false,
            },
            AlgorithmConfig::Fedml {
                alpha: 0.05,
                beta: 0.05,
                local_steps: 2,
                rounds: 2,
                first_order: true,
            },
            AlgorithmConfig::RobustFedml {
                alpha: 0.05,
                beta: 0.05,
                local_steps: 2,
                rounds: 2,
                lambda: 1.0,
                ascent_steps: 2,
                n0: 1,
                max_generations: 1,
                clamp: Some((0.0, 1.0)),
            },
            AlgorithmConfig::Fedavg {
                lr: 0.05,
                local_steps: 2,
                rounds: 2,
            },
            AlgorithmConfig::Fedprox {
                lr: 0.05,
                prox: 0.1,
                local_steps: 2,
                rounds: 2,
            },
            AlgorithmConfig::Reptile {
                inner_lr: 0.05,
                outer_lr: 0.5,
                inner_steps: 2,
                rounds: 2,
            },
            AlgorithmConfig::Metasgd {
                alpha_init: 0.05,
                beta: 0.05,
                local_steps: 2,
                rounds: 2,
            },
        ];
        for algo in algos {
            let cfg = tiny(algo.clone());
            let report = run(&cfg).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            assert!(report.eval.final_loss.is_finite(), "{algo:?}");
            assert!(report.training.comm_rounds > 0);
            // Every baseline's curve is scored at the evaluation's
            // adaptation rate, so their meta losses are comparable.
            let setup = build_runtime_setup(&cfg, cfg.seed).unwrap();
            let (Trainer::FedAvg(_) | Trainer::FedProx(_) | Trainer::Reptile(_)) = setup.trainer
            else {
                continue;
            };
            let (model, theta) = (setup.model.as_ref(), &setup.theta0);
            let curve = setup.trainer.stepper("the test").unwrap();
            assert_eq!(
                curve.eval_losses(model, &setup.tasks, theta).0,
                fml_core::weighted_meta_loss(model, &setup.tasks, theta, cfg.eval.adapt_lr),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn fedprox_without_a_proximal_term_reports_fedavg_losses() {
        let losses = |algorithm| {
            let training = run(&tiny(algorithm)).unwrap().training;
            (training.initial_meta_loss, training.final_meta_loss)
        };
        let (lr, local_steps, rounds) = (0.05, 2, 2);
        let fedavg = AlgorithmConfig::Fedavg {
            lr,
            local_steps,
            rounds,
        };
        let fedprox = AlgorithmConfig::Fedprox {
            lr,
            prox: 0.0,
            local_steps,
            rounds,
        };
        assert_eq!(losses(fedprox), losses(fedavg));
    }

    #[test]
    fn simulated_run_reports_comm() {
        let mut cfg = tiny(AlgorithmConfig::Fedml {
            alpha: 0.05,
            beta: 0.05,
            local_steps: 2,
            rounds: 2,
            first_order: false,
        });
        cfg.simulate = Some(SimulateConfig {
            network: NetworkKind::Edge,
            dropout: 0.0,
            client_fraction: 1.0,
            straggler_frac: 0.0,
            straggler_speed: 0.25,
            wait_fraction: 1.0,
            iteration_time_s: 0.01,
        });
        let report = run(&cfg).unwrap();
        let sim = report.simulation.expect("simulated run must report comm");
        assert!(sim.payload_bytes > 0);
        assert!(sim.wall_clock_s > 0.0);
        assert!(report.algorithm.contains("simulated"));
    }

    #[test]
    fn adversarial_eval_is_reported_when_requested() {
        let mut cfg = tiny(AlgorithmConfig::Fedavg {
            lr: 0.05,
            local_steps: 2,
            rounds: 2,
        });
        cfg.eval.fgsm_xi = Some(0.1);
        let report = run(&cfg).unwrap();
        let (xi, loss, acc) = report.eval.adversarial.expect("adversarial eval requested");
        assert_eq!(xi, 0.1);
        assert!(loss.is_finite());
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn mlp_model_works_on_sent140_like() {
        let mut cfg = tiny(AlgorithmConfig::Fedavg {
            lr: 0.05,
            local_steps: 2,
            rounds: 2,
        });
        cfg.dataset = DatasetConfig::Sent140Like {
            users: 6,
            embed_dim: 8,
            mean_samples: 20.0,
        };
        cfg.model = ModelConfig::Mlp {
            hidden: vec![6],
            l2: 1e-4,
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.dataset.nodes, 6);
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let mut cfg = tiny(AlgorithmConfig::Fedavg {
            lr: 0.05,
            local_steps: 2,
            rounds: 2,
        });
        cfg.eval.k = 0;
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = tiny(AlgorithmConfig::Fedml {
            alpha: 0.05,
            beta: 0.05,
            local_steps: 2,
            rounds: 2,
            first_order: false,
        });
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn runtime_barrier_matches_direct_run() {
        let cfg = tiny(AlgorithmConfig::Fedml {
            alpha: 0.05,
            beta: 0.05,
            local_steps: 2,
            rounds: 3,
            first_order: false,
        });
        let direct = run(&cfg).unwrap();
        let rt = barrier(&cfg).unwrap();
        assert!(rt.algorithm.contains("runtime barrier"), "{}", rt.algorithm);
        let summary = rt.runtime.as_ref().expect("runtime section present");
        assert_eq!(summary.mode, "barrier");
        assert!(summary.frames > 0);
        // The barrier runtime replays train_from's float ops exactly, so the
        // final meta loss and the downstream target evaluation must agree
        // bitwise with the in-process run.
        assert_eq!(rt.training.final_meta_loss, direct.training.final_meta_loss);
        assert_eq!(rt.eval, direct.eval);
    }

    #[test]
    fn runtime_async_reports_staleness() {
        let cfg = tiny(AlgorithmConfig::Fedavg {
            lr: 0.05,
            local_steps: 2,
            rounds: 4,
        });
        let policy = AsyncPolicy::default().with_max_staleness(2);
        let rt_cfg = RuntimeConfig::async_mode(cfg.seed, policy).with_threads(2);
        let rt = run_runtime(&cfg, &at_seed(&cfg), rt_cfg).unwrap();
        assert!(rt.algorithm.contains("runtime async"), "{}", rt.algorithm);
        let summary = rt.runtime.as_ref().expect("runtime section present");
        assert_eq!(summary.mode, "async");
        assert_eq!(summary.threads, 2);
        assert!(summary.staleness_hist.len() <= 3, "bound is max_staleness");
        assert!(summary.accepted_updates > 0);
        assert!(rt.eval.final_loss.is_finite());
    }

    #[test]
    fn runtime_codec_flags_parse_and_compress() {
        let cfg = tiny(AlgorithmConfig::Fedavg {
            lr: 0.05,
            local_steps: 2,
            rounds: 3,
        });
        let with_codec = |codec| {
            let rt_cfg = RuntimeConfig::barrier(cfg.seed).with_update_codec(codec);
            run_runtime(&cfg, &at_seed(&cfg), rt_cfg).unwrap()
        };
        let baseline = barrier(&cfg).unwrap();
        let base_hash = baseline.runtime.as_ref().unwrap().param_hash.clone();
        // `--update-codec none` spelled out is the default: same bits.
        let none = with_codec(UpdateCodec::None);
        let none_summary = none.runtime.as_ref().unwrap();
        assert_eq!(none_summary.param_hash, base_hash);
        assert_eq!(none_summary.update_codec, "none");
        // Top-k shrinks the uplink by at least the headline 3x.
        let summary = with_codec(UpdateCodec::TopK { k: 2 }).runtime.unwrap();
        assert_eq!(summary.update_codec, "topk2");
        assert!(
            summary.uplink_bytes_logical >= 3 * summary.uplink_bytes,
            "uplink {} logical vs {} physical",
            summary.uplink_bytes_logical,
            summary.uplink_bytes
        );
    }

    #[test]
    fn runtime_async_policy_flags_parse_and_report() {
        let cfg = tiny(AlgorithmConfig::Fedavg {
            lr: 0.05,
            local_steps: 2,
            rounds: 4,
        });
        let bare = AsyncPolicy::default().with_max_staleness(2);

        // Spelling out the defaults is the identity: same bits as the
        // bare async mode.
        let base = asynchronous(&cfg, bare).unwrap();
        let base_summary = base.runtime.as_ref().unwrap();
        let spelled_out = AsyncPolicy {
            decay: StalenessDecay::Poly,
            buffer_k: 1,
            ..bare
        };
        let explicit = asynchronous(&cfg, spelled_out).unwrap();
        assert_eq!(
            explicit.runtime.as_ref().unwrap().param_hash,
            base_summary.param_hash
        );
        let block = base_summary.async_policy.as_ref().expect("policy block");
        assert_eq!(block.decay, "poly");
        assert_eq!(block.buffer_k, 1);
        assert_eq!(block.max_staleness, 2);
        assert!(!block.adaptive_mix);

        // The full surface parses and lands in the report block.
        let full_surface = AsyncPolicy {
            decay: StalenessDecay::Hinge { knee: 1 },
            buffer_k: 2,
            adaptive_mix: true,
            ..bare
        };
        let fancy = asynchronous(&cfg, full_surface).unwrap();
        let summary = fancy.runtime.unwrap();
        let block = summary.async_policy.expect("policy block");
        assert_eq!(block.decay, "hinge:1");
        assert_eq!(block.buffer_k, 2);
        assert!(block.adaptive_mix);
        assert!(summary.buffered_flushes > 0);
        assert!(!summary.node_weight_stats.is_empty());
        assert!(fancy.eval.final_loss.is_finite());
    }

    #[test]
    fn runtime_rejects_unsupported_algorithms() {
        let cfg = tiny(AlgorithmConfig::Metasgd {
            alpha_init: 0.01,
            beta: 0.05,
            local_steps: 2,
            rounds: 2,
        });
        let err = barrier(&cfg).unwrap_err();
        assert!(err.contains("runtime"), "unexpected error: {err}");
        // Reptile is on the stepper seam since `LocalStepper::combine`.
        let cfg = tiny(AlgorithmConfig::Reptile {
            inner_lr: 0.05,
            outer_lr: 0.5,
            inner_steps: 2,
            rounds: 2,
        });
        let report = barrier(&cfg).unwrap();
        assert!(
            report.algorithm.starts_with("Reptile"),
            "{}",
            report.algorithm
        );
    }

    #[test]
    fn uncreatable_checkpoint_dir_is_an_error_at_launch() {
        let file = std::env::temp_dir().join(format!("fml_cli_ckdir_{}", std::process::id()));
        std::fs::write(&file, b"a regular file").unwrap();
        let cfg = tiny(AlgorithmConfig::Fedavg {
            lr: 0.05,
            local_steps: 2,
            rounds: 2,
        });
        let rt_cfg = RuntimeConfig::barrier(cfg.seed).with_checkpoint_dir(file.join("ck"));
        let err = run_runtime(&cfg, &at_seed(&cfg), rt_cfg).unwrap_err();
        let _ = std::fs::remove_file(&file);
        let flag = format!("--checkpoint-dir {}: ", file.join("ck").display());
        assert!(err.starts_with(&flag), "unexpected error: {err}");
    }
}
