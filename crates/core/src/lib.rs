//! Federated meta-learning for real-time edge intelligence.
//!
//! This crate implements the contribution of *"Real-Time Edge Intelligence
//! in the Making: A Collaborative Learning Framework via Federated
//! Meta-Learning"* (Lin, Yang & Zhang, ICDCS 2020):
//!
//! * [`FedMl`] — **Algorithm 1**: source edge nodes run MAML-style local
//!   meta-updates (inner step on `D_i^train`, outer step on `D_i^test`)
//!   for `T0` iterations between weighted global aggregations at the
//!   platform;
//! * [`RobustFedMl`] — **Algorithm 2**: the Wasserstein-DRO variant that
//!   interleaves adversarial data generation (via
//!   [`fml_dro::RobustSurrogate`]) with meta-training;
//! * [`adapt`] — fast adaptation at the target edge node (eq. 6) and the
//!   evaluation harness behind the paper's Figure 3;
//! * baselines the paper compares against or builds on: [`FedAvg`]
//!   (McMahan et al.), [`FedProx`] (Sahu et al.), and [`Reptile`]
//!   (Nichol et al., first-order meta-learning);
//! * [`theory`] — the constants and bounds of Lemma 1 and Theorems 1–4,
//!   plus estimators for the node-similarity constants `δ_i, σ_i` of
//!   Assumption 4, so the convergence claims can be checked numerically.
//!
//! # Quickstart
//!
//! ```
//! use fml_core::{FedMl, FedMlConfig, LocalStepper, SourceTask, adapt};
//! use fml_data::synthetic::SyntheticConfig;
//! use fml_models::SoftmaxRegression;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let fed = SyntheticConfig::new(0.5, 0.5)
//!     .with_nodes(6).with_dim(8).with_classes(3)
//!     .generate(&mut rng);
//! let (sources, targets) = fed.split_sources_targets(0.8, &mut rng);
//! let model = SoftmaxRegression::new(8, 3).with_l2(1e-3);
//!
//! let tasks = SourceTask::from_nodes(&sources, 5, &mut rng);
//! let cfg = FedMlConfig::new(0.01, 0.01).with_rounds(3).with_local_steps(2);
//! let out = FedMl::new(cfg).train(&model, &tasks, &mut rng);
//!
//! // Fast adaptation at a held-out target node with K samples:
//! let split = fml_data::TaskSplit::sample(&targets[0].batch, 5, &mut rng);
//! let adapted = adapt::adapt(&model, &out.params, &split.train, 0.01, 1);
//! assert_eq!(adapted.len(), out.params.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod checkpoint;
pub mod compress;
mod error;
pub mod faults;
mod fedavg;
mod fedml;
mod fedprox;
pub mod ft;
pub mod gather;
pub mod meta;
mod metasgd;
pub mod parallel;
mod reptile;
pub mod step;
mod robust;
mod task;
pub mod theory;
mod trainer;

pub use compress::ErrorFeedback;
pub use error::CoreError;
pub use faults::{Fault, FaultPlan};
pub use fedavg::{FedAvg, FedAvgConfig};
pub use ft::{train_with_faults, FaultTolerance};
pub use gather::{GatherPolicy, StragglerPolicy, UpdateValidation};
pub use fedml::{FedMl, FedMlConfig};
pub use fedprox::{FedProx, FedProxConfig};
pub use meta::{MetaGradientMode, Scratch};
pub use metasgd::{MetaSgd, MetaSgdConfig, MetaSgdOutput};
pub use reptile::{Reptile, ReptileConfig};
pub use robust::{RobustFedMl, RobustFedMlConfig};
pub use step::LocalStepper;
pub use task::SourceTask;
pub use trainer::{aggregate, weighted_meta_loss, weighted_train_loss, RoundRecord, TrainOutput};
