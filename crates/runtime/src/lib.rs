//! Event-driven, message-passing federation runtime.
//!
//! Every trainer in `fml-core` executes Algorithm 1 as an in-process
//! lockstep loop, and `fml-sim` models the network around that loop —
//! but nothing in the workspace actually *routes messages between
//! concurrently executing nodes*. This crate is that missing platform:
//! a thread-per-node actor runtime in which
//!
//! * each source node is an actor, multiplexed onto a worker pool: the
//!   platform **posts each broadcast once**, and the workers claim the
//!   reached nodes in chunks and step them;
//! * every hop carries an **encoded wire frame** ([`fml_sim::message`]),
//!   so the hardened decode path runs on all traffic and byte counts
//!   are real serialized sizes;
//! * update replies can ride **wire-v2 compressed frames** behind the
//!   [`UpdateCodec`] seam: per-chunk quantization or error-feedback
//!   top-k sparsification shrink uplink bytes, while
//!   [`UpdateCodec::None`] preserves the historical dense path bitwise
//!   (the platform decodes every codec unconditionally);
//! * a **platform event loop** owns the global parameters and drives
//!   aggregation, reusing `fml_core::gather` validation/quorum and the
//!   seeded `FaultPlan` so crashed or straggling node threads degrade
//!   rounds instead of hanging the run.
//!
//! Two execution modes:
//!
//! * [`Mode::Barrier`] — lockstep rounds; fault-free runs reproduce
//!   `FedMl::train_from` / `FedAvg::train_from` histories **bitwise**;
//! * [`Mode::Async`] — bounded-staleness aggregation: each upload is
//!   folded in with a staleness-decayed weight, and anything staler
//!   than [`AsyncPolicy::max_staleness`] rounds is rejected.
//!
//! Time is **virtual**: each upload's delay comes from the driver — on
//! threads from the seeded [`VirtualClock`], pure in `(seed, node,
//! round)`, in the simulator from its priced links — so async schedules
//! are bitwise reproducible at any worker-thread count and on any
//! machine. Wall-clock timeouts exist only as a liveness net against
//! genuinely dead threads.
//!
//! Out of process, every platform⇄node hop crosses the [`transport`]
//! seam: length-prefixed frames over TCP ([`TcpTransport`]) or a Unix
//! domain socket ([`UnixTransport`]) — [`Runtime::serve`] runs the
//! platform against a listener, [`Runtime::run_node`] runs one node
//! over a connected link (an in-process [`ChannelTransport`] pair
//! stands in for a socket in tests), and socket deadlines derive from
//! the gather policy so a dead peer degrades the round instead of
//! hanging it.
//!
//! The same round core has a second driver with no thread, sleep or
//! socket of its own: [`SimRunner`] (and the adaptive-`T0` controller,
//! [`run_adaptive_fedml`]) answers each broadcast in-line with the
//! actors' node step and offers the replies in virtual time, pricing
//! every frame with `fml_sim`'s link, compute and energy models — under
//! the benign fault plan, or under any `FaultTolerance`
//! ([`SimRunner::with_faults`]), which is how a fault-injected run is
//! trained in-process.
//!
//! After training, the [`serving`] module keeps the meta-trained global
//! useful: [`AdaptServer`] answers `Adapt(K samples)` requests over the
//! same transport seam — loading a checkpoint or hot-swapping the live
//! global from a co-resident platform via [`SharedGlobal`] — with a
//! bounded worker pool that sheds overload as typed busy rejects.
//!
//! # Quickstart
//!
//! ```
//! use fml_core::{FedMl, FedMlConfig, SourceTask};
//! use fml_data::synthetic::SyntheticConfig;
//! use fml_models::{Model, SoftmaxRegression};
//! use fml_runtime::{Runtime, RuntimeConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let fed = SyntheticConfig::new(0.5, 0.5)
//!     .with_nodes(4).with_dim(6).with_classes(3)
//!     .generate(&mut rng);
//! let tasks = SourceTask::from_nodes(fed.nodes(), 5, &mut rng);
//! let model = SoftmaxRegression::new(6, 3);
//! let theta0 = model.init_params(&mut rng);
//!
//! let fed_ml = FedMl::new(FedMlConfig::new(0.01, 0.01).with_rounds(3));
//! let out = Runtime::new(RuntimeConfig::barrier(7).with_threads(2))
//!     .run(&fed_ml, &model, &tasks, &theta0);
//! assert_eq!(out.train.comm_rounds, 3);
//! assert_eq!(out.report.per_node.len(), tasks.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, MutexGuard, PoisonError};

mod actor;
mod adaptive;
pub mod clock;
pub mod config;
pub mod health;
mod hub;
mod link;
pub mod platform;
pub mod report;
mod runner;
pub mod serving;
pub mod transport;

pub use adaptive::run_adaptive_fedml;
pub use clock::VirtualClock;
pub use config::{AsyncPolicy, CheckpointConfig, Mode, RuntimeConfig, StalenessDecay};
pub use fml_sim::UpdateCodec;
pub use health::{HealthTracker, NodeHealth, NodeHealthReport};
pub use platform::{Runtime, RuntimeOutput};
pub use report::{param_hash, AsyncPolicyReport, NodeIo, NodeWeightStat, PoolStatsReport, RuntimeReport};
pub use runner::SimRunner;
pub use serving::{
    AdaptClient, AdaptOutcome, AdaptServer, GlobalSnapshot, ServingConfig, ServingReport,
    SharedGlobal,
};
pub use transport::{
    ChannelTransport, FaultyTransport, LinkFaultPlan, TcpTransport, TcpTransportListener,
    Transport, TransportError, TransportListener, UnixTransport, UnixTransportListener,
    CONNECT_ATTEMPTS, CONNECT_BASE_DELAY,
};

/// Locks `mutex`, taking over a poisoned one: each mutex here guards
/// state a panicking holder leaves sound — a node's counters or
/// residual mid-update (a residual of the wrong length is skipped), a
/// post whose sequence never moved, a hub slot, the link layer's thread
/// registry or waiting set, a queue that changes by one push or pop.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
