//! The four workloads: their literal sizes, why each exists, and the
//! seeded set-up that turns a spec into models, tasks and requests.
//!
//! Every size, thread count and connection count is a literal here —
//! nothing reads `available_parallelism()` — so two hosts run the same
//! work. `--seed` drives data generation, `θ0`, the support batches and
//! the virtual clock; the program under test sees only those inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fml_core::{FedMl, FedMlConfig, SourceTask};
use fml_data::mnist_like::MnistLikeConfig;
use fml_data::shared_synthetic::SharedSyntheticConfig;
use fml_data::{Federation, NodeData, TaskSplit};
use fml_models::{Activation, Batch, MlpBuilder, Model, SoftmaxRegression};
use fml_runtime::serving::request_from_batch;
use fml_runtime::{
    AsyncPolicy, RuntimeConfig, TcpTransport, TcpTransportListener, TransportListener, UpdateCodec,
    VirtualClock,
};
use fml_sim::AdaptRequest;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which generator makes the federation. Both give every node the same
/// learnable structure plus a per-node deviation, so the meta loss has
/// somewhere to fall and its curve keeps its shape from seed to seed.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// `SharedSyntheticConfig::new(model_dev, 0.5)` with this shape.
    SharedSynthetic {
        dim: usize,
        classes: usize,
        model_dev: f64,
    },
    /// `MnistLikeConfig` with this pixel count, all 10 digits on every
    /// node.
    Mnist { dim: usize },
}

/// Which model family trains on it.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    /// Tanh MLP with one hidden layer of this width.
    Mlp { hidden: usize },
    /// Multinomial logistic regression.
    Softmax,
}

/// How platform and nodes are wired for the train phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// `Runtime::run`: in-process mailboxes, `workers` actor threads.
    Channel,
    /// `Runtime::serve` on TCP loopback, one `Runtime::run_node` thread
    /// per source node.
    Tcp,
}

/// The adapt phase: closed-loop clients against a real `AdaptServer` on
/// TCP loopback.
#[derive(Debug, Clone, Copy)]
pub struct AdaptSpec {
    /// Support-set size `K` of every request.
    pub k: usize,
    /// Gradient steps every request asks for.
    pub steps: u32,
    /// Closed-loop client threads, one TCP connection each.
    pub clients: usize,
    /// `ServingConfig::workers`.
    pub server_workers: usize,
    /// Requests one adapt block sends, all clients together (≈ 0.5 s,
    /// never under 2 000 so a block's p99 has 20 samples beyond it).
    /// Unused when the phase is `concurrent`: a block then lasts as long
    /// as the train block beside it (≈ 1 s, ≈ 25 000 requests).
    pub requests_per_block: usize,
}

/// An untimed pass the quality metrics are read from, for a workload
/// whose timed rounds hold too few samples for a loss curve: the same
/// model, nodes, codec and wiring over this many samples per node.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub node_samples: usize,
    pub task_k: usize,
    pub rounds: usize,
}

/// One workload, as literals.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line: which layers this workload puts on the critical path.
    pub why: &'static str,
    pub data: Data,
    pub net: Net,
    pub link: Link,
    /// Async mode (default `AsyncPolicy`, `max_staleness` 2) instead of
    /// barrier rounds.
    pub async_mode: bool,
    pub codec: UpdateCodec,
    /// Source nodes: actors on `Channel`, peers on `Tcp`.
    pub nodes: usize,
    /// Held-out target nodes scored by `target_loss` and used as the
    /// adapt clients' support sets; hundreds, so that `target_loss`
    /// moves with the seed's problem and not with which nodes it drew.
    pub targets: usize,
    /// Samples per source node, cycled by node index. Fixed rather than
    /// drawn, so every seed does the same amount of arithmetic per
    /// round and `rounds_per_s` compares across seeds.
    pub node_samples: &'static [usize],
    /// Samples per target node.
    pub target_samples: usize,
    /// Support size `K` of the source tasks' train/test split.
    pub task_k: usize,
    /// `T0`.
    pub local_steps: usize,
    /// Inner and meta learning rates.
    pub alpha: f64,
    pub beta: f64,
    /// Rounds of one train block (= the whole schedule; sized ≈ 1 s).
    pub rounds: usize,
    /// Rounds of a `--smoke` block.
    pub smoke_rounds: usize,
    /// `f`: the quality target is the meta loss `f` of the way from
    /// `L(θ0)` down to the in-process reference's end-of-schedule loss,
    /// `L_ref + f·(L(θ0) − L_ref)`.
    pub target_frac: f64,
    /// Where `rounds_to_target` and `target_loss` come from when not
    /// from the timed schedule itself.
    pub quality: Option<Quality>,
    /// Actor worker threads (`Channel`); on `Tcp` the peers are the
    /// threads and this is their count.
    pub workers: usize,
    pub adapt: AdaptSpec,
    /// Adapt phase runs beside the train phase (one shared
    /// `SharedGlobal`) instead of after it.
    pub concurrent: bool,
}

/// The series. Names are cited verbatim by later issues.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "compute_mlp_channel",
        why: "FedML T0=5, 40 nodes, MLP[32] (1322 params), barrier over channels, 2 workers: rounds are almost all models HVP/grad inside core.step, so kernel work shows here only",
        data: Data::SharedSynthetic {
            dim: 30,
            classes: 10,
            model_dev: 0.3,
        },
        net: Net::Mlp { hidden: 32 },
        link: Link::Channel,
        async_mode: false,
        codec: UpdateCodec::None,
        nodes: 40,
        targets: 200,
        node_samples: &[24, 32, 40, 48, 64],
        target_samples: 40,
        task_k: 10,
        local_steps: 5,
        alpha: 0.05,
        beta: 0.3,
        rounds: 40,
        smoke_rounds: 3,
        target_frac: 0.1,
        quality: None,
        workers: 2,
        adapt: AdaptSpec {
            k: 10,
            steps: 5,
            clients: 2,
            server_workers: 2,
            requests_per_block: 3_000,
        },
        concurrent: false,
    },
    Spec {
        name: "fleet_softmax_channel",
        why: "FedML T0=1, 2000 actors, softmax 20x5 (105 params), barrier, 2 workers: tiny kernels and 4000 frames/round, so message, pool, mailboxes, scheduling and the 2000-way aggregate dominate",
        data: Data::SharedSynthetic {
            dim: 20,
            classes: 5,
            model_dev: 0.3,
        },
        net: Net::Softmax,
        link: Link::Channel,
        async_mode: false,
        codec: UpdateCodec::None,
        nodes: 2000,
        targets: 500,
        node_samples: &[8, 10, 12, 16, 24],
        target_samples: 16,
        task_k: 5,
        local_steps: 1,
        alpha: 0.05,
        beta: 0.3,
        rounds: 28,
        smoke_rounds: 3,
        target_frac: 0.2,
        quality: None,
        workers: 2,
        adapt: AdaptSpec {
            k: 5,
            steps: 1,
            clients: 2,
            server_workers: 2,
            requests_per_block: 10_000,
        },
        concurrent: false,
    },
    Spec {
        name: "wire_quant_tcp",
        why: "FedML T0=1, softmax 784x10 (7850 params, 63 kB frames), 2 run_node peers on TCP, quant8 uplink, 4 samples a node: codec, framing, transport and hub are most of a round; quality from a 40-sample pass",
        data: Data::Mnist { dim: 784 },
        net: Net::Softmax,
        link: Link::Tcp,
        async_mode: false,
        codec: UpdateCodec::Quant { bits: 8 },
        nodes: 2,
        targets: 100,
        // Two support and two query samples a node: the least a K-shot
        // split takes, so that moving 63 kB frames, not arithmetic over
        // them, is what a round waits for.
        node_samples: &[4],
        target_samples: 30,
        task_k: 2,
        local_steps: 1,
        alpha: 0.01,
        beta: 0.01,
        rounds: 1500,
        smoke_rounds: 20,
        target_frac: 0.2,
        quality: Some(Quality {
            node_samples: 40,
            task_k: 20,
            rounds: 150,
        }),
        workers: 2,
        adapt: AdaptSpec {
            k: 10,
            steps: 5,
            clients: 2,
            server_workers: 2,
            requests_per_block: 2_000,
        },
        concurrent: false,
    },
    Spec {
        name: "live_async_serve",
        why: "Async FedML T0=2, 200 actors, softmax 60x10, 1 worker, publishing every round while 1 closed-loop client adapts from the same SharedGlobal and FramePool: writer-vs-reader trade-offs show",
        data: Data::SharedSynthetic {
            dim: 60,
            classes: 10,
            model_dev: 0.3,
        },
        net: Net::Softmax,
        link: Link::Channel,
        async_mode: true,
        codec: UpdateCodec::None,
        nodes: 200,
        targets: 200,
        node_samples: &[12, 16, 20, 24, 32],
        target_samples: 30,
        task_k: 5,
        local_steps: 2,
        alpha: 0.05,
        beta: 0.3,
        rounds: 60,
        smoke_rounds: 6,
        target_frac: 0.3,
        quality: None,
        workers: 1,
        adapt: AdaptSpec {
            k: 10,
            steps: 3,
            clients: 1,
            server_workers: 1,
            requests_per_block: 0,
        },
        concurrent: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Everything a run needs, built from `(spec, seed)` alone.
pub struct Bench {
    pub spec: Spec,
    pub seed: u64,
    pub model: Arc<dyn Model>,
    pub tasks: Vec<SourceTask>,
    /// The source tasks of the quality pass, when the workload has one.
    pub quality_tasks: Option<Vec<SourceTask>>,
    pub targets: Vec<NodeData>,
    pub theta0: Vec<f64>,
    /// Distinct adapt requests the clients cycle through, with the
    /// support batch each was flattened from (for the offline oracle).
    pub requests: Vec<AdaptRequest>,
    pub supports: Vec<Batch>,
    /// Seconds spent inside the data generator alone.
    pub generate_s: f64,
}

impl Spec {
    /// The trainer for a schedule of `rounds` rounds.
    pub fn trainer(&self, rounds: usize) -> FedMl {
        FedMl::new(
            FedMlConfig::new(self.alpha, self.beta)
                .with_local_steps(self.local_steps)
                .with_rounds(rounds)
                .with_record_every(0)
                .with_threads(self.workers),
        )
    }

    /// The runtime configuration (barrier or async) under `seed`.
    pub fn runtime_config(&self, seed: u64) -> RuntimeConfig {
        let cfg = if self.async_mode {
            // Delays in [0.05, 2.05) rounds: every staleness 0..=2 occurs
            // and none exceeds the bound. Round 1 can only fold the
            // ~47 % of uploads that land inside it, so the quorum sits
            // below that: a by-design thin first round is not a fault.
            RuntimeConfig::async_mode(seed, AsyncPolicy::default().with_max_staleness(2))
                .with_clock(
                    VirtualClock::new(seed)
                        .with_base_delay(0.05)
                        .with_jitter(2.0),
                )
                .with_gather(fml_core::GatherPolicy::default().with_min_quorum(0.25))
        } else {
            RuntimeConfig::barrier(seed)
        };
        cfg.with_threads(self.workers).with_update_codec(self.codec)
    }

    fn generate(&self, total: usize, min_samples: usize, rng: &mut StdRng) -> Federation {
        let mean = min_samples as f64;
        match self.data {
            Data::SharedSynthetic {
                dim,
                classes,
                model_dev,
            } => SharedSyntheticConfig::new(model_dev, 0.5)
                .with_nodes(total)
                .with_dim(dim)
                .with_classes(classes)
                .with_mean_samples(mean)
                .with_min_samples(min_samples)
                .generate(rng),
            Data::Mnist { dim } => MnistLikeConfig {
                digits_per_node: 10,
                ..MnistLikeConfig::new()
            }
            .with_nodes(total)
            .with_dim(dim)
            .with_mean_samples(mean)
            .with_min_samples(min_samples)
            .generate(rng),
        }
    }

    fn build_model(&self, fed: &Federation) -> Arc<dyn Model> {
        match self.net {
            Net::Mlp { hidden } => Arc::new(
                MlpBuilder::new(fed.dim(), fed.classes())
                    .hidden(&[hidden])
                    .activation(Activation::Tanh)
                    .l2(1e-4)
                    .build()
                    .expect("valid MLP config"),
            ),
            Net::Softmax => {
                Arc::new(SoftmaxRegression::new(fed.dim(), fed.classes()).with_l2(1e-3))
            }
        }
    }

    /// Seeded set-up: generate the federation, split sources from
    /// held-out targets, cut every node to its literal sample count,
    /// draw the K-shot task splits, `θ0`, and the adapt requests.
    pub fn setup(&self, seed: u64) -> Bench {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = self.nodes + self.targets;
        let most = self
            .node_samples
            .iter()
            .copied()
            .chain(self.quality.map(|q| q.node_samples))
            .max()
            .expect("a workload has node sizes")
            .max(self.target_samples);
        let started = Instant::now();
        let fed = self.generate(total, most, &mut rng);
        let generate_s = started.elapsed().as_secs_f64();
        let model = self.build_model(&fed);

        // The half node keeps the float product clear of the floor.
        let frac = (self.nodes as f64 + 0.5) / total as f64;
        let (mut sources, mut targets) = fed.split_sources_targets(frac, &mut rng);
        assert_eq!(sources.len(), self.nodes, "source split");
        let quality_tasks = self.quality.map(|q| {
            let mut nodes = sources.clone();
            for node in &mut nodes {
                node.batch = node.batch.split_at(q.node_samples).0;
            }
            SourceTask::from_nodes(&nodes, q.task_k, &mut rng)
        });
        for (i, node) in sources.iter_mut().enumerate() {
            let keep = self.node_samples[i % self.node_samples.len()];
            node.batch = node.batch.split_at(keep).0;
        }
        for node in &mut targets {
            node.batch = node.batch.split_at(self.target_samples).0;
        }
        let tasks = SourceTask::from_nodes(&sources, self.task_k, &mut rng);
        let theta0 = model.init_params(&mut rng);

        let supports: Vec<Batch> = targets
            .iter()
            .map(|t| TaskSplit::sample(&t.batch, self.adapt.k, &mut rng).train)
            .collect();
        let requests = supports
            .iter()
            .enumerate()
            .map(|(i, b)| request_from_batch(i as u32, i as u32, self.alpha, self.adapt.steps, b))
            .collect();
        Bench {
            spec: *self,
            seed,
            model,
            tasks,
            quality_tasks,
            targets,
            theta0,
            requests,
            supports,
            generate_s,
        }
    }
}

/// Binds a TCP loopback listener, connects one link and accepts it —
/// the socket part of set-up — then drops all three.
pub fn socket_roundtrip() {
    let mut listener = TcpTransportListener::bind("127.0.0.1:0").expect("bind loopback");
    let link = TcpTransport::connect(&listener.local_addr()).expect("connect loopback");
    let accepted = listener
        .accept(Duration::from_secs(5))
        .expect("accept loopback");
    drop((link, accepted));
}
