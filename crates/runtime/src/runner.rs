//! The platform core's second driver: virtual time, with no thread of
//! its own, no sleep and no socket.
//!
//! [`SimRunner`] and [`crate::run_adaptive_fedml`] are two
//! configurations of it; they differ only in who takes part in a round
//! and how many local steps it runs. Each round the driver
//!
//! 1. selects the round's nodes in the core — [`SimRunner::run`] draws
//!    them before the broadcast, the adaptive controller takes everyone;
//! 2. broadcasts the global through the core, which skips every node its
//!    fault plan crashes or its health tracker has removed, and prices
//!    one [`Network::send_down`](fml_sim::Network::send_down) per node
//!    reached, in node order;
//! 3. answers the broadcast in-line with the actors' node step (decode,
//!    `local_update_into` with the round's `T0`, the plan's corrupt
//!    draw, encode into a pooled frame), fanned out over
//!    [`SimConfig::threads`];
//! 4. meters each node's compute at its [`EdgeProfile`] speed, prices one
//!    `send_up` per reply in node order, and offers the reply to the core
//!    at its virtual arrival: the node's downlink, compute and uplink
//!    after the round's start;
//! 5. hands the core the round's priced cost for its trace row, and
//!    closes the round — which the core may roll back, and the driver
//!    then runs again over the same participants.
//!
//! The fault stack is the core's too: the finite check, quorum and
//! rollback-and-exclude are decided there, under
//! [`SimRunner::with_faults`]' [`FaultTolerance`]; the driver adds no
//! decision of its own. Aggregation, the curve, the
//! history, the trace and the result are the core's, so under
//! [`SimConfig::ideal`] and the benign plan a run is
//! [`crate::Runtime::run`] bit for bit, and `train_from` too but for
//! Reptile's result, which its `train_from` takes without the final
//! re-average. A link is priced at the dense frame's
//! [`encoded_frame_len`] whether or not a reply carries its curve-terms
//! trailer.

use std::time::{Duration, Instant};

use bytes::Bytes;
use fml_core::parallel::map_ordered_with;
use fml_core::{FaultTolerance, LocalStepper, SourceTask, TrainOutput};
use fml_models::Model;
use fml_sim::message::{encode_global_into, encoded_frame_len};
use fml_sim::network::Transfer;
use fml_sim::{CommStats, ComputeStats, EdgeProfile, FramePool, SimConfig, SimOutput};
use rand::rngs::StdRng;
use rand::Rng;

use crate::actor::{step_reply, NodeSlot, StepScratch, WorkerCtx};
use crate::config::RuntimeConfig;
use crate::platform::core::{Core, RoundCost};

/// The simulator: a stepper's round schedule over the platform-aided
/// architecture, with [`SimConfig`]'s links, failures and compute model,
/// under a [`FaultTolerance`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRunner {
    cfg: SimConfig,
    /// The core's settings: a barrier round under the fault stack. The
    /// driver prices rounds.
    core: RuntimeConfig,
}

impl SimRunner {
    /// Creates a runner under the benign fault plan and the default
    /// gather policy: the exact path when every node takes part.
    pub fn new(cfg: SimConfig) -> Self {
        let core = RuntimeConfig::barrier(0);
        SimRunner { cfg, core }
    }

    /// Runs the core under `ft`: its plan's crash and corrupt draws, its
    /// gather policy at every round, and its rollback-and-exclude
    /// budget. A crashed, quarantined or excluded node is not stepped or
    /// priced, and a round the core rolls back runs again over the same
    /// draw of participants. A round that cannot recover degrades in
    /// place: the global stays, and the run goes on.
    pub fn with_faults(mut self, ft: FaultTolerance) -> Self {
        self.core.ft = ft;
        self
    }

    /// Simulates `stepper`'s schedule. With [`SimConfig::ideal`] and the
    /// benign plan the parameters and curve are those of
    /// [`crate::Runtime::run`] and of its `train_from` (but for Reptile's
    /// result, which its `train_from` takes without the final
    /// re-average): the simulator adds the systems layer without
    /// changing the algorithm.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn run(
        &self,
        stepper: &dyn LocalStepper,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        rng: &mut StdRng,
    ) -> SimOutput {
        self.train(stepper, model, tasks, theta0, rng).1
    }

    /// [`run`](Self::run), with the core's training output — its full
    /// history records — beside the meters.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn train(
        &self,
        stepper: &dyn LocalStepper,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        rng: &mut StdRng,
    ) -> (TrainOutput, SimOutput) {
        let mut driver = Driver::new(self, stepper, model, tasks, theta0);
        let mut selected = Vec::with_capacity(tasks.len());
        let mut rerun = false;
        while let Some(round) = driver.core.open_round() {
            if !rerun {
                self.draw(&driver.profiles, &mut selected, rng);
            }
            rerun = !driver.step(round, &selected, rng);
        }
        driver.finish()
    }

    /// Draws a round's participants into `into`, ascending: the
    /// platform's client sampling (McMahan's `C`) first, then
    /// device-side dropout among the sampled, a random node when nobody
    /// is left, and last the wait-fraction cut to the fastest profiles.
    fn draw(&self, profiles: &[EdgeProfile], into: &mut Vec<usize>, rng: &mut StdRng) {
        let (cfg, n) = (&self.cfg, profiles.len());
        into.clear();
        into.extend(0..n);
        if cfg.client_fraction < 1.0 {
            let want = ((cfg.client_fraction * n as f64).round() as usize).max(1);
            // Partial Fisher–Yates for the first `want` positions.
            for i in 0..want.min(n - 1) {
                let j = rng.gen_range(i..n);
                into.swap(i, j);
            }
            into.truncate(want);
            into.sort_unstable();
        }
        into.retain(|_| rng.gen::<f64>() >= cfg.dropout_prob);
        if into.is_empty() {
            into.push(rng.gen_range(0..n));
        }
        if cfg.wait_fraction < 1.0 && into.len() > 1 {
            let keep =
                ((cfg.wait_fraction * into.len() as f64).ceil() as usize).clamp(1, into.len());
            into.sort_by(|&a, &b| {
                profiles[b]
                    .speed
                    .partial_cmp(&profiles[a].speed)
                    .expect("finite speeds")
                    .then(a.cmp(&b))
            });
            into.truncate(keep);
            into.sort_unstable();
        }
    }
}

/// One simulated run: the core, what its nodes step with, and the
/// meters.
pub(crate) struct Driver<'a> {
    sim: &'a SimConfig,
    pub(crate) core: Core<'a>,
    ctx: WorkerCtx<'a>,
    pool: FramePool,
    /// Stragglers first, by node index.
    profiles: Vec<EdgeProfile>,
    comm: CommStats,
    compute: ComputeStats,
    /// Where the open round starts in virtual time.
    clock: Instant,
    /// The nodes the open round's broadcast reached, ascending.
    reached: Vec<usize>,
    /// When each reached node's reply leaves it in the open round: its
    /// downlink plus its compute.
    ready_s: Vec<f64>,
    /// The last round's replies, in node order, until the next round
    /// recycles them.
    pub(crate) replies: Vec<Bytes>,
}

impl<'a> Driver<'a> {
    /// A run of `stepper` over `runner`'s links and core settings.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub(crate) fn new(
        runner: &'a SimRunner,
        stepper: &'a dyn LocalStepper,
        model: &'a dyn Model,
        tasks: &'a [SourceTask],
        theta0: &[f64],
    ) -> Self {
        let (sim, cfg) = (&runner.cfg, &runner.core);
        let n = tasks.len();
        let mut profiles = vec![EdgeProfile { speed: 1.0 }; n];
        let stragglers = (sim.straggler_frac * n as f64).round() as usize;
        for profile in profiles.iter_mut().take(stragglers) {
            profile.speed = sim.straggler_speed;
        }
        Driver {
            sim,
            core: Core::new(cfg, stepper, model, tasks, theta0),
            ctx: WorkerCtx {
                stepper,
                model,
                tasks,
                cfg,
            },
            pool: FramePool::global().handle(),
            profiles,
            comm: CommStats::default(),
            compute: ComputeStats::default(),
            clock: Instant::now(),
            reached: Vec::with_capacity(n),
            ready_s: Vec::with_capacity(n),
            replies: Vec::new(),
        }
    }

    /// Runs the open round `round` over `selected` (ascending) and
    /// closes it: only the nodes the core's broadcast reaches are
    /// stepped and priced. `false` means the core rolled the round back
    /// and it must run again.
    pub(crate) fn step(&mut self, round: usize, selected: &[usize], rng: &mut StdRng) -> bool {
        for reply in self.replies.drain(..) {
            self.pool.recycle(reply);
        }
        let (sim, core, comm) = (self.sim, &mut self.core, &mut self.comm);
        core.select(selected);
        let len = encoded_frame_len(core.global().len());
        let mut buf = self.pool.acquire(len);
        encode_global_into(round as u32, core.global(), &mut buf);
        let frame = buf.freeze();
        let reached = &mut self.reached;
        reached.clear();
        core.broadcast(|node| {
            reached.push(node);
            true
        });
        let mut cost = RoundCost::default();
        let mut down_s = 0.0f64;
        self.ready_s.clear();
        for _ in reached.iter() {
            let t = sim.network.send_down(len, rng);
            comm.bytes_down += len as u64;
            charge(comm, &mut cost, len, t);
            down_s = down_s.max(t.time_s);
            self.ready_s.push(t.time_s);
        }
        // What the parked round's curve needs from the core, while the
        // nodes would compute.
        core.evaluate_parked();

        let (ctx, steps) = (&self.ctx, core.steps());
        let replies = map_ordered_with(
            sim.threads,
            reached,
            || StepScratch::new(ctx),
            |scratch, _, &node| {
                step_reply(ctx, node, &frame, steps, scratch, &mut NodeSlot::new(node))
                    .expect("a node answers its platform's broadcast")
            },
        );
        self.pool.recycle(frame);
        // The critical path is the slowest participant.
        let (grads, hvps) = ctx.stepper.oracle_calls();
        for (&node, ready) in reached.iter().zip(&mut self.ready_s) {
            let node_time = sim.iteration_time_s * steps as f64 / self.profiles[node].speed;
            cost.compute_time_s = cost.compute_time_s.max(node_time);
            *ready += node_time;
            self.compute.grad_evals += grads * steps as u64;
            self.compute.hvp_evals += hvps * steps as u64;
            self.compute.local_iterations += steps as u64;
        }
        self.compute.time_s += cost.compute_time_s;

        let mut up_s = 0.0f64;
        for (reply, ready) in replies.iter().zip(&self.ready_s) {
            let t = sim.network.send_up(len, rng);
            comm.bytes_up += len as u64;
            charge(comm, &mut cost, len, t);
            up_s = up_s.max(t.time_s);
            core.offer(reply, at(self.clock, ready + t.time_s));
        }
        cost.comm_time_s = down_s + up_s;
        comm.time_s += cost.comm_time_s;
        self.clock = at(self.clock, cost.comm_time_s + cost.compute_time_s);
        core.price(cost);
        self.replies = replies;
        core.close_round()
    }

    /// The core's training output, and the run's meters beside it.
    pub(crate) fn finish(self) -> (TrainOutput, SimOutput) {
        let (train, report) = self.core.finish();
        let rows = report.trace.rounds();
        let participants = rows.iter().map(|r| r.participants.len()).collect();
        let out = SimOutput {
            params: train.params.clone(),
            comm: self.comm,
            compute: self.compute,
            participants,
            history: train
                .history
                .iter()
                .map(|r| (r.iteration, r.meta_loss))
                .collect(),
            trace: report.trace,
        };
        (train, out)
    }
}

/// Meters one priced transfer of a `len`-byte frame: into the run's
/// totals and the round's trace row.
fn charge(comm: &mut CommStats, cost: &mut RoundCost, len: usize, t: Transfer) {
    comm.wire_bytes += t.wire_bytes as u64;
    comm.retransmissions += t.retransmissions as u64;
    comm.messages += 1;
    cost.bytes += len as u64;
    cost.retransmissions += t.retransmissions as u64;
}

/// `base` plus `secs` of virtual time. A time no `Duration` or
/// `Instant` holds — negative, not finite, or past the clock's range —
/// stays at `base`.
fn at(base: Instant, secs: f64) -> Instant {
    let later = Duration::try_from_secs_f64(secs).unwrap_or_default();
    base.checked_add(later).unwrap_or(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param_hash;
    use fml_core::{FaultPlan, FedAvg, FedAvgConfig, FedMl, FedMlConfig, GatherPolicy};
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, Quadratic, SoftmaxRegression};
    use rand::SeedableRng;

    fn quad_tasks(centers: &[(f64, f64)]) -> Vec<SourceTask> {
        let nodes: Vec<NodeData> = centers
            .iter()
            .enumerate()
            .map(|(id, &(a, b))| {
                let rows: Vec<Vec<f64>> = (0..4).map(|_| vec![a, b]).collect();
                let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
                NodeData {
                    id,
                    batch: Batch::regression(Matrix::from_rows(&refs).unwrap(), vec![0.0; 4])
                        .unwrap(),
                }
            })
            .collect();
        SourceTask::from_nodes_deterministic(&nodes, 2)
    }

    /// One stepper per algorithm on the seam, `t0` local steps × `rounds`.
    fn steppers(t0: usize, rounds: usize) -> Vec<Box<dyn LocalStepper>> {
        use fml_core::{FedProx, FedProxConfig, Reptile, ReptileConfig};
        vec![
            Box::new(FedMl::new(
                FedMlConfig::new(0.05, 0.05)
                    .with_local_steps(t0)
                    .with_rounds(rounds),
            )),
            Box::new(FedAvg::new(
                FedAvgConfig::new(0.05)
                    .with_local_steps(t0)
                    .with_rounds(rounds),
            )),
            Box::new(FedProx::new(
                FedProxConfig::new(0.05, 0.1)
                    .with_local_steps(t0)
                    .with_rounds(rounds),
            )),
            Box::new(Reptile::new(
                ReptileConfig::new(0.05, 0.5)
                    .with_inner_steps(t0)
                    .with_rounds(rounds),
            )),
        ]
    }

    #[test]
    fn ideal_sim_matches_sequential_fedml() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 2.0), (-2.0, 1.0), (0.5, -1.5)]);
        let cfg = FedMlConfig::new(0.1, 0.15)
            .with_local_steps(4)
            .with_rounds(10);
        let fedml = FedMl::new(cfg);
        let theta0 = vec![1.0, -1.0];
        let reference = fedml.train_from(&model, &tasks, &theta0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let sim = SimRunner::new(SimConfig::ideal()).run(&fedml, &model, &tasks, &theta0, &mut rng);
        assert!(
            fml_linalg::vector::approx_eq(&sim.params, &reference.params, 1e-12),
            "simulated and sequential FedML must agree: {:?} vs {:?}",
            sim.params,
            reference.params
        );
    }

    #[test]
    fn comm_accounting_matches_message_sizes() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(2)
            .with_rounds(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sim = SimRunner::new(SimConfig::edge()).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[0.0, 0.0],
            &mut rng,
        );
        // Each message: header + 2 f64 = 14 + 16 = 30 bytes; per round:
        // 2 downlinks + 2 uplinks; 3 rounds ⇒ 12 messages, 360 bytes.
        let frame = encoded_frame_len(2) as u64;
        assert_eq!(sim.comm.messages, 12);
        assert_eq!(sim.comm.bytes_down, 6 * frame);
        assert_eq!(sim.comm.bytes_up, 6 * frame);
        assert!(sim.comm.time_s > 0.0);
        assert!(sim.wall_clock_s() >= sim.comm.time_s);
    }

    #[test]
    fn compute_accounting_counts_oracles() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(5)
            .with_rounds(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sim = SimRunner::new(SimConfig::ideal()).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[0.0, 0.0],
            &mut rng,
        );
        // 2 nodes × 2 rounds × 5 iterations: 20 iterations, 40 grads, 20 HVPs.
        assert_eq!(sim.compute.local_iterations, 20);
        assert_eq!(sim.compute.grad_evals, 40);
        assert_eq!(sim.compute.hvp_evals, 20);
    }

    #[test]
    fn dropout_reduces_participation() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(2)
            .with_rounds(30);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sim = SimRunner::new(SimConfig::ideal().with_dropout(0.5)).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[0.0, 0.0],
            &mut rng,
        );
        let total: usize = sim.participants.iter().sum();
        assert!(total < 30 * 4, "dropout should reduce participation");
        // Whoever took part, a round moves one frame down and one up per
        // participant, and the ideal network adds nothing to either.
        for r in sim.trace.rounds() {
            let frames = 2 * r.participants.len() as u64;
            assert_eq!(r.bytes, frames * encoded_frame_len(2) as u64);
        }
        assert_eq!(sim.comm.total_bytes(), sim.trace.total_bytes());
        assert!(sim.participants.iter().all(|&p| p >= 1), "never empty");
        assert!(sim.params.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stragglers_increase_compute_critical_path() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(3)
            .with_rounds(5);
        let base = SimConfig::ideal().with_iteration_time(0.01);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(4);
        let fast = SimRunner::new(base).run(&FedMl::new(cfg), &model, &tasks, &[0.0; 2], &mut r1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(4);
        let slow = SimRunner::new(base.with_stragglers(0.25, 0.1)).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[0.0; 2],
            &mut r2,
        );
        assert!(
            slow.compute.time_s > 5.0 * fast.compute.time_s,
            "a 10x straggler should dominate the critical path: {} vs {}",
            slow.compute.time_s,
            fast.compute.time_s
        );
        // Same parameters — stragglers are slow, not wrong.
        assert!(fml_linalg::vector::approx_eq(
            &slow.params,
            &fast.params,
            1e-12
        ));
    }

    #[test]
    fn fedavg_simulation_runs() {
        let model = SoftmaxRegression::new(3, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
            .with_nodes(4)
            .with_dim(3)
            .with_classes(2)
            .generate(&mut rng);
        let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 3);
        let theta0 = vec![0.0; fml_models::Model::param_len(&model)];
        for stepper in steppers(3, 4) {
            let sim = SimRunner::new(SimConfig::edge()).run(
                stepper.as_ref(),
                &model,
                &tasks,
                &theta0,
                &mut rng,
            );
            let name = stepper.algorithm();
            assert_eq!(sim.history.len(), 4, "{name}");
            // Only FedML's second-order meta-gradient runs an HVP:
            // rounds · T0 · n of them.
            let hvps = if name == "FedML" { 4 * 3 * 4 } else { 0 };
            assert_eq!(sim.compute.hvp_evals, hvps, "{name}");
            assert!(sim.comm.total_bytes() > 0, "{name}");
            assert!(sim.params.iter().all(|v| v.is_finite()), "{name}");
        }
    }

    #[test]
    fn first_order_fedml_is_not_charged_hvps() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]);
        let run = |mode| {
            let cfg = FedMlConfig::new(0.1, 0.1)
                .with_local_steps(5)
                .with_rounds(2)
                .with_mode(mode);
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            SimRunner::new(SimConfig::ideal())
                .run(&FedMl::new(cfg), &model, &tasks, &[0.0, 0.0], &mut rng)
                .compute
        };
        let first = run(fml_core::MetaGradientMode::FirstOrder);
        let second = run(fml_core::MetaGradientMode::FullSecondOrder);
        assert_eq!(first.hvp_evals, 0, "FOMAML never calls the HVP oracle");
        assert_eq!(second.hvp_evals, 2 * 5 * 3, "rounds · T0 · n");
        assert_eq!(first.grad_evals, second.grad_evals);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[
            (1.0, 1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
            (0.0, 2.0),
        ]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(3)
            .with_rounds(6);
        let mut outs = Vec::new();
        for threads in [1, 2, 8] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let cfg_sim = SimConfig {
                threads,
                ..SimConfig::ideal()
            };
            let sim = SimRunner::new(cfg_sim).run(
                &FedMl::new(cfg),
                &model,
                &tasks,
                &[0.3, -0.3],
                &mut rng,
            );
            outs.push(sim.params);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn wait_fraction_drops_stragglers_and_cuts_wall_clock() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(4)
            .with_rounds(6);
        // Node 0 is a 10x straggler.
        let base = SimConfig::ideal()
            .with_iteration_time(0.01)
            .with_stragglers(0.25, 0.1);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(41);
        let sync = SimRunner::new(base).run(&FedMl::new(cfg), &model, &tasks, &[1.0, 1.0], &mut r1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(41);
        let partial = SimRunner::new(SimConfig {
            wait_fraction: 0.75,
            ..base
        })
        .run(&FedMl::new(cfg), &model, &tasks, &[1.0, 1.0], &mut r2);
        // The straggler (node id 0) never makes the cut.
        assert!(partial
            .trace
            .rounds()
            .iter()
            .all(|r| !r.participants.contains(&0)));
        assert!(partial.participants.iter().all(|&p| p == 3));
        // Wall clock improves by roughly the straggler's slowdown.
        assert!(
            partial.compute.time_s * 5.0 < sync.compute.time_s,
            "partial {} vs sync {}",
            partial.compute.time_s,
            sync.compute.time_s
        );
        // Training still converges (fewer nodes, same objective family).
        assert!(partial.history.last().unwrap().1 < partial.history.first().unwrap().1);
    }

    #[test]
    fn trace_is_coherent_with_meters() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(3)
            .with_rounds(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sim = SimRunner::new(SimConfig::edge()).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[0.5, -0.5],
            &mut rng,
        );
        assert_eq!(sim.trace.len(), 5);
        assert_eq!(sim.trace.total_bytes(), sim.comm.total_bytes());
        assert!((sim.trace.wall_clock_s() - sim.wall_clock_s()).abs() < 1e-9);
        for (r, h) in sim.trace.rounds().iter().zip(&sim.history) {
            assert_eq!(r.participants.len(), 3);
            assert_eq!(r.meta_loss, h.1);
            assert_eq!(r.local_steps, 3);
        }
    }

    #[test]
    #[should_panic(expected = "dropout must be in [0, 1)")]
    fn rejects_certain_dropout() {
        SimConfig::ideal().with_dropout(1.0);
    }

    #[test]
    fn client_sampling_limits_participation() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[
            (1.0, 0.0),
            (-1.0, 0.0),
            (0.0, 1.0),
            (0.0, -1.0),
            (1.0, 1.0),
            (-1.0, -1.0),
        ]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(2)
            .with_rounds(20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let sim = SimRunner::new(SimConfig {
            client_fraction: 0.5,
            ..SimConfig::ideal()
        })
        .run(&FedMl::new(cfg), &model, &tasks, &[0.0, 0.0], &mut rng);
        assert!(
            sim.participants.iter().all(|&p| p == 3),
            "C=0.5 of 6 nodes = 3 per round"
        );
        // Fewer participants ⇒ proportionally fewer uplink messages than
        // full participation.
        assert_eq!(sim.comm.messages, 20 * 2 * 3);
    }

    #[test]
    fn client_sampling_still_converges() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(2)
            .with_rounds(60);
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let sim = SimRunner::new(SimConfig {
            client_fraction: 0.5,
            ..SimConfig::ideal()
        })
        .run(&FedMl::new(cfg), &model, &tasks, &[3.0, 3.0], &mut rng);
        let first = sim.history.first().unwrap().1;
        let last = sim.history.last().unwrap().1;
        assert!(
            last < first,
            "sampled training should progress: {first} -> {last}"
        );
    }

    /// `n` nodes pulling toward `(1, 0)` and `(−1, 0)` in turn.
    fn alternating(n: usize) -> Vec<SourceTask> {
        let centers: Vec<(f64, f64)> = (0..n)
            .map(|i| (if i % 2 == 0 { 1.0 } else { -1.0 }, 0.0))
            .collect();
        quad_tasks(&centers)
    }

    /// `stepper` on the isotropic quadratic under `ft`, over an ideal
    /// network at `threads` workers.
    fn faulty(
        stepper: &dyn LocalStepper,
        tasks: &[SourceTask],
        theta0: &[f64],
        ft: FaultTolerance,
        threads: usize,
    ) -> TrainOutput {
        let model = Quadratic::isotropic(2, 1.0);
        let sim = SimConfig {
            threads,
            ..SimConfig::ideal()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        SimRunner::new(sim)
            .with_faults(ft)
            .train(stepper, &model, tasks, theta0, &mut rng)
            .0
    }

    /// FedAvg (rate 0.1, `T0` = 3) from `(2, −2)` for `rounds` rounds.
    fn fedavg(rounds: usize) -> FedAvg {
        FedAvg::new(
            FedAvgConfig::new(0.1)
                .with_local_steps(3)
                .with_rounds(rounds),
        )
    }

    /// Each round's `(reporters, degraded)`.
    fn shape(out: &TrainOutput) -> Vec<(usize, bool)> {
        out.history
            .iter()
            .map(|r| (r.reporters, r.degraded))
            .collect()
    }

    // The `param_hash` literals below were recorded from the in-process
    // fault loop this driver replaced, on the same scenarios.

    #[test]
    fn benign_plan_reports_everyone() {
        let tasks = alternating(4);
        let ft = FaultTolerance::new(FaultPlan::new(1));
        let out = faulty(&fedavg(5), &tasks, &[2.0, -2.0], ft, 2);
        assert_eq!(shape(&out), vec![(4, false); 5]);
        assert_eq!(out.local_iterations, 15);
        // A benign plan under the default policy is the exact path.
        let model = Quadratic::isotropic(2, 1.0);
        assert_eq!(out, fedavg(5).train_from(&model, &tasks, &[2.0, -2.0]));
    }

    #[test]
    fn minority_crash_still_finishes() {
        let plan = FaultPlan::new(2)
            .with_crash_from(0, 2)
            .with_crash_from(3, 2);
        let out = faulty(
            &fedavg(6),
            &alternating(6),
            &[2.0, -2.0],
            FaultTolerance::new(plan),
            2,
        );
        let mut want = vec![(4, true); 6];
        want[0] = (6, false);
        assert_eq!(shape(&out), want);
        assert_eq!(param_hash(&out.params), "12689aad28e58682");
    }

    #[test]
    fn corrupt_update_is_rejected_and_round_degraded() {
        let plan = FaultPlan::new(3).with_corrupt(1, 2);
        let out = faulty(
            &fedavg(4),
            &alternating(4),
            &[2.0, -2.0],
            FaultTolerance::new(plan),
            1,
        );
        assert_eq!(shape(&out), [(4, false), (3, true), (4, false), (4, false)]);
        assert_eq!(param_hash(&out.params), "41821853ef27bd47");
    }

    #[test]
    fn quorum_loss_recovers_by_exclusion() {
        // Three of four nodes die at round 2: 1 reporter < required 2 →
        // quorum lost → exclude the dead, re-run round 2 against the
        // 1-node fleet (required shrinks to 1) and finish.
        let plan = FaultPlan::new(4)
            .with_crash_from(0, 2)
            .with_crash_from(1, 2)
            .with_crash_from(2, 2);
        let out = faulty(
            &fedavg(5),
            &alternating(4),
            &[2.0, -2.0],
            FaultTolerance::new(plan),
            2,
        );
        let mut want = vec![(1, true); 5];
        want[0] = (4, false);
        assert_eq!(shape(&out), want);
        assert_eq!(param_hash(&out.params), "eb3025761239883a");
    }

    #[test]
    fn a_rolled_back_attempt_is_metered_in_its_round() {
        // Round 2 loses its quorum, rolls back and runs again on node 3
        // alone: its trace row carries both attempts' frames and time,
        // as the meters do.
        let model = Quadratic::isotropic(2, 1.0);
        let plan = FaultPlan::new(4)
            .with_crash_from(0, 2)
            .with_crash_from(1, 2)
            .with_crash_from(2, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let sim = SimRunner::new(SimConfig::edge())
            .with_faults(FaultTolerance::new(plan))
            .run(&fedavg(5), &model, &alternating(4), &[2.0, -2.0], &mut rng);
        let frame = encoded_frame_len(2) as u64;
        let bytes: Vec<u64> = sim.trace.rounds().iter().map(|r| r.bytes).collect();
        assert_eq!(
            bytes,
            [8 * frame, 4 * frame, 2 * frame, 2 * frame, 2 * frame]
        );
        assert_eq!(sim.trace.total_bytes(), sim.comm.total_bytes());
        assert!((sim.trace.wall_clock_s() - sim.wall_clock_s()).abs() < 1e-9);
    }

    #[test]
    fn a_rolled_back_attempt_is_counted_in_its_round_by_the_thread_driver() {
        // The same rollback on the actor fleet: the counted trace row of
        // round 2 holds both attempts' frames, as the per-node meters do.
        let model = Quadratic::isotropic(2, 1.0);
        let plan = FaultPlan::new(4)
            .with_crash_from(0, 2)
            .with_crash_from(1, 2)
            .with_crash_from(2, 2);
        let cfg = crate::RuntimeConfig::barrier(4)
            .with_threads(2)
            .with_faults(plan);
        let out = crate::Runtime::new(cfg).run(&fedavg(5), &model, &alternating(4), &[2.0, -2.0]);
        assert_eq!(out.report.rollbacks, 1);
        assert_eq!(out.report.trace.total_bytes(), out.report.total_bytes());
    }

    /// A run whose every node dies at `from`: each round from there on
    /// is unrecoverable, and degrades in place.
    fn everyone_dies(
        seed: u64,
        from: usize,
        rounds: usize,
        ft: impl Fn(FaultPlan) -> FaultTolerance,
    ) {
        let tasks = alternating(4);
        let plan = (0..4).fold(FaultPlan::new(seed), |p, node| {
            p.with_crash_from(node, from)
        });
        let out = faulty(&fedavg(rounds), &tasks, &[2.0, -2.0], ft(plan.clone()), 1);
        for (round, r) in (1..).zip(&out.history) {
            let lost = round >= from;
            assert_eq!(r.aggregated, !lost, "round {round}");
            assert_eq!(
                (r.reporters, r.degraded),
                if lost { (0, true) } else { (4, false) }
            );
        }
        assert_eq!(out.comm_rounds, from - 1);
        // The global stays where the last aggregated round left it.
        let before = faulty(&fedavg(from - 1), &tasks, &[2.0, -2.0], ft(plan), 1);
        assert_eq!(out.params, before.params);
    }

    #[test]
    fn quorum_loss_degrades_in_place_when_unrecoverable() {
        // All four crash from round 3: no exclusion can restore quorum.
        everyone_dies(5, 3, 5, FaultTolerance::new);
    }

    #[test]
    fn recovery_exhaustion_degrades_in_place() {
        // Every node dies at round 2, and no recovery is allowed.
        everyone_dies(7, 2, 4, |plan| {
            FaultTolerance::new(plan).with_max_recoveries(0)
        });
    }

    #[test]
    fn recovery_rolls_back_and_excludes() {
        // Round 2: nodes 0 and 1 die and node 2 uploads NaNs, leaving 2
        // clean reporters < required ceil(0.5·5) = 3 → quorum lost.
        // Recovery excludes {0, 1, 2}; the 2-node fleet needs only 1.
        let mut plan = FaultPlan::new(6)
            .with_crash_from(0, 2)
            .with_crash_from(1, 2);
        for round in 2..=8 {
            plan = plan.with_corrupt(2, round);
        }
        let ft = FaultTolerance::new(plan).with_max_recoveries(2);
        let out = faulty(&fedavg(8), &alternating(5), &[2.0, -2.0], ft, 2);
        let mut want = vec![(2, true); 8];
        want[0] = (5, false);
        assert_eq!(shape(&out), want);
        assert_eq!(param_hash(&out.params), "bcba249a32444b07");
    }

    /// Pinned on this driver before the round deadline went, with no
    /// straggle draw in the plan.
    #[test]
    fn thread_count_does_not_change_history() {
        let tasks = alternating(6);
        let plan = FaultPlan {
            crash_prob: 0.15,
            corrupt_prob: 0.1,
            ..FaultPlan::new(8)
        };
        let ft = FaultTolerance {
            policy: GatherPolicy::default().with_min_quorum(0.3),
            ..FaultTolerance::new(plan)
        };
        let a = faulty(&fedavg(8), &tasks, &[2.0, -2.0], ft.clone(), 1);
        let b = faulty(&fedavg(8), &tasks, &[2.0, -2.0], ft, 4);
        assert_eq!(a, b);
        let want = [
            (4, true),
            (5, true),
            (3, true),
            (4, true),
            (4, true),
            (6, false),
            (3, true),
            (3, true),
        ];
        assert_eq!(shape(&a), want);
        assert_eq!(param_hash(&a.params), "76620f2c68d26bd3");
    }

    #[test]
    fn crashed_minority_degrades_but_finishes() {
        let tasks = quad_tasks(&[(2.0, 0.0), (-2.0, 0.0), (1.0, 1.0), (-1.0, -1.0)]);
        let cfg = FedMlConfig::new(0.05, 0.05)
            .with_local_steps(2)
            .with_rounds(6);
        let plan = FaultPlan::new(9).with_crash_from(1, 3);
        let out = faulty(
            &FedMl::new(cfg),
            &tasks,
            &[1.0, 1.0],
            FaultTolerance::new(plan),
            4,
        );
        let mut want = vec![(3, true); 6];
        want[..2].fill((4, false));
        assert_eq!(shape(&out), want);
        assert_eq!(param_hash(&out.params), "c0af72a7086e8bcc");
    }
}
