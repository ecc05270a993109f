//! The round-based simulation executor.
//!
//! Each communication round:
//!
//! 1. the platform broadcasts the global model (downlink cost of one
//!    global-model frame per participating node);
//! 2. participating nodes run their `T0` local iterations from it —
//!    executed on real threads via [`fml_core::parallel`] so large
//!    federations use the host's cores;
//! 3. each node uploads its update (uplink cost of one update frame);
//! 4. the platform aggregates with size-proportional weights renormalized
//!    over the round's participants.
//!
//! The simulator prices frames, it does not build them: a link is
//! charged [`encoded_frame_len`] bytes — the length the wire encoders
//! append, held to them in `message`'s tests — and the floats are
//! handed on as they are, which is what an `f64` little-endian round
//! trip returns.
//!
//! Failure injection: per-round node dropout and deterministic straggler
//! assignment with a configurable slowdown; the synchronous-round
//! critical path (max over participants) is what accrues to simulated
//! wall-clock time, matching how stragglers hurt real federated systems.

use fml_core::{LocalStepper, Scratch, SourceTask};
use fml_models::Model;
use rand::rngs::StdRng;
use rand::Rng;

use crate::message::encoded_frame_len;
use crate::network::Network;
use crate::stats::{CommStats, ComputeStats};
use crate::trace::{RoundTrace, TraceLog};

/// Per-node execution profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeProfile {
    /// Relative compute speed (1.0 = nominal; stragglers < 1.0).
    pub speed: f64,
}

impl Default for EdgeProfile {
    fn default() -> Self {
        EdgeProfile { speed: 1.0 }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Network model charged for every message.
    pub network: Network,
    /// Per-node per-round dropout probability.
    pub dropout_prob: f64,
    /// Fraction `C` of clients the platform selects each round (McMahan
    /// et al.'s client sampling); 1.0 = all clients.
    pub client_fraction: f64,
    /// Fraction of nodes designated stragglers (assigned by index,
    /// deterministically).
    pub straggler_frac: f64,
    /// Straggler speed multiplier (e.g. 0.25 = 4× slower).
    pub straggler_speed: f64,
    /// Platform waits only for the fastest `wait_fraction` of the round's
    /// participants before aggregating; slower nodes' updates are dropped
    /// that round (straggler mitigation à la partial aggregation). 1.0 =
    /// synchronous (wait for everyone).
    pub wait_fraction: f64,
    /// Nominal seconds per local iteration on a speed-1.0 node.
    pub iteration_time_s: f64,
    /// Worker threads for parallel local updates.
    pub threads: usize,
}

impl SimConfig {
    /// A default edge deployment: asymmetric lossy links, no failures,
    /// 10 ms per local iteration, 4 worker threads.
    pub fn edge() -> Self {
        SimConfig {
            network: Network::edge(),
            dropout_prob: 0.0,
            client_fraction: 1.0,
            straggler_frac: 0.0,
            straggler_speed: 0.25,
            wait_fraction: 1.0,
            iteration_time_s: 0.01,
            threads: 4,
        }
    }

    /// An ideal deployment (free network, no failures) for equivalence
    /// testing against the sequential reference implementation.
    pub fn ideal() -> Self {
        SimConfig {
            network: Network::ideal(),
            dropout_prob: 0.0,
            client_fraction: 1.0,
            straggler_frac: 0.0,
            straggler_speed: 1.0,
            wait_fraction: 1.0,
            iteration_time_s: 0.0,
            threads: 4,
        }
    }

    /// Sets the dropout probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1)`.
    pub fn with_dropout(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout must be in [0, 1)");
        self.dropout_prob = p;
        self
    }

    /// Designates a fraction of nodes as stragglers with the given speed.
    ///
    /// # Panics
    ///
    /// Panics when `frac` is outside `[0, 1]` or `speed <= 0`.
    pub fn with_stragglers(mut self, frac: f64, speed: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "straggler fraction in [0, 1]");
        assert!(speed > 0.0, "straggler speed must be positive");
        self.straggler_frac = frac;
        self.straggler_speed = speed;
        self
    }

    /// Sets the nominal per-iteration compute time.
    pub fn with_iteration_time(mut self, secs: f64) -> Self {
        self.iteration_time_s = secs;
        self
    }
}

/// Result of a simulated federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// Final global parameters.
    pub params: Vec<f64>,
    /// Communication meter.
    pub comm: CommStats,
    /// Computation meter.
    pub compute: ComputeStats,
    /// Participant count per round.
    pub participants: Vec<usize>,
    /// `(round, weighted meta loss)` curve at aggregation points.
    pub history: Vec<(usize, f64)>,
    /// Per-round flight-recorder trace.
    pub trace: TraceLog,
}

impl SimOutput {
    /// Total simulated wall clock: communication + computation critical
    /// paths.
    pub fn wall_clock_s(&self) -> f64 {
        self.comm.time_s + self.compute.time_s
    }
}

/// The round-based executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRunner {
    cfg: SimConfig,
}

/// The per-run accumulator every simulated round loop carries: the
/// global model, the meters and the curves. Its methods are the phases
/// the loops share; each loop keeps inline only who takes part and how
/// the uploaded updates become the next global.
pub(crate) struct RunState<'a> {
    cfg: &'a SimConfig,
    stepper: &'a dyn LocalStepper,
    model: &'a dyn Model,
    tasks: &'a [SourceTask],
    profiles: Vec<EdgeProfile>,
    pub(crate) global: Vec<f64>,
    pub(crate) comm: CommStats,
    pub(crate) compute: ComputeStats,
    participants_per_round: Vec<usize>,
    pub(crate) history: Vec<(usize, f64)>,
    trace: TraceLog,
    /// What the per-round curve evaluation runs on.
    curve_scratch: Scratch,
}

/// One round in flight: the meter marks its trace row needs.
pub(crate) struct Flight {
    round: usize,
    steps: usize,
    down_time: f64,
    compute_time: f64,
    bytes_before: u64,
    retx_before: u64,
    comm_time_before: f64,
}

impl<'a> RunState<'a> {
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub(crate) fn new(
        cfg: &'a SimConfig,
        stepper: &'a dyn LocalStepper,
        model: &'a dyn Model,
        tasks: &'a [SourceTask],
        theta0: &[f64],
    ) -> Self {
        assert!(!tasks.is_empty(), "SimRunner: no source tasks");
        assert_eq!(theta0.len(), model.param_len(), "SimRunner: bad theta0");
        let n = tasks.len();
        // Stragglers are assigned by index, deterministically.
        let straggler_count = (cfg.straggler_frac * n as f64).round() as usize;
        let profiles = (0..n)
            .map(|i| EdgeProfile {
                speed: if i < straggler_count {
                    cfg.straggler_speed
                } else {
                    1.0
                },
            })
            .collect();
        RunState {
            cfg,
            stepper,
            model,
            tasks,
            profiles,
            global: theta0.to_vec(),
            comm: CommStats::default(),
            compute: ComputeStats::default(),
            participants_per_round: Vec::new(),
            history: Vec::new(),
            trace: TraceLog::new(),
            curve_scratch: Scratch::for_model(model),
        }
    }

    fn charge(&mut self, t: crate::network::Transfer) {
        self.comm.wire_bytes += t.wire_bytes as u64;
        self.comm.retransmissions += t.retransmissions as u64;
        self.comm.messages += 1;
    }

    /// Downlink: each participant is charged its own transfer of the
    /// global-model frame.
    pub(crate) fn broadcast(
        &mut self,
        round: usize,
        steps: usize,
        links: usize,
        rng: &mut StdRng,
    ) -> Flight {
        self.participants_per_round.push(links);
        let frame_len = encoded_frame_len(self.global.len());
        let mut flight = Flight {
            round,
            steps,
            down_time: 0.0,
            compute_time: 0.0,
            bytes_before: self.comm.bytes_up + self.comm.bytes_down,
            retx_before: self.comm.retransmissions,
            comm_time_before: self.comm.time_s,
        };
        for _ in 0..links {
            let t = self.cfg.network.send_down(frame_len, rng);
            self.comm.bytes_down += frame_len as u64;
            self.charge(t);
            flight.down_time = flight.down_time.max(t.time_s);
        }
        flight
    }

    /// Local updates from the broadcast global on real threads, in
    /// participant order at any thread count, plus compute accounting
    /// (critical path = slowest participant).
    pub(crate) fn local_updates(
        &mut self,
        flight: &mut Flight,
        participants: &[usize],
    ) -> Vec<Vec<f64>> {
        let (stepper, model, tasks, start) = (self.stepper, self.model, self.tasks, &self.global);
        let t0 = flight.steps;
        let updated = fml_core::parallel::map_ordered_with(
            self.cfg.threads,
            participants,
            || Scratch::for_model(model),
            |scratch, _, &i| {
                let mut update = Vec::new();
                stepper.local_update_into(model, &tasks[i], start, t0, scratch, &mut update);
                update
            },
        );
        let steps = t0 as u64;
        let (grads, hvps) = stepper.oracle_calls();
        for &i in participants {
            let node_time = self.cfg.iteration_time_s * steps as f64 / self.profiles[i].speed;
            flight.compute_time = flight.compute_time.max(node_time);
            self.compute.grad_evals += grads * steps;
            self.compute.hvp_evals += hvps * steps;
            self.compute.local_iterations += steps;
        }
        self.compute.time_s += flight.compute_time;
        updated
    }

    /// Uplink: each participant is charged the transfer of its update
    /// frame, in participant order; the round's communication latency
    /// is the slowest downlink plus the slowest uplink.
    pub(crate) fn upload(&mut self, flight: &Flight, updated: &[Vec<f64>], rng: &mut StdRng) {
        let mut up_time = 0.0f64;
        for update in updated {
            let frame_len = encoded_frame_len(update.len());
            let t = self.cfg.network.send_up(frame_len, rng);
            self.comm.bytes_up += frame_len as u64;
            self.charge(t);
            up_time = up_time.max(t.time_s);
        }
        self.comm.time_s += flight.down_time + up_time;
    }

    /// Closes the round once the loop has installed its new global:
    /// writes the trace row and returns the round's meta loss for the
    /// loop's own curve.
    pub(crate) fn finish(&mut self, flight: Flight, participants: &[usize]) -> f64 {
        let (meta_loss, _) = self.stepper.eval_losses_with(
            self.model,
            self.tasks,
            &self.global,
            &mut self.curve_scratch,
        );
        self.trace.push(RoundTrace {
            round: flight.round,
            participants: participants.iter().map(|&i| self.tasks[i].id).collect(),
            local_steps: flight.steps,
            bytes: self.comm.bytes_up + self.comm.bytes_down - flight.bytes_before,
            retransmissions: self.comm.retransmissions - flight.retx_before,
            comm_time_s: self.comm.time_s - flight.comm_time_before,
            compute_time_s: flight.compute_time,
            meta_loss,
            reporters: participants.len(),
            degraded: false,
        });
        meta_loss
    }

    fn into_output(self) -> SimOutput {
        SimOutput {
            params: self.global,
            comm: self.comm,
            compute: self.compute,
            participants: self.participants_per_round,
            history: self.history,
            trace: self.trace,
        }
    }
}

impl SimRunner {
    /// Creates a runner.
    pub fn new(cfg: SimConfig) -> Self {
        SimRunner { cfg }
    }

    /// Simulates `stepper`'s algorithm over the platform-aided
    /// architecture.
    ///
    /// With [`SimConfig::ideal`] and no failures a [`fml_core::FedMl`]
    /// stepper produces parameters identical to its `train_from`
    /// (verified in tests): the simulator adds the systems layer
    /// without changing the algorithm.
    pub fn run(
        &self,
        stepper: &dyn LocalStepper,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        rng: &mut StdRng,
    ) -> SimOutput {
        let cfg = &self.cfg;
        let n = tasks.len();
        let t0 = stepper.local_steps();
        let mut st = RunState::new(cfg, stepper, model, tasks, theta0);

        for round in 1..=stepper.rounds() {
            // --- participation draw ---
            // Platform-side client sampling (McMahan's C) first, then
            // device-side dropout among the selected clients.
            let mut selected: Vec<usize> = (0..n).collect();
            if cfg.client_fraction < 1.0 {
                let want = ((cfg.client_fraction * n as f64).round() as usize).max(1);
                // Partial Fisher–Yates for the first `want` positions.
                for i in 0..want.min(n - 1) {
                    let j = rng.gen_range(i..n);
                    selected.swap(i, j);
                }
                selected.truncate(want);
                selected.sort_unstable();
            }
            let mut participants: Vec<usize> = selected
                .into_iter()
                .filter(|_| rng.gen::<f64>() >= cfg.dropout_prob)
                .collect();
            if participants.is_empty() {
                participants.push(rng.gen_range(0..n));
            }
            // Straggler mitigation: keep only the fastest wait_fraction of
            // the round's participants (compute time = T0 / speed).
            if cfg.wait_fraction < 1.0 && participants.len() > 1 {
                let keep = ((cfg.wait_fraction * participants.len() as f64).ceil() as usize)
                    .clamp(1, participants.len());
                participants.sort_by(|&a, &b| {
                    st.profiles[b]
                        .speed
                        .partial_cmp(&st.profiles[a].speed)
                        .expect("finite speeds")
                        .then(a.cmp(&b))
                });
                participants.truncate(keep);
                participants.sort_unstable();
            }

            let mut flight = st.broadcast(round, t0, participants.len(), rng);
            let updated = st.local_updates(&mut flight, &participants);
            st.upload(&flight, &updated, rng);

            // --- platform aggregates (renormalized weights) ---
            let mut weight_sum = 0.0;
            let mut agg = vec![0.0; st.global.len()];
            for (update, &i) in updated.iter().zip(&participants) {
                debug_assert_eq!(update.len(), agg.len(), "update dimension mismatch");
                let w = tasks[i].weight;
                for (g, u) in agg.iter_mut().zip(update) {
                    *g += w * u;
                }
                weight_sum += w;
            }
            fml_linalg::vector::scale_in_place(1.0 / weight_sum, &mut agg);
            st.global = stepper.combine(&st.global, agg);

            let meta_loss = st.finish(flight, &participants);
            st.history.push((round, meta_loss));
        }
        st.into_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_core::{FedAvg, FedAvgConfig, FedMl, FedMlConfig};
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
        }).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[1.0, 1.0],
            &mut r2,
        );
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
        // JSON-lines roundtrip of a real trace.
        let back = crate::trace::TraceLog::from_jsonl(&sim.trace.to_jsonl()).unwrap();
        assert_eq!(back, sim.trace);
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
        }).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[0.0, 0.0],
            &mut rng,
        );
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
        }).run(
            &FedMl::new(cfg),
            &model,
            &tasks,
            &[3.0, 3.0],
            &mut rng,
        );
        let first = sim.history.first().unwrap().1;
        let last = sim.history.last().unwrap().1;
        assert!(
            last < first,
            "sampled training should progress: {first} -> {last}"
        );
    }
}
