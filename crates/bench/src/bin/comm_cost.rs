//! X3 — communication/computation trade-off across `T0`.
//!
//! Runs FedML through the platform simulator (`fml_runtime::SimRunner`) on
//! Synthetic(0.5,0.5) with a fixed iteration budget, sweeping `T0`.
//! Reports final meta loss, payload bytes on the wire, and simulated wall
//! clock. Expected shape: bytes fall roughly as `1/T0` (fewer rounds);
//! final loss rises with `T0` (Theorem 2's floor) — the paper's stated
//! motivation for letting the platform tune `T0`.

use fml_bench::{ExpArgs, Experiment, Series};
use fml_core::{FedMl, FedMlConfig};
use fml_models::Model;
use fml_runtime::SimRunner;
use fml_sim::{EnergyModel, SimConfig};
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let k = 5;
    let total_t = args.scale(200, 40);
    let setup = fml_bench::workloads::synthetic(0.5, 0.5, k, args.quick, args.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed + 100);
    let theta0 = setup.model.init_params(&mut rng);

    let t0s = [1usize, 2, 5, 10, 20];
    let mut final_loss = Vec::new();
    let mut mbytes = Vec::new();
    let mut wall = Vec::new();
    let mut joules = Vec::new();
    let mut notes = Vec::new();
    let energy = EnergyModel::edge_board();

    for &t0 in &t0s {
        let cfg = FedMlConfig::new(0.01, 0.01)
            .with_local_steps(t0)
            .with_total_iterations(total_t);
        let runner = SimRunner::new(SimConfig::edge().with_iteration_time(0.02));
        let mut sim_rng = rand::rngs::StdRng::seed_from_u64(args.seed + 7);
        let sim = runner.run(
            &FedMl::new(cfg),
            &setup.model,
            &setup.tasks,
            &theta0,
            &mut sim_rng,
        );
        let loss = sim.history.last().map(|&(_, g)| g).unwrap_or(f64::NAN);
        let bill = energy.price(&sim.comm, &sim.compute, sim.comm.time_s);
        final_loss.push(loss);
        mbytes.push(sim.comm.total_bytes() as f64 / 1e6);
        wall.push(sim.wall_clock_s());
        joules.push(bill.total_j());
        notes.push(format!(
            "T0={t0}: loss {loss:.4}, {:.2} MB payload, {:.1}s wall ({:.1}s comm + {:.1}s compute), {} retransmissions, {:.1} J ({:.0}% radio)",
            sim.comm.total_bytes() as f64 / 1e6,
            sim.wall_clock_s(),
            sim.comm.time_s,
            sim.compute.time_s,
            sim.comm.retransmissions,
            bill.total_j(),
            bill.radio_fraction() * 100.0
        ));
    }

    let x: Vec<f64> = t0s.iter().map(|&t| t as f64).collect();
    let mut exp = Experiment::new(
        "comm_cost",
        "Communication/computation trade-off vs T0 (simulated edge network)",
        "T0",
        "see series",
    );
    exp.note(format!(
        "Synthetic(0.5,0.5), T={total_t}, edge links (1 MB/s up, 5 MB/s down, lossy)"
    ));
    for n in notes {
        exp.note(n);
    }
    exp.push_series(Series::new("final meta loss", x.clone(), final_loss));
    exp.push_series(Series::new("payload MB", x.clone(), mbytes));
    exp.push_series(Series::new("wall clock s", x.clone(), wall));
    exp.push_series(Series::new("energy J", x, joules));
    exp.finish(&args);
}
