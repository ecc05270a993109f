//! Device energy accounting.
//!
//! The paper's opening motivation is that running AI on IoT devices naively
//! "would suffer from poor performance and energy inefficiency". The
//! simulator therefore prices every run in joules as well as seconds and
//! bytes, with the standard first-order device model:
//!
//! * **compute**: `P_compute · t_compute` per device (active-core power
//!   × busy time);
//! * **radio**: `E_tx · bytes_up + E_rx · bytes_down` (per-byte transmit /
//!   receive energy, the dominant radio cost for small frames);
//! * **idle listening**: `P_idle · t_wait` while a device waits for the
//!   round's stragglers before receiving the next broadcast.
//!
//! Defaults are in the range reported for Cortex-class edge boards with
//! an 802.11 radio; every knob is adjustable.

use crate::stats::{CommStats, ComputeStats};

/// Per-device energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Active compute power in watts.
    pub compute_power_w: f64,
    /// Transmit energy per byte, in joules.
    pub tx_j_per_byte: f64,
    /// Receive energy per byte, in joules.
    pub rx_j_per_byte: f64,
    /// Idle-listening power in watts.
    pub idle_power_w: f64,
}

impl EnergyModel {
    /// A Cortex-class edge board with Wi-Fi: 2 W active, 5 µJ/B transmit,
    /// 2.5 µJ/B receive, 0.4 W idle.
    pub fn edge_board() -> Self {
        EnergyModel {
            compute_power_w: 2.0,
            tx_j_per_byte: 5e-6,
            rx_j_per_byte: 2.5e-6,
            idle_power_w: 0.4,
        }
    }

    /// Prices a finished run: total fleet energy given the simulator's
    /// communication and computation meters.
    ///
    /// `idle_time_s` is the summed per-device waiting time (devices that
    /// finished early idling until aggregation); the [`crate::SimOutput`]
    /// critical-path model approximates it as
    /// `participants · comm_time` when not measured directly.
    pub fn price(&self, comm: &CommStats, compute: &ComputeStats, idle_time_s: f64) -> EnergyStats {
        let compute_j = self.compute_power_w * compute.time_s;
        let tx_j = self.tx_j_per_byte * comm.bytes_up as f64;
        let rx_j = self.rx_j_per_byte * comm.bytes_down as f64;
        let idle_j = self.idle_power_w * idle_time_s;
        EnergyStats {
            compute_j,
            tx_j,
            rx_j,
            idle_j,
        }
    }
}

/// A run's energy bill, by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyStats {
    /// Joules spent computing.
    pub compute_j: f64,
    /// Joules spent transmitting.
    pub tx_j: f64,
    /// Joules spent receiving.
    pub rx_j: f64,
    /// Joules spent idle-listening.
    pub idle_j: f64,
}

impl EnergyStats {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.tx_j + self.rx_j + self.idle_j
    }

    /// Fraction of the bill spent on the radio (tx + rx); 0 when the
    /// total is 0.
    pub fn radio_fraction(&self) -> f64 {
        let total = self.total_j();
        if total == 0.0 {
            return 0.0;
        }
        (self.tx_j + self.rx_j) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meters() -> (CommStats, ComputeStats) {
        (
            CommStats {
                bytes_up: 1_000_000,
                bytes_down: 2_000_000,
                wire_bytes: 3_100_000,
                messages: 100,
                retransmissions: 3,
                time_s: 4.0,
            },
            ComputeStats {
                grad_evals: 200,
                hvp_evals: 100,
                local_iterations: 100,
                time_s: 10.0,
            },
        )
    }

    #[test]
    fn pricing_formula() {
        let (comm, compute) = meters();
        let e = EnergyModel::edge_board().price(&comm, &compute, 5.0);
        assert!((e.compute_j - 20.0).abs() < 1e-9);
        assert!((e.tx_j - 5.0).abs() < 1e-9);
        assert!((e.rx_j - 5.0).abs() < 1e-9);
        assert!((e.idle_j - 2.0).abs() < 1e-9);
        assert!((e.total_j() - 32.0).abs() < 1e-9);
        assert!((e.radio_fraction() - 10.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn free_model_charges_nothing() {
        let (comm, compute) = meters();
        let free = EnergyModel {
            compute_power_w: 0.0,
            tx_j_per_byte: 0.0,
            rx_j_per_byte: 0.0,
            idle_power_w: 0.0,
        };
        let e = free.price(&comm, &compute, 100.0);
        assert_eq!(e.total_j(), 0.0);
        assert_eq!(e.radio_fraction(), 0.0);
    }

    #[test]
    fn larger_t0_shifts_energy_from_radio_to_compute() {
        // Same iteration budget: T0=10 sends 1/10 the bytes but computes
        // the same — its radio fraction must be smaller.
        let model = EnergyModel::edge_board();
        let per_round_bytes = 100_000u64;
        let bill = |rounds: u64| {
            let comm = CommStats {
                bytes_up: rounds * per_round_bytes,
                bytes_down: rounds * per_round_bytes,
                wire_bytes: 2 * rounds * per_round_bytes,
                messages: rounds * 2,
                retransmissions: 0,
                time_s: rounds as f64 * 0.1,
            };
            let compute = ComputeStats {
                grad_evals: 2000,
                hvp_evals: 1000,
                local_iterations: 1000,
                time_s: 10.0,
            };
            model.price(&comm, &compute, 0.0)
        };
        let t0_1 = bill(100);
        let t0_10 = bill(10);
        assert!(t0_10.total_j() < t0_1.total_j());
        assert!(t0_10.radio_fraction() < t0_1.radio_fraction());
    }
}
