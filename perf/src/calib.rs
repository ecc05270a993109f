//! Host-speed calibration.
//!
//! The hosts this series runs on change speed under the benchmark: the
//! same block of rounds takes 0.9 s in one minute and 2.1 s in another,
//! with CPU time tracking wall time, so it is the processor that slows,
//! not the scheduler. A fixed unit of arithmetic timed right after every
//! measured block slows by the same factor, and dividing it out leaves
//! the program's own cost.

use std::time::Instant;

/// Seconds the calibration unit takes on the reference host at full
/// speed. Only sets the scale: a host at half speed times the unit at
/// twice this and has its measurements halved back.
pub const REFERENCE_UNIT_S: f64 = 0.040;

/// Passes over the 64-lane accumulator per thread.
const UNIT_PASSES: u64 = 730_000;

/// Threads the unit keeps busy: both of the host's, as every workload
/// does.
const UNIT_THREADS: u64 = 2;

/// Runs the calibration unit — a fixed count of dependent multiply-adds
/// on each of two threads, none of it the program under test — and
/// returns how long it took.
pub fn unit_secs() -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for thread in 0..UNIT_THREADS {
            s.spawn(move || {
                let mut lanes = [1.0f64 + thread as f64; 64];
                for pass in 0..UNIT_PASSES {
                    for (k, x) in lanes.iter_mut().enumerate() {
                        *x = *x * 0.999_999 + (k as u64 + pass) as f64 * 1e-12;
                    }
                }
                std::hint::black_box(lanes);
            });
        }
    });
    started.elapsed().as_secs_f64()
}

/// Host speed readings of one run, each from one timing of the unit:
/// 1.0 at reference speed, 0.5 on a host taking twice as long. The unit
/// is only ever timed while the program under test is idle — between
/// blocks, after the trainer returned and the clients stopped sending —
/// so no reading depends on the code being measured.
#[derive(Debug, Default)]
pub struct SpeedLog {
    readings: Vec<f64>,
}

impl SpeedLog {
    /// Times the unit now and returns the host speed it shows.
    pub fn measure(&mut self) -> f64 {
        let speed = REFERENCE_UNIT_S / unit_secs();
        self.readings.push(speed);
        speed
    }

    /// Every reading, in the order taken.
    pub fn speeds(&self) -> &[f64] {
        &self.readings
    }
}
