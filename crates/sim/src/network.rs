//! Link models for the platform⇄edge network.
//!
//! Wireless uplinks at the edge are slow, lossy, and asymmetric; the
//! simulator charges every [`crate::message`] frame against these models to
//! produce the wall-clock and byte figures the `comm_cost` experiment
//! reports.

use rand::Rng;

/// Bandwidth of [`LinkModel::ideal`] in bytes per second.
///
/// A finite stand-in for "free": at 10^18 B/s even a 1 GB transfer costs
/// 10^-9 s — below every latency or deadline the simulator reasons about —
/// yet products like `attempt_time × attempts` stay comfortably finite
/// (an `f64::MAX`-scale sentinel would overflow to `inf` under such
/// arithmetic and corrupt wall-clock totals).
pub const IDEAL_BANDWIDTH_BPS: f64 = 1e18;

/// A point-to-point link: bandwidth, propagation latency, and independent
/// per-transfer loss probability (lost transfers are retransmitted until
/// they succeed and every attempt is charged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// One-way propagation latency in seconds.
    pub latency_s: f64,
    /// Probability a transfer attempt is lost.
    pub drop_prob: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics when bandwidth is not positive, latency is negative, or
    /// `drop_prob` is outside `[0, 1)`.
    pub fn new(bandwidth_bps: f64, latency_s: f64, drop_prob: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "LinkModel: bandwidth must be positive");
        assert!(latency_s >= 0.0, "LinkModel: latency must be non-negative");
        assert!(
            (0.0..1.0).contains(&drop_prob),
            "LinkModel: drop probability must be in [0, 1)"
        );
        LinkModel {
            bandwidth_bps,
            latency_s,
            drop_prob,
        }
    }

    /// A typical edge uplink: 1 MB/s, 20 ms, 1% loss.
    fn edge_uplink() -> Self {
        LinkModel::new(1e6, 0.02, 0.01)
    }

    /// A typical edge downlink: 5 MB/s, 20 ms, 0.5% loss.
    fn edge_downlink() -> Self {
        LinkModel::new(5e6, 0.02, 0.005)
    }

    /// An ideal link (for isolating computation effects).
    ///
    /// Uses [`IDEAL_BANDWIDTH_BPS`] rather than an `f64::MAX`-derived
    /// sentinel: arithmetic on near-MAX values (e.g. multiplying an
    /// attempt count into the transfer time) can overflow to infinity and
    /// poison downstream wall-clock sums, whereas 10^18 B/s keeps every
    /// realistic transfer below a nanosecond while staying safely inside
    /// finite arithmetic.
    pub fn ideal() -> Self {
        LinkModel::new(IDEAL_BANDWIDTH_BPS, 0.0, 0.0)
    }

    /// Time for one *successful* transfer attempt of `bytes`.
    fn attempt_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Outcome of simulating a transfer over a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Total simulated time including retransmissions, in seconds.
    pub time_s: f64,
    /// Bytes placed on the wire (payload × attempts).
    pub wire_bytes: usize,
    /// Number of attempts beyond the first.
    pub retransmissions: usize,
}

/// A pair of links (uplink and downlink) with a loss process driven by a
/// caller-supplied RNG, keeping simulations deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Network {
    /// Node → platform link.
    pub uplink: LinkModel,
    /// Platform → node link.
    pub downlink: LinkModel,
}

impl Network {
    /// Creates a network from two link models.
    pub fn new(uplink: LinkModel, downlink: LinkModel) -> Self {
        Network { uplink, downlink }
    }

    /// A typical asymmetric edge network.
    pub fn edge() -> Self {
        Network::new(LinkModel::edge_uplink(), LinkModel::edge_downlink())
    }

    /// An ideal network with no cost.
    pub fn ideal() -> Self {
        Network::new(LinkModel::ideal(), LinkModel::ideal())
    }

    /// Simulates sending `bytes` up to the platform.
    pub fn send_up<R: Rng + ?Sized>(&self, bytes: usize, rng: &mut R) -> Transfer {
        simulate(self.uplink, bytes, rng)
    }

    /// Simulates sending `bytes` down to a node.
    pub fn send_down<R: Rng + ?Sized>(&self, bytes: usize, rng: &mut R) -> Transfer {
        simulate(self.downlink, bytes, rng)
    }
}

fn simulate<R: Rng + ?Sized>(link: LinkModel, bytes: usize, rng: &mut R) -> Transfer {
    let mut attempts = 1;
    // Cap retransmissions to keep pathological drop rates bounded.
    while link.drop_prob > 0.0 && attempts < 64 && rng.gen::<f64>() < link.drop_prob {
        attempts += 1;
    }
    Transfer {
        time_s: link.attempt_time(bytes) * attempts as f64,
        wire_bytes: bytes * attempts,
        retransmissions: attempts - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn attempt_time_formula() {
        let l = LinkModel::new(1000.0, 0.5, 0.0);
        assert!((l.attempt_time(2000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn lossless_link_never_retransmits() {
        let net = Network::new(
            LinkModel::new(1e6, 0.01, 0.0),
            LinkModel::new(1e6, 0.01, 0.0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let t = net.send_up(1024, &mut rng);
            assert_eq!(t.retransmissions, 0);
            assert_eq!(t.wire_bytes, 1024);
        }
    }

    #[test]
    fn lossy_link_retransmits_sometimes() {
        let net = Network::new(LinkModel::new(1e6, 0.0, 0.5), LinkModel::edge_downlink());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let total_retx: usize = (0..200)
            .map(|_| net.send_up(100, &mut rng).retransmissions)
            .sum();
        assert!(
            total_retx > 50,
            "50% loss should cause many retransmissions"
        );
    }

    #[test]
    fn retransmission_inflates_time_and_bytes() {
        let link = LinkModel::new(100.0, 0.0, 0.9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = simulate(link, 100, &mut rng);
        assert_eq!(t.wire_bytes, 100 * (t.retransmissions + 1));
        assert!((t.time_s - (t.retransmissions + 1) as f64).abs() < 1e-9);
    }

    #[test]
    fn retransmissions_are_capped() {
        // drop_prob close to 1 must not loop forever.
        let link = LinkModel::new(100.0, 0.0, 0.999_999);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let t = simulate(link, 10, &mut rng);
        assert!(t.retransmissions < 64);
    }

    #[test]
    fn ideal_network_is_free() {
        let net = Network::ideal();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let t = net.send_down(1 << 20, &mut rng);
        assert!(t.time_s < 1e-9);
        assert_eq!(t.retransmissions, 0);
    }

    #[test]
    fn ideal_bandwidth_is_finite_under_arithmetic() {
        let l = LinkModel::ideal();
        assert!(l.bandwidth_bps.is_finite());
        // The failure mode of the old f64::MAX-based sentinel: scaling an
        // attempt time by a retransmission count must stay finite.
        let worst = l.attempt_time(usize::MAX) * 64.0;
        assert!(worst.is_finite());
        assert!(l.attempt_time(1 << 30) < 1e-8, "1 GB is still 'free'");
    }

    #[test]
    fn retransmission_count_matches_geometric_closed_form() {
        // Attempts repeat while a uniform draw falls below drop_prob, so
        // the retransmission count is geometric with success probability
        // (1 − p): E[retx] = p / (1 − p). The 64-attempt cap is
        // negligible at moderate p (P[retx ≥ 64] = p^64 ≈ 1e-39 here).
        let p = 0.25;
        let link = LinkModel::new(1e6, 0.0, p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 40_000;
        let total: u64 = (0..n)
            .map(|_| simulate(link, 64, &mut rng).retransmissions as u64)
            .sum();
        let mean = total as f64 / n as f64;
        let expected = p / (1.0 - p);
        // Var[retx] = p/(1−p)² ⇒ σ ≈ 0.667, SE ≈ 0.0033; ±0.02 is ~6 SE.
        assert!(
            (mean - expected).abs() < 0.02,
            "mean retransmissions {mean} vs geometric expectation {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        LinkModel::new(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn rejects_certain_loss() {
        LinkModel::new(1.0, 0.0, 1.0);
    }

    #[test]
    fn edge_profile_is_asymmetric() {
        let net = Network::edge();
        assert!(net.downlink.bandwidth_bps > net.uplink.bandwidth_bps);
    }
}
