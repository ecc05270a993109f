//! Sample-count and label partitioning helpers.
//!
//! The paper follows FedProx's setup: "the number of samples on each node
//! follows a power law", and for MNIST "every node has samples of only two
//! digits". These helpers generate those partitions reproducibly.

use rand::Rng;

/// Draws per-node sample counts from a truncated Pareto (power-law)
/// distribution, then rescales so the empirical mean is approximately
/// `mean_target`.
///
/// Each count is at least `min_samples`. `shape` is the Pareto tail index:
/// smaller values give heavier tails (more skew across nodes); the
/// experiments use 2.0, which produces the mild skew visible in the
/// paper's Table I (e.g. mean 17 / stdev 5 for Synthetic).
///
/// # Panics
///
/// Panics when `nodes == 0`, `mean_target < min_samples`, or
/// `shape <= 1` (infinite mean).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sizes = fml_data::partition::power_law_sizes(50, 17.0, 2.0, 4, &mut rng);
/// assert_eq!(sizes.len(), 50);
/// assert!(sizes.iter().all(|&n| n >= 4));
/// ```
pub fn power_law_sizes<R: Rng + ?Sized>(
    nodes: usize,
    mean_target: f64,
    shape: f64,
    min_samples: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(nodes > 0, "power_law_sizes: need at least one node");
    assert!(
        mean_target >= min_samples as f64,
        "power_law_sizes: mean_target below min_samples"
    );
    assert!(shape > 1.0, "power_law_sizes: shape must exceed 1");
    let raw: Vec<f64> = (0..nodes).map(|_| crate::pareto(rng, shape)).collect();
    let raw_mean = fml_linalg::stats::mean(&raw);
    let scale = mean_target / raw_mean;
    raw.into_iter()
        .map(|v| ((v * scale).round() as usize).max(min_samples))
        .collect()
}

/// Assigns `labels_per_node` distinct class labels to each node.
///
/// Nodes are assigned contiguous label windows round-robin (node `i` gets
/// labels `{i, i+1, …} mod classes`), then each node's window is shuffled —
/// the deterministic analogue of FedProx's sort-and-shard MNIST partition
/// that guarantees every class appears and every node sees exactly
/// `labels_per_node` classes.
///
/// # Panics
///
/// Panics when `labels_per_node == 0` or exceeds `classes`.
pub fn label_windows<R: Rng + ?Sized>(
    nodes: usize,
    classes: usize,
    labels_per_node: usize,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(
        labels_per_node > 0,
        "label_windows: need at least one label"
    );
    assert!(
        labels_per_node <= classes,
        "label_windows: labels_per_node exceeds classes"
    );
    (0..nodes)
        .map(|i| {
            let mut window: Vec<usize> = (0..labels_per_node).map(|k| (i + k) % classes).collect();
            // Shuffle within the window so the "first" digit varies.
            for j in (1..window.len()).rev() {
                let k = rng.gen_range(0..=j);
                window.swap(j, k);
            }
            window
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn power_law_sizes_respects_min_and_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sizes = power_law_sizes(500, 34.0, 2.0, 5, &mut rng);
        assert_eq!(sizes.len(), 500);
        assert!(sizes.iter().all(|&n| n >= 5));
        let mean = sizes.iter().sum::<usize>() as f64 / 500.0;
        // Rounding + clamping shifts the mean slightly; stay within 25%.
        assert!((mean - 34.0).abs() < 8.5, "mean {mean}");
    }

    #[test]
    fn power_law_sizes_are_skewed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sizes = power_law_sizes(1000, 40.0, 1.5, 2, &mut rng);
        let max = *sizes.iter().max().unwrap();
        let med = {
            let mut s = sizes.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(
            max as f64 > 3.0 * med as f64,
            "power law should have a heavy tail: max {max}, median {med}"
        );
    }

    #[test]
    #[should_panic(expected = "shape must exceed 1")]
    fn power_law_rejects_infinite_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        power_law_sizes(10, 20.0, 1.0, 1, &mut rng);
    }

    #[test]
    fn label_windows_have_distinct_labels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let windows = label_windows(100, 10, 2, &mut rng);
        assert_eq!(windows.len(), 100);
        for w in &windows {
            assert_eq!(w.len(), 2);
            assert_ne!(w[0], w[1]);
            assert!(w.iter().all(|&c| c < 10));
        }
    }

    #[test]
    fn label_windows_cover_all_classes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let windows = label_windows(10, 10, 2, &mut rng);
        let mut seen = [false; 10];
        for w in &windows {
            for &c in w {
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all classes represented");
    }

    proptest! {
        #[test]
        fn prop_power_law_deterministic_given_seed(seed in 0u64..50) {
            let mut r1 = rand::rngs::StdRng::seed_from_u64(seed);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(seed);
            let a = power_law_sizes(20, 17.0, 2.0, 3, &mut r1);
            let b = power_law_sizes(20, 17.0, 2.0, 3, &mut r2);
            prop_assert_eq!(a, b);
        }
    }
}
