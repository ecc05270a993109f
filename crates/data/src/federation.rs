use fml_models::Batch;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

/// One edge node's local dataset `D_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeData {
    /// Stable node identifier.
    pub id: usize,
    /// The node's local samples.
    pub batch: Batch,
}

/// A named collection of per-node datasets — the federation the platform
/// coordinates.
///
/// # Examples
///
/// ```
/// use fml_data::synthetic::SyntheticConfig;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let fed = SyntheticConfig::new(0.5, 0.5).with_nodes(8).generate(&mut rng);
/// assert_eq!(fed.len(), 8);
/// let stats = fed.stats();
/// assert!(stats.mean_samples > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Federation {
    name: String,
    classes: usize,
    dim: usize,
    nodes: Vec<NodeData>,
}

impl Federation {
    /// Creates a federation from per-node datasets.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is empty or batches disagree on feature
    /// dimension.
    pub fn new(name: impl Into<String>, classes: usize, nodes: Vec<NodeData>) -> Self {
        assert!(!nodes.is_empty(), "Federation: need at least one node");
        let dim = nodes[0].batch.dim();
        assert!(
            nodes.iter().all(|n| n.batch.dim() == dim),
            "Federation: all nodes must share the feature dimension"
        );
        Federation {
            name: name.into(),
            classes,
            dim,
            nodes,
        }
    }

    /// Human-readable dataset name (e.g. `"Synthetic(0.5,0.5)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of label classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the federation has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow of all nodes.
    pub fn nodes(&self) -> &[NodeData] {
        &self.nodes
    }

    /// Borrow of one node.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn node(&self, i: usize) -> &NodeData {
        &self.nodes[i]
    }

    /// Total sample count across nodes.
    fn total_samples(&self) -> usize {
        self.nodes.iter().map(|n| n.batch.len()).sum()
    }

    /// Splits nodes into `(sources, targets)` with `source_frac` of nodes
    /// (rounded down, at least 1, at most n−1) used for meta-training —
    /// the paper uses 80/20.
    ///
    /// # Panics
    ///
    /// Panics when the federation has fewer than 2 nodes or `source_frac`
    /// is outside `(0, 1)`.
    pub fn split_sources_targets<R: Rng + ?Sized>(
        &self,
        source_frac: f64,
        rng: &mut R,
    ) -> (Vec<NodeData>, Vec<NodeData>) {
        assert!(self.len() >= 2, "need at least 2 nodes to split");
        assert!(
            source_frac > 0.0 && source_frac < 1.0,
            "source_frac must be in (0, 1)"
        );
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let n_src = ((self.len() as f64 * source_frac) as usize).clamp(1, self.len() - 1);
        let sources = order[..n_src]
            .iter()
            .map(|&i| self.nodes[i].clone())
            .collect();
        let targets = order[n_src..]
            .iter()
            .map(|&i| self.nodes[i].clone())
            .collect();
        (sources, targets)
    }

    /// Table-I statistics: node count, mean, and standard deviation of
    /// samples per node.
    pub fn stats(&self) -> FederationStats {
        let sizes: Vec<f64> = self.nodes.iter().map(|n| n.batch.len() as f64).collect();
        FederationStats {
            name: self.name.clone(),
            nodes: self.len(),
            total_samples: self.total_samples(),
            mean_samples: fml_linalg::stats::mean(&sizes),
            stdev_samples: fml_linalg::stats::std_dev(&sizes),
        }
    }
}

/// Summary statistics in the shape of the paper's Table I.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FederationStats {
    /// Dataset name.
    pub name: String,
    /// Number of nodes/devices.
    pub nodes: usize,
    /// Total samples across the federation.
    pub total_samples: usize,
    /// Mean samples per node.
    pub mean_samples: f64,
    /// Standard deviation of samples per node.
    pub stdev_samples: f64,
}

/// A node's K-shot support/query split: `D_i^train` (size `K`) and
/// `D_i^test` in the paper's notation.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSplit {
    /// The K-shot support set used for the inner adaptation step.
    pub train: Batch,
    /// The query set used for the meta (outer) update.
    pub test: Batch,
}

impl TaskSplit {
    /// Randomly splits `batch` into a `k`-sample support set and the
    /// remaining query set.
    ///
    /// When `k >= batch.len()`, all but one sample go to the support set so
    /// the query set is never empty (the paper assumes `|D_i| > K`).
    ///
    /// # Panics
    ///
    /// Panics when `batch` has fewer than 2 samples.
    pub fn sample<R: Rng + ?Sized>(batch: &Batch, k: usize, rng: &mut R) -> Self {
        assert!(batch.len() >= 2, "TaskSplit: need at least 2 samples");
        let k = k.min(batch.len() - 1).max(1);
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.shuffle(rng);
        let train = batch.select(&order[..k]);
        let test = batch.select(&order[k..]);
        TaskSplit { train, test }
    }

    /// Deterministic split taking the first `k` samples as support.
    ///
    /// # Panics
    ///
    /// Panics when `batch` has fewer than 2 samples.
    pub fn deterministic(batch: &Batch, k: usize) -> Self {
        assert!(batch.len() >= 2, "TaskSplit: need at least 2 samples");
        let k = k.min(batch.len() - 1).max(1);
        let (train, test) = batch.split_at(k);
        TaskSplit { train, test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_linalg::Matrix;
    use rand::SeedableRng;

    fn mini_federation(sizes: &[usize]) -> Federation {
        let nodes = sizes
            .iter()
            .enumerate()
            .map(|(id, &n)| {
                let xs = Matrix::zeros(n, 3);
                let labels = (0..n).map(|j| j % 2).collect();
                NodeData {
                    id,
                    batch: Batch::classification(xs, labels).unwrap(),
                }
            })
            .collect();
        Federation::new("mini", 2, nodes)
    }

    #[test]
    fn stats_match_sizes() {
        let fed = mini_federation(&[10, 20, 30]);
        let s = fed.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.total_samples, 60);
        assert!((s.mean_samples - 20.0).abs() < 1e-12);
        assert!((s.stdev_samples - 10.0).abs() < 1e-12);
    }

    #[test]
    fn split_sources_targets_partitions_nodes() {
        let fed = mini_federation(&[5; 10]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (src, tgt) = fed.split_sources_targets(0.8, &mut rng);
        assert_eq!(src.len(), 8);
        assert_eq!(tgt.len(), 2);
        let mut ids: Vec<usize> = src.iter().chain(&tgt).map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_always_leaves_a_target() {
        let fed = mini_federation(&[5, 5]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (src, tgt) = fed.split_sources_targets(0.99, &mut rng);
        assert_eq!(src.len(), 1);
        assert_eq!(tgt.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_federation_rejected() {
        Federation::new("empty", 2, Vec::new());
    }

    #[test]
    fn task_split_respects_k() {
        let fed = mini_federation(&[12]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let split = TaskSplit::sample(&fed.node(0).batch, 5, &mut rng);
        assert_eq!(split.train.len(), 5);
        assert_eq!(split.test.len(), 7);
    }

    #[test]
    fn task_split_clamps_large_k() {
        let fed = mini_federation(&[4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let split = TaskSplit::sample(&fed.node(0).batch, 10, &mut rng);
        assert_eq!(split.train.len(), 3);
        assert_eq!(split.test.len(), 1);
    }

    #[test]
    fn deterministic_split_is_stable() {
        let fed = mini_federation(&[6]);
        let a = TaskSplit::deterministic(&fed.node(0).batch, 2);
        let b = TaskSplit::deterministic(&fed.node(0).batch, 2);
        assert_eq!(a, b);
        assert_eq!(a.train.len(), 2);
    }
}
