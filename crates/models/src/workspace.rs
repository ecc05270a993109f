//! Reusable scratch buffers for zero-allocation model kernels.
//!
//! A batch kernel needs short-lived vectors for every *sample* —
//! activations, pre-activations, deltas, and their R-operator shadows —
//! and steady-state training calls the kernels thousands of times, so
//! allocating them per sample would put the allocator in the innermost
//! loop.
//!
//! A [`Workspace`] hoists all of that scratch out of the loop: it is
//! sized once from the model's layer dimensions and then reused across
//! samples, batches, and training iterations. The kernels
//! (`Model::loss_with`, `Model::grad_into`, `Model::hvp_into`) perform
//! **no heap allocation per sample**, and they are each model's only
//! copy of its arithmetic: `Model::loss`/`grad`/`hvp` are provided
//! methods that build a fresh workspace and call them. A workspace also
//! carries the tape `Model::grad_then_hvp_into` records a gradient's
//! forward passes on, grown to the largest batch it has seen.
//!
//! Workspaces are cheap to create (a handful of small vectors) and `Send`,
//! so parallel trainers can build one per worker thread.

/// Per-layer `(w_start, w_end, b_start, b_end)` view into a flat
/// parameter vector.
pub(crate) type Span = (usize, usize, usize, usize);

/// The parameter layout of a network with layer widths `dims`: for each
/// layer in order, the `out × in` weight matrix followed by the bias.
pub(crate) fn layer_spans(dims: &[usize]) -> Vec<Span> {
    let mut cursor = 0;
    dims.windows(2)
        .map(|d| {
            let w_end = cursor + d[0] * d[1];
            let span = (cursor, w_end, w_end, w_end + d[1]);
            cursor = span.3;
            span
        })
        .collect()
}

/// Scratch buffers for one model's forward/backward/R-operator passes.
///
/// Create one with [`Model::workspace`](crate::Model::workspace) (or
/// [`Workspace::new`] from the layer dimensions directly) and pass it to
/// `loss_with` / `grad_into` / `hvp_into`. A workspace is tied to the
/// layer shape it was built for; the kernels panic on mismatch rather
/// than corrupt buffers.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// `[input, hidden…, output]` — the shape this workspace serves.
    pub(crate) dims: Vec<usize>,
    /// Cached parameter-layout spans ([`layer_spans`] of `dims`).
    pub(crate) spans: Vec<Span>,
    /// Activations per layer: `acts[0]` is the input copy, `acts[l]` the
    /// post-activation of hidden layer `l` (`layer_count` entries).
    pub(crate) acts: Vec<Vec<f64>>,
    /// Pre-activations per layer (`layer_count` entries; the last holds
    /// the logits).
    pub(crate) zs: Vec<Vec<f64>>,
    /// R-operator shadows of `acts` / `zs`.
    pub(crate) r_acts: Vec<Vec<f64>>,
    /// R-operator shadows of `zs`.
    pub(crate) r_zs: Vec<Vec<f64>>,
    /// Backpropagated error per layer (`delta[l]` has the layer's output
    /// width).
    pub(crate) delta: Vec<Vec<f64>>,
    /// R-operator shadow of `delta`.
    pub(crate) r_delta: Vec<Vec<f64>>,
    /// `W_lᵀ·δ` scratch, sized to the widest layer.
    pub(crate) pre: Vec<f64>,
    /// R-operator shadow of `pre`.
    pub(crate) r_pre: Vec<f64>,
    /// General widest-layer scratch (`W·R{a}` in the R-forward pass,
    /// `W_lᵀ·R{δ}` in the R-backward pass).
    pub(crate) tmp: Vec<f64>,
    /// Class-probability scratch (softmax output width).
    pub(crate) probs: Vec<f64>,
    /// Forward passes a gradient pass recorded for the HVP at the same
    /// `(θ, batch)` (`Model::grad_then_hvp_into`): `Mlp`'s record `s` is
    /// sample `s`'s `acts`, `zs` and `probs` end to end,
    /// `SoftmaxRegression`'s its `probs` alone. Grown to the largest
    /// batch seen, then reused.
    pub(crate) tape: Vec<f64>,
}

impl Workspace {
    /// Builds a workspace for a network with layer widths
    /// `dims = [input, hidden…, output]`.
    ///
    /// # Panics
    ///
    /// Panics when `dims` has fewer than two entries or contains a zero
    /// width.
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "Workspace: need at least [input, output]");
        assert!(!dims.contains(&0), "Workspace: zero-width layer");
        let lcount = dims.len() - 1;
        let widest = *dims.iter().max().expect("dims nonempty");
        Workspace {
            dims: dims.to_vec(),
            spans: layer_spans(dims),
            acts: (0..lcount).map(|l| vec![0.0; dims[l]]).collect(),
            zs: (0..lcount).map(|l| vec![0.0; dims[l + 1]]).collect(),
            r_acts: (0..lcount).map(|l| vec![0.0; dims[l]]).collect(),
            r_zs: (0..lcount).map(|l| vec![0.0; dims[l + 1]]).collect(),
            delta: (0..lcount).map(|l| vec![0.0; dims[l + 1]]).collect(),
            r_delta: (0..lcount).map(|l| vec![0.0; dims[l + 1]]).collect(),
            pre: vec![0.0; widest],
            r_pre: vec![0.0; widest],
            tmp: vec![0.0; widest],
            probs: vec![0.0; dims[lcount]],
            tape: Vec::new(),
        }
    }

    /// A zero-capacity workspace for models whose kernels need no scratch
    /// (what the default `Model::workspace` returns).
    pub fn empty() -> Self {
        Workspace {
            dims: Vec::new(),
            spans: Vec::new(),
            acts: Vec::new(),
            zs: Vec::new(),
            r_acts: Vec::new(),
            r_zs: Vec::new(),
            delta: Vec::new(),
            r_delta: Vec::new(),
            pre: Vec::new(),
            r_pre: Vec::new(),
            tmp: Vec::new(),
            probs: Vec::new(),
            tape: Vec::new(),
        }
    }

    /// Copies the forward pass these buffers hold into record `s` of
    /// `tape`, growing the tape when it is shorter.
    pub(crate) fn record(&self, tape: &mut Vec<f64>, s: usize) {
        let len = self.record_len();
        if tape.len() < (s + 1) * len {
            tape.resize((s + 1) * len, 0.0);
        }
        let mut rest = &mut tape[s * len..];
        for buf in self.acts.iter().chain(&self.zs).chain([&self.probs]) {
            let (head, tail) = rest.split_at_mut(buf.len());
            head.copy_from_slice(buf);
            rest = tail;
        }
    }

    /// Copies record `s` of `tape` back into the forward-pass buffers.
    pub(crate) fn replay(&mut self, tape: &[f64], s: usize) {
        let mut rest = &tape[s * self.record_len()..];
        let bufs = self.acts.iter_mut().chain(&mut self.zs);
        for buf in bufs.chain([&mut self.probs]) {
            let (head, tail) = rest.split_at(buf.len());
            buf.copy_from_slice(head);
            rest = tail;
        }
    }

    /// One tape record's length: every forward-pass buffer.
    fn record_len(&self) -> usize {
        self.acts
            .iter()
            .chain(&self.zs)
            .map(Vec::len)
            .sum::<usize>()
            + self.probs.len()
    }

    /// Panics with a clear message unless this workspace was built for
    /// `dims`.
    #[inline]
    pub(crate) fn check(&self, dims: &[usize]) {
        assert_eq!(
            self.dims, dims,
            "Workspace shape mismatch: built for {:?}, model needs {:?}",
            self.dims, dims
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_buffers_from_dims() {
        let ws = Workspace::new(&[3, 5, 2]);
        assert_eq!(ws.acts.len(), 2);
        assert_eq!(ws.acts[0].len(), 3);
        assert_eq!(ws.acts[1].len(), 5);
        assert_eq!(ws.zs[0].len(), 5);
        assert_eq!(ws.zs[1].len(), 2);
        assert_eq!(ws.probs.len(), 2);
        assert_eq!(ws.pre.len(), 5);
        // spans: layer0 W 15 + b 5, layer1 W 10 + b 2.
        assert_eq!(ws.spans, vec![(0, 15, 15, 20), (20, 30, 30, 32)]);
    }

    #[test]
    fn empty_workspace_has_no_dims() {
        assert!(Workspace::empty().dims.is_empty());
    }

    #[test]
    #[should_panic(expected = "Workspace shape mismatch")]
    fn check_rejects_foreign_shape() {
        Workspace::new(&[3, 2]).check(&[4, 2]);
    }

    #[test]
    #[should_panic(expected = "zero-width layer")]
    fn rejects_zero_width() {
        Workspace::new(&[3, 0, 2]);
    }
}
