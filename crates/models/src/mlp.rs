use fml_linalg::{softmax, vector};
use rand::{Rng, RngCore};

use crate::traits::batch_loss;
use crate::workspace::{layer_spans, Span};
use crate::{Batch, Model, ModelError, Prediction, Result, Target, Workspace};

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit. Second derivative is 0 almost everywhere, so
    /// the R-operator HVP treats the kink measure-zero set as flat.
    Relu,
    /// Hyperbolic tangent — smooth, so HVPs are exact everywhere.
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
        }
    }

    /// First derivative at pre-activation `z`, read from the stored
    /// activation `a = apply(z)` where that saves work: tanh′ is `1 − a²`.
    #[inline]
    fn d1(self, z: f64, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
        }
    }

    /// Second derivative from the stored activation `a` and
    /// `d1 = self.d1(z, a)`: tanh″ is `−2a(1 − a²)`.
    #[inline]
    fn d2(self, a: f64, d1: f64) -> f64 {
        match self {
            Activation::Relu => 0.0,
            Activation::Tanh => -2.0 * a * d1,
        }
    }
}

/// A fully connected multi-layer perceptron classifier with a softmax
/// cross-entropy head.
///
/// This is the paper's Sent140 model family ("a network with 3 hidden
/// layers … followed by a linear layer and softmax"). The layer widths are
/// arbitrary; the paper's configuration is
/// `MlpBuilder::new(dim, classes).hidden(&[256, 128, 64])`.
///
/// Parameter layout: for each layer `l` (in order), the weight matrix
/// `W_l` (`out × in`, row-major) followed by the bias `b_l` (`out`). L2
/// decay applies to weights only.
///
/// The Hessian–vector product uses the **Pearlmutter R-operator** — a
/// forward pass propagating directional derivatives `R{z}`, `R{a}` and a
/// backward pass propagating `R{δ}` — so an HVP costs roughly two
/// backpropagations and is exact for smooth activations (see the tests,
/// which cross-check against central finite differences). Through
/// [`Model::grad_then_hvp_into`] it costs one forward pass less: the HVP
/// replays the forward pass the gradient at the same `(θ, batch)`
/// recorded, with the same bits as `hvp_into`.
///
/// # Examples
///
/// ```
/// use fml_models::{Activation, Model, MlpBuilder};
/// use rand::SeedableRng;
///
/// let mlp = MlpBuilder::new(8, 3)
///     .hidden(&[16, 8])
///     .activation(Activation::Tanh)
///     .l2(1e-4)
///     .build()?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let params = mlp.init_params(&mut rng);
/// assert_eq!(params.len(), mlp.param_len());
/// # Ok::<(), fml_models::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// `[input, hidden…, classes]`
    dims: Vec<usize>,
    activation: Activation,
    l2: f64,
}

/// Builder for [`Mlp`] (see type-level docs for an example).
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input: usize,
    classes: usize,
    hidden: Vec<usize>,
    activation: Activation,
    l2: f64,
}

impl MlpBuilder {
    /// Starts a builder for a classifier from `input` features to
    /// `classes` classes.
    pub fn new(input: usize, classes: usize) -> Self {
        MlpBuilder {
            input,
            classes,
            hidden: Vec::new(),
            activation: Activation::Relu,
            l2: 0.0,
        }
    }

    /// Sets the hidden-layer widths (empty = softmax regression shape).
    pub fn hidden(mut self, dims: &[usize]) -> Self {
        self.hidden = dims.to_vec();
        self
    }

    /// Sets the hidden activation.
    pub fn activation(mut self, a: Activation) -> Self {
        self.activation = a;
        self
    }

    /// Sets the L2 weight-decay coefficient.
    pub fn l2(mut self, l2: f64) -> Self {
        self.l2 = l2;
        self
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the input dimension is 0,
    /// fewer than 2 classes are requested, a hidden width is 0, or `l2` is
    /// negative.
    pub fn build(self) -> Result<Mlp> {
        if self.input == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "input dimension must be positive".into(),
            });
        }
        if self.classes < 2 {
            return Err(ModelError::InvalidConfig {
                reason: "need at least 2 classes".into(),
            });
        }
        if self.hidden.contains(&0) {
            return Err(ModelError::InvalidConfig {
                reason: "hidden layer width must be positive".into(),
            });
        }
        if self.l2 < 0.0 {
            return Err(ModelError::InvalidConfig {
                reason: "l2 must be non-negative".into(),
            });
        }
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(self.input);
        dims.extend_from_slice(&self.hidden);
        dims.push(self.classes);
        Ok(Mlp {
            dims,
            activation: self.activation,
            l2: self.l2,
        })
    }
}

impl Mlp {
    /// Number of layers (weight matrices).
    fn layer_count(&self) -> usize {
        self.dims.len() - 1
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        *self.dims.last().expect("dims nonempty")
    }

    /// `W_l·v + b_l` for layer `l`, reading from an arbitrary flat buffer
    /// (either parameters or an HVP direction), into a caller-provided
    /// buffer.
    fn affine_into(&self, buf: &[f64], l: usize, spans: &[Span], v: &[f64], out: &mut [f64]) {
        let (w0, w1, b0, b1) = spans[l];
        vector::matvec_into(&buf[w0..w1], v, out);
        for (o, b) in out.iter_mut().zip(&buf[b0..b1]) {
            *o += b;
        }
    }

    /// `W_lᵀ·d` for layer `l` from an arbitrary flat buffer, into a
    /// caller-provided buffer (zeroed first, then accumulated row by row).
    fn affine_t_into(&self, buf: &[f64], l: usize, spans: &[Span], d: &[f64], out: &mut [f64]) {
        let fan_in = self.dims[l];
        let (w0, _, _, _) = spans[l];
        out.fill(0.0);
        for (j, &dj) in d.iter().enumerate() {
            let row = &buf[w0 + j * fan_in..w0 + (j + 1) * fan_in];
            vector::axpy(dj, row, out);
        }
    }

    /// Forward pass into the workspace: fills `ws.acts` (`acts[0]` is the
    /// input) and `ws.zs` (the last holds the logits) without allocating.
    fn forward_ws(&self, params: &[f64], ws: &mut Workspace, x: &[f64]) {
        let lcount = self.layer_count();
        ws.acts[0].copy_from_slice(x);
        for l in 0..lcount {
            let (acts_done, acts_todo) = ws.acts.split_at_mut(l + 1);
            self.affine_into(params, l, &ws.spans, &acts_done[l], &mut ws.zs[l]);
            if l + 1 < lcount {
                for (a, &z) in acts_todo[0].iter_mut().zip(ws.zs[l].iter()) {
                    *a = self.activation.apply(z);
                }
            }
        }
    }

    /// [`forward_ws`](Self::forward_ws) plus the class probabilities
    /// `softmax(logits)` in `ws.probs`: the forward pass a backward pass
    /// or an R-pass reads. With `lse` it returns the logits'
    /// log-sum-exp, the term `cross_entropy_logits` takes the label's
    /// logit from; without, 0.
    fn forward_probs_ws(&self, params: &[f64], ws: &mut Workspace, x: &[f64], lse: bool) -> f64 {
        self.forward_ws(params, ws, x);
        ws.probs.copy_from_slice(&ws.zs[self.layer_count() - 1]);
        if lse {
            return softmax::softmax_in_place_lse(&mut ws.probs);
        }
        softmax::softmax_in_place(&mut ws.probs);
        0.0
    }

    /// The L2 term `½λ Σ_l ‖W_l‖²` of the loss.
    fn decay(&self, params: &[f64], spans: &[Span]) -> f64 {
        let mut reg = 0.0;
        if self.l2 > 0.0 {
            for &(w0, w1, _, _) in spans {
                reg += vector::norm2_sq(&params[w0..w1]);
            }
            reg *= 0.5 * self.l2;
        }
        reg
    }

    /// Backpropagates the sample whose forward pass `ws` holds (from
    /// [`forward_probs_ws`](Self::forward_probs_ws)), every intermediate
    /// living in `ws`. With `Some((weight, g))` it accumulates `weight`
    /// times the sample's parameter gradient into `g`; with `None` it
    /// leaves the input-space delta `W_0ᵀδ_0` (what `input_grad` returns)
    /// in `ws.pre[..input_dim]` instead. Each computes only what its
    /// caller reads.
    fn backward_sample_ws(
        &self,
        params: &[f64],
        ws: &mut Workspace,
        label: usize,
        mut grad: Option<(f64, &mut [f64])>,
    ) {
        let lcount = self.layer_count();
        ws.delta[lcount - 1].copy_from_slice(&ws.probs);
        ws.delta[lcount - 1][label] -= 1.0;
        for l in (0..lcount).rev() {
            let fan_in = self.dims[l];
            if let Some((weight, g)) = &mut grad {
                let (w0, _, b0, _) = ws.spans[l];
                let a_prev = &ws.acts[l];
                for (j, &dj) in ws.delta[l].iter().enumerate() {
                    vector::axpy(
                        *weight * dj,
                        a_prev,
                        &mut g[w0 + j * fan_in..w0 + (j + 1) * fan_in],
                    );
                    g[b0 + j] += *weight * dj;
                }
            }
            // `W_0ᵀδ_0` is the input-space delta: only `input_grad` reads it.
            if l == 0 && grad.is_some() {
                return;
            }
            self.affine_t_into(params, l, &ws.spans, &ws.delta[l], &mut ws.pre[..fan_in]);
            if l == 0 {
                return;
            }
            let (delta_lo, _) = ws.delta.split_at_mut(l);
            let stored = ws.zs[l - 1].iter().zip(&ws.acts[l]);
            for ((d, &p), (&z, &a)) in delta_lo[l - 1].iter_mut().zip(&ws.pre).zip(stored) {
                *d = p * self.activation.d1(z, a);
            }
        }
    }

    fn check_label(&self, y: Target) -> usize {
        let c = y.expect_class();
        assert!(
            c < self.classes(),
            "Mlp: label {c} out of range for {} classes",
            self.classes()
        );
        c
    }
}

impl Model for Mlp {
    fn param_len(&self) -> usize {
        (0..self.layer_count())
            .map(|l| self.dims[l] * self.dims[l + 1] + self.dims[l + 1])
            .sum()
    }

    fn input_dim(&self) -> usize {
        self.dims[0]
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let mut p = vec![0.0; self.param_len()];
        for (l, &(w0, w1, _, _)) in layer_spans(&self.dims).iter().enumerate() {
            // Xavier/Glorot uniform: U(−√(6/(fan_in+fan_out)), +…).
            let bound = (6.0 / (self.dims[l] + self.dims[l + 1]) as f64).sqrt();
            for v in &mut p[w0..w1] {
                *v = rng.gen_range(-bound..bound);
            }
            // Biases start at zero.
        }
        p
    }

    fn workspace(&self) -> Workspace {
        Workspace::new(&self.dims)
    }

    fn loss_with(&self, params: &[f64], batch: &Batch, ws: &mut Workspace) -> f64 {
        ws.check(&self.dims);
        let reg = self.decay(params, &ws.spans);
        let lcount = self.layer_count();
        let mut total = 0.0;
        for (x, y) in batch.iter() {
            let label = self.check_label(y);
            self.forward_ws(params, ws, x);
            total += softmax::cross_entropy_logits(&ws.zs[lcount - 1], label);
        }
        batch_loss(total, batch.len(), reg)
    }

    fn grad_into(&self, params: &[f64], batch: &Batch, ws: &mut Workspace, out: &mut [f64]) {
        self.grad_pass(params, batch, ws, out, None, None);
    }

    /// The gradient pass's softmax also returns each sample's
    /// log-sum-exp, so the loss is `lse − z_label` summed beside the
    /// gradient: the same bits as `loss_with`'s `cross_entropy_logits`.
    fn loss_grad_into(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        out: &mut [f64],
    ) -> f64 {
        let reg = self.decay(params, &ws.spans);
        let mut total = 0.0;
        self.grad_pass(params, batch, ws, out, Some(&mut total), None);
        batch_loss(total, batch.len(), reg)
    }

    fn hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        v: &[f64],
        ws: &mut Workspace,
        out: &mut [f64],
    ) {
        self.hvp_pass(params, batch, v, ws, out, None);
    }

    /// The gradient pass records each sample's forward pass on the
    /// workspace's tape and the R-pass replays it, where `hvp_into` runs
    /// it again: the same values, so the same bits as the three calls.
    fn grad_then_hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        buf: &mut [f64],
        between: &mut dyn FnMut(&mut [f64], &mut Workspace),
        hv: &mut [f64],
    ) {
        self.replayed_hvp(params, batch, ws, buf, None, between, hv);
    }

    /// [`grad_then_hvp_into`](Model::grad_then_hvp_into) whose gradient
    /// pass also sums the loss, as [`loss_grad_into`](Model::loss_grad_into)
    /// does.
    fn loss_grad_then_hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        buf: &mut [f64],
        between: &mut dyn FnMut(&mut [f64], &mut Workspace),
        hv: &mut [f64],
    ) -> f64 {
        let reg = self.decay(params, &ws.spans);
        let mut total = 0.0;
        self.replayed_hvp(params, batch, ws, buf, Some(&mut total), between, hv);
        batch_loss(total, batch.len(), reg)
    }

    fn sample_loss(&self, params: &[f64], x: &[f64], y: Target) -> f64 {
        let mut ws = self.workspace();
        self.forward_ws(params, &mut ws, x);
        softmax::cross_entropy_logits(&ws.zs[self.layer_count() - 1], self.check_label(y))
    }

    fn input_grad(&self, params: &[f64], x: &[f64], y: Target) -> Vec<f64> {
        let mut ws = self.workspace();
        let label = self.check_label(y);
        self.forward_probs_ws(params, &mut ws, x, false);
        self.backward_sample_ws(params, &mut ws, label, None);
        ws.pre[..self.dims[0]].to_vec()
    }

    fn predict(&self, params: &[f64], x: &[f64]) -> Prediction {
        let mut ws = self.workspace();
        self.forward_ws(params, &mut ws, x);
        let probs = softmax::softmax(&ws.zs[self.layer_count() - 1]);
        let label = vector::argmax(&probs).unwrap_or(0);
        Prediction::Class { label, probs }
    }
}

impl Mlp {
    /// The gradient pass (adding each sample's loss to `loss` when it is
    /// given), `between`, and the R-pass over the gradient's recorded
    /// forward pass.
    #[allow(clippy::too_many_arguments)]
    fn replayed_hvp(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        buf: &mut [f64],
        loss: Option<&mut f64>,
        between: &mut dyn FnMut(&mut [f64], &mut Workspace),
        hv: &mut [f64],
    ) {
        // The tape leaves the workspace for the call, so a `between` that
        // replays through the same workspace cannot overwrite this one.
        let mut tape = std::mem::take(&mut ws.tape);
        self.grad_pass(params, batch, ws, buf, loss, Some(&mut tape));
        between(buf, ws);
        self.hvp_pass(params, batch, buf, ws, hv, Some(&tape));
        ws.tape = tape;
    }

    /// `grad_into`, also adding each sample's loss to `loss` (from the
    /// softmax's log-sum-exp) and recording its forward pass on `tape`,
    /// when they are given.
    fn grad_pass(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        out: &mut [f64],
        mut loss: Option<&mut f64>,
        mut tape: Option<&mut Vec<f64>>,
    ) {
        ws.check(&self.dims);
        assert_eq!(out.len(), self.param_len(), "grad_into: bad output length");
        out.fill(0.0);
        let last = self.layer_count() - 1;
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (s, (x, y)) in batch.iter().enumerate() {
                let label = self.check_label(y);
                let lse = self.forward_probs_ws(params, ws, x, loss.is_some());
                if let Some(total) = loss.as_deref_mut() {
                    *total += lse - ws.zs[last][label];
                }
                self.backward_sample_ws(params, ws, label, Some((inv_n, &mut *out)));
                if let Some(tape) = tape.as_deref_mut() {
                    ws.record(tape, s);
                }
            }
        }
        if self.l2 > 0.0 {
            for &(w0, w1, _, _) in &ws.spans {
                vector::axpy(self.l2, &params[w0..w1], &mut out[w0..w1]);
            }
        }
    }

    /// `hvp_into`, replaying each sample's forward pass from `tape` —
    /// which [`grad_pass`](Self::grad_pass) recorded at the same
    /// `(params, batch)` — when one is given, instead of computing it.
    fn hvp_pass(
        &self,
        params: &[f64],
        batch: &Batch,
        v: &[f64],
        ws: &mut Workspace,
        out: &mut [f64],
        tape: Option<&[f64]>,
    ) {
        ws.check(&self.dims);
        assert_eq!(out.len(), self.param_len(), "hvp_into: bad output length");
        out.fill(0.0);
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (s, (x, y)) in batch.iter().enumerate() {
                let label = self.check_label(y);
                match tape {
                    Some(tape) => ws.replay(tape, s),
                    None => {
                        self.forward_probs_ws(params, ws, x, false);
                    }
                }
                self.r_op_sample_ws(params, ws, label, v, inv_n, out);
            }
        }
        // L2 contributes λ·v on weight coordinates.
        if self.l2 > 0.0 {
            for &(w0, w1, _, _) in &ws.spans {
                vector::axpy(self.l2, &v[w0..w1], &mut out[w0..w1]);
            }
        }
    }

    /// One sample's Pearlmutter R-operator pass over the forward pass
    /// `ws` holds (computed or replayed), accumulating
    /// `weight · ∇²l(θ,(x,y))·v` into `hv`, every intermediate hosted by
    /// the workspace.
    fn r_op_sample_ws(
        &self,
        params: &[f64],
        ws: &mut Workspace,
        label: usize,
        v: &[f64],
        weight: f64,
        hv: &mut [f64],
    ) {
        let lcount = self.layer_count();
        // --- R-forward ---
        ws.r_acts[0].fill(0.0); // R{input} = 0
        for l in 0..lcount {
            let fan_out = self.dims[l + 1];
            let (racts_done, racts_todo) = ws.r_acts.split_at_mut(l + 1);
            // R{z_l} = V_l a_{l−1} + c_l + W_l R{a_{l−1}}
            self.affine_into(v, l, &ws.spans, &ws.acts[l], &mut ws.r_zs[l]);
            // W_l · R{a_{l−1}} without bias, as affine minus bias: (d + b) − b
            // is not d in floating point and the pinned bits include the
            // subtraction, so it must stay.
            self.affine_into(params, l, &ws.spans, &racts_done[l], &mut ws.tmp[..fan_out]);
            let (_, _, b0, b1) = ws.spans[l];
            for (tj, bj) in ws.tmp[..fan_out].iter_mut().zip(&params[b0..b1]) {
                *tj -= bj;
            }
            vector::axpy(1.0, &ws.tmp[..fan_out], &mut ws.r_zs[l]);
            if l + 1 < lcount {
                let stored = ws.zs[l].iter().zip(&ws.acts[l + 1]);
                for ((ra, &r), (&z, &a)) in racts_todo[0].iter_mut().zip(&ws.r_zs[l]).zip(stored) {
                    *ra = self.activation.d1(z, a) * r;
                }
            }
        }
        // --- output deltas ---
        ws.delta[lcount - 1].copy_from_slice(&ws.probs);
        ws.delta[lcount - 1][label] -= 1.0;
        // R{δ_L} = (diag(p) − ppᵀ)·R{z_L}
        let ps = vector::dot(&ws.probs, &ws.r_zs[lcount - 1]);
        {
            let (rd_lo, rd_hi) = ws.r_delta.split_at_mut(lcount - 1);
            let _ = rd_lo;
            for (k, r) in rd_hi[0].iter_mut().enumerate() {
                *r = ws.probs[k] * (ws.r_zs[lcount - 1][k] - ps);
            }
        }
        // --- backward + R-backward ---
        for l in (0..lcount).rev() {
            let (w0, _, b0, _) = ws.spans[l];
            let fan_in = self.dims[l];
            {
                let a_prev = &ws.acts[l];
                let ra_prev = &ws.r_acts[l];
                for j in 0..ws.delta[l].len() {
                    // R{dW_l} = R{δ}·aᵀ + δ·R{a}ᵀ
                    let row = &mut hv[w0 + j * fan_in..w0 + (j + 1) * fan_in];
                    vector::axpy(weight * ws.r_delta[l][j], a_prev, row);
                    vector::axpy(weight * ws.delta[l][j], ra_prev, row);
                    hv[b0 + j] += weight * ws.r_delta[l][j];
                }
            }
            if l == 0 {
                break;
            }
            // pre = W_lᵀ δ;  R{pre} = V_lᵀ δ + W_lᵀ R{δ}
            self.affine_t_into(params, l, &ws.spans, &ws.delta[l], &mut ws.pre[..fan_in]);
            self.affine_t_into(v, l, &ws.spans, &ws.delta[l], &mut ws.r_pre[..fan_in]);
            self.affine_t_into(params, l, &ws.spans, &ws.r_delta[l], &mut ws.tmp[..fan_in]);
            vector::axpy(1.0, &ws.tmp[..fan_in], &mut ws.r_pre[..fan_in]);
            // δ_{l−1} = act'(z)∘pre
            // R{δ_{l−1}} = act''(z)∘R{z}∘pre + act'(z)∘R{pre}
            let (delta_lo, _) = ws.delta.split_at_mut(l);
            let (r_delta_lo, _) = ws.r_delta.split_at_mut(l);
            for i in 0..fan_in {
                let a = ws.acts[l][i];
                let d1 = self.activation.d1(ws.zs[l - 1][i], a);
                let d2 = self.activation.d2(a, d1);
                delta_lo[l - 1][i] = d1 * ws.pre[i];
                r_delta_lo[l - 1][i] = d2 * ws.r_zs[l - 1][i] * ws.pre[i] + d1 * ws.r_pre[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use fml_linalg::Matrix;
    use rand::SeedableRng;

    fn toy_batch() -> Batch {
        let xs = Matrix::from_rows(&[
            &[0.5, -0.2, 1.0],
            &[-0.7, 0.9, 0.1],
            &[0.2, 0.2, -0.5],
            &[1.2, -1.0, 0.3],
        ])
        .unwrap();
        Batch::classification(xs, vec![0, 1, 2, 1]).unwrap()
    }

    fn tanh_mlp() -> Mlp {
        MlpBuilder::new(3, 3)
            .hidden(&[5, 4])
            .activation(Activation::Tanh)
            .l2(0.01)
            .build()
            .unwrap()
    }

    fn seeded_params(m: &Mlp, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        m.init_params(&mut rng)
    }

    #[test]
    fn builder_validates() {
        assert!(MlpBuilder::new(0, 3).build().is_err());
        assert!(MlpBuilder::new(3, 1).build().is_err());
        assert!(MlpBuilder::new(3, 3).hidden(&[0]).build().is_err());
        assert!(MlpBuilder::new(3, 3).l2(-1.0).build().is_err());
        assert!(MlpBuilder::new(3, 3).hidden(&[4]).build().is_ok());
    }

    #[test]
    fn param_len_counts_all_layers() {
        let m = MlpBuilder::new(3, 2).hidden(&[4]).build().unwrap();
        // layer0: 4x3 + 4, layer1: 2x4 + 2 = 12+4+8+2 = 26
        assert_eq!(m.param_len(), 26);
        assert_eq!(m.layer_count(), 2);
        assert_eq!(m.classes(), 2);
    }

    #[test]
    fn zero_hidden_layer_mlp_matches_softmax_shape() {
        let m = MlpBuilder::new(4, 3).build().unwrap();
        assert_eq!(m.param_len(), 3 * 4 + 3);
    }

    #[test]
    fn grad_matches_numeric_tanh() {
        let m = tanh_mlp();
        let p = seeded_params(&m, 11);
        let err = check::grad_error(&m, &p, &toy_batch());
        assert!(err < 1e-5, "grad error {err}");
    }

    #[test]
    fn grad_matches_numeric_relu() {
        let m = MlpBuilder::new(3, 3)
            .hidden(&[6])
            .activation(Activation::Relu)
            .build()
            .unwrap();
        let p = seeded_params(&m, 13);
        let err = check::grad_error(&m, &p, &toy_batch());
        assert!(err < 1e-5, "grad error {err}");
    }

    #[test]
    fn pearlmutter_hvp_matches_finite_difference_tanh() {
        let m = tanh_mlp();
        let p = seeded_params(&m, 17);
        let v: Vec<f64> = (0..m.param_len())
            .map(|i| ((i * 13 % 7) as f64 - 3.0) / 7.0)
            .collect();
        let err = check::hvp_error(&m, &p, &toy_batch(), &v);
        assert!(err < 1e-4, "hvp error {err}");
    }

    #[test]
    fn pearlmutter_hvp_deep_network() {
        let m = MlpBuilder::new(3, 3)
            .hidden(&[8, 6, 4])
            .activation(Activation::Tanh)
            .build()
            .unwrap();
        let p = seeded_params(&m, 19);
        let v: Vec<f64> = (0..m.param_len())
            .map(|i| ((i * 29 % 11) as f64 - 5.0) / 11.0)
            .collect();
        let err = check::hvp_error(&m, &p, &toy_batch(), &v);
        assert!(err < 1e-4, "hvp error {err}");
    }

    #[test]
    fn hvp_zero_direction_is_zero() {
        let m = tanh_mlp();
        let p = seeded_params(&m, 23);
        let hv = m.hvp(&p, &toy_batch(), &vec![0.0; m.param_len()]);
        assert!(vector::norm2(&hv) < 1e-12);
    }

    #[test]
    fn hvp_is_linear_in_direction() {
        let m = tanh_mlp();
        let p = seeded_params(&m, 29);
        let batch = toy_batch();
        let v: Vec<f64> = (0..m.param_len()).map(|i| (i % 3) as f64 - 1.0).collect();
        let hv = m.hvp(&p, &batch, &v);
        let h2v = m.hvp(&p, &batch, &vector::scale(2.0, &v));
        assert!(vector::approx_eq(&h2v, &vector::scale(2.0, &hv), 1e-8));
    }

    #[test]
    fn input_grad_matches_numeric() {
        let m = tanh_mlp();
        let p = seeded_params(&m, 31);
        let err = check::input_grad_error(&m, &p, &[0.4, -0.6, 0.2], Target::Class(1));
        assert!(err < 1e-5, "input grad error {err}");
    }

    #[test]
    fn training_fits_xor() {
        // XOR is the canonical not-linearly-separable task: a linear model
        // cannot exceed 75%, an MLP reaches 100%.
        let m = MlpBuilder::new(2, 2)
            .hidden(&[8])
            .activation(Activation::Tanh)
            .build()
            .unwrap();
        let xs = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let batch = Batch::classification(xs, vec![0, 1, 1, 0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let mut p = m.init_params(&mut rng);
        for _ in 0..3000 {
            let g = m.grad(&p, &batch);
            vector::axpy(-0.5, &g, &mut p);
        }
        assert_eq!(m.accuracy(&p, &batch), 1.0, "MLP should solve XOR");
    }

    #[test]
    fn loss_at_init_near_log_c() {
        let m = MlpBuilder::new(3, 3)
            .hidden(&[4])
            .activation(Activation::Tanh)
            .build()
            .unwrap();
        let p = seeded_params(&m, 41);
        let l = m.loss(&p, &toy_batch());
        // Near-random logits ⇒ loss close to ln(3).
        assert!((l - (3.0f64).ln()).abs() < 1.0);
    }

    #[test]
    fn predict_probs_sum_to_one() {
        let m = tanh_mlp();
        let p = seeded_params(&m, 43);
        if let Prediction::Class { probs, .. } = m.predict(&p, &[0.1, 0.2, 0.3]) {
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        } else {
            panic!("expected class prediction");
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        // `grad`/`hvp`/`loss` build a fresh workspace per call; one
        // workspace reused across kernels and parameter points must give
        // the same bits, i.e. no kernel reads scratch it did not write.
        // `grad_then_hvp_into` runs in between, on a batch that shrinks,
        // so its tape is both written by and left in the reused workspace.
        let m = tanh_mlp();
        let batch = toy_batch();
        let mut ws = m.workspace();
        let mut out = vec![0.0; m.param_len()];
        let mut hv = vec![0.0; m.param_len()];
        for (seed, n) in [(53, 4), (54, 2)] {
            let p = seeded_params(&m, seed);
            let v = seeded_params(&m, seed + 100);
            m.grad_into(&p, &batch, &mut ws, &mut out);
            assert_eq!(out, m.grad(&p, &batch), "grad, seed {seed}");
            let (train, _) = batch.split_at(n);
            let g = m.grad(&p, &train);
            let mut set_v = |buf: &mut [f64], _: &mut Workspace| {
                assert_eq!(buf, &g[..], "grad_then_hvp gradient, seed {seed}");
                buf.copy_from_slice(&v);
            };
            m.grad_then_hvp_into(&p, &train, &mut ws, &mut out, &mut set_v, &mut hv);
            assert_eq!(out, v, "grad_then_hvp buf, seed {seed}");
            assert_eq!(hv, m.hvp(&p, &train, &v), "grad_then_hvp hv, seed {seed}");
            let loss = m.loss_grad_into(&p, &batch, &mut ws, &mut out);
            assert_eq!(out, m.grad(&p, &batch), "loss_grad grad, seed {seed}");
            assert_eq!(loss.to_bits(), m.loss(&p, &batch).to_bits(), "seed {seed}");
            m.hvp_into(&p, &batch, &v, &mut ws, &mut out);
            assert_eq!(out, m.hvp(&p, &batch, &v), "hvp, seed {seed}");
            assert_eq!(m.loss_with(&p, &batch, &mut ws), m.loss(&p, &batch));
        }
    }

    #[test]
    #[should_panic(expected = "Workspace shape mismatch")]
    fn foreign_workspace_is_rejected() {
        let m = tanh_mlp();
        let other = MlpBuilder::new(4, 2).hidden(&[3]).build().unwrap();
        let mut ws = Model::workspace(&other);
        let mut out = vec![0.0; m.param_len()];
        let p = seeded_params(&m, 59);
        m.grad_into(&p, &toy_batch(), &mut ws, &mut out);
    }

    #[test]
    fn biases_initialized_to_zero() {
        let m = MlpBuilder::new(2, 2).hidden(&[3]).build().unwrap();
        let p = seeded_params(&m, 47);
        // Layer 0 biases at offsets 6..9, layer 1 biases at 15..17.
        assert!(p[6..9].iter().all(|&v| v == 0.0));
        assert!(p[15..17].iter().all(|&v| v == 0.0));
    }
}
