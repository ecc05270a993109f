use fml_linalg::{softmax, vector};
use rand::{Rng, RngCore};

use crate::traits::batch_loss;
use crate::{Batch, Model, Prediction, Target, Workspace};

/// Multinomial logistic (softmax) regression with cross-entropy loss.
///
/// This is the model of the paper's **Synthetic** experiment
/// (`y = argmax(softmax(Wx + b))` with `x ∈ ℝ⁶⁰`, `W ∈ ℝ¹⁰ˣ⁶⁰`) and its
/// **MNIST** experiment ("a convex classification problem with MNIST using
/// multinomial logistic regression").
///
/// Parameter layout: the weight matrix `W` row-major (`classes × dim`)
/// followed by the bias vector `b` (`classes`), `classes·(dim+1)` values in
/// total. L2 decay applies to `W` only.
///
/// The per-sample Hessian has the Kronecker structure
/// `(diag(p) − ppᵀ) ⊗ x̃x̃ᵀ`, which the analytic [`Model::hvp`] exploits:
/// an HVP costs two matrix–vector products instead of materializing the
/// `c(d+1) × c(d+1)` Hessian. Through [`Model::grad_then_hvp_into`] it
/// costs one less: the HVP copies back the class probabilities the
/// gradient at the same `(θ, batch)` recorded, with the same bits as
/// `hvp_into`.
///
/// # Examples
///
/// ```
/// use fml_models::{Model, SoftmaxRegression};
///
/// let model = SoftmaxRegression::new(3, 4);
/// assert_eq!(model.param_len(), 4 * (3 + 1)); // W: 4x3, b: 4
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftmaxRegression {
    dim: usize,
    classes: usize,
    l2: f64,
}

impl SoftmaxRegression {
    /// Creates a softmax regressor over `dim` features and `classes`
    /// output classes.
    ///
    /// # Panics
    ///
    /// Panics when `classes < 2`.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(classes >= 2, "SoftmaxRegression: need at least 2 classes");
        SoftmaxRegression {
            dim,
            classes,
            l2: 0.0,
        }
    }

    /// Sets the L2 weight-decay coefficient (applied to `W` only).
    ///
    /// # Panics
    ///
    /// Panics when `l2 < 0`.
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "SoftmaxRegression: l2 must be non-negative");
        self.l2 = l2;
        self
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    fn check_label(&self, y: Target) -> usize {
        let c = y.expect_class();
        assert!(
            c < self.classes,
            "SoftmaxRegression: label {c} out of range for {} classes",
            self.classes
        );
        c
    }

    fn weight_len(&self) -> usize {
        self.classes * self.dim
    }

    /// The layer shape a [`Workspace`] for this model is built with.
    fn ws_dims(&self) -> [usize; 2] {
        [self.dim.max(1), self.classes]
    }

    /// The L2 term `½λ‖W‖²` of the loss.
    fn decay(&self, params: &[f64]) -> f64 {
        0.5 * self.l2 * vector::norm2_sq(&params[..self.weight_len()])
    }

    /// Writes the logit vector `Wx + b` into `z`.
    fn logits_into(&self, params: &[f64], x: &[f64], z: &mut [f64]) {
        let (w, b) = params.split_at(self.weight_len());
        vector::matvec_into(w, x, z);
        for (zk, bk) in z.iter_mut().zip(b) {
            *zk += bk;
        }
    }
}

impl Model for SoftmaxRegression {
    fn param_len(&self) -> usize {
        self.classes * (self.dim + 1)
    }

    fn input_dim(&self) -> usize {
        self.dim
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let scale = (1.0 / self.dim.max(1) as f64).sqrt();
        (0..self.param_len())
            .map(|_| rng.gen_range(-scale..scale))
            .collect()
    }

    fn workspace(&self) -> Workspace {
        Workspace::new(&self.ws_dims())
    }

    fn loss_with(&self, params: &[f64], batch: &Batch, ws: &mut Workspace) -> f64 {
        ws.check(&self.ws_dims());
        let reg = self.decay(params);
        let mut total = 0.0;
        for (x, y) in batch.iter() {
            self.logits_into(params, x, &mut ws.zs[0]);
            total += softmax::cross_entropy_logits(&ws.zs[0], self.check_label(y));
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
        let reg = self.decay(params);
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

    /// The gradient pass records each sample's class probabilities on the
    /// workspace's tape and the R-pass copies them back, where `hvp_into`
    /// computes the logits and the softmax again: the same values, so the
    /// same bits as the three calls.
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
        let reg = self.decay(params);
        let mut total = 0.0;
        self.replayed_hvp(params, batch, ws, buf, Some(&mut total), between, hv);
        batch_loss(total, batch.len(), reg)
    }

    fn sample_loss(&self, params: &[f64], x: &[f64], y: Target) -> f64 {
        let mut z = vec![0.0; self.classes];
        self.logits_into(params, x, &mut z);
        softmax::cross_entropy_logits(&z, self.check_label(y))
    }

    fn input_grad(&self, params: &[f64], x: &[f64], y: Target) -> Vec<f64> {
        let mut z = vec![0.0; self.classes];
        self.logits_into(params, x, &mut z);
        let r = softmax::cross_entropy_logits_grad(&z, self.check_label(y));
        // ∇_x = Wᵀ·(p − e_y)
        let mut g = vec![0.0; self.dim];
        for (k, &rk) in r.iter().enumerate() {
            vector::axpy(rk, &params[k * self.dim..(k + 1) * self.dim], &mut g);
        }
        g
    }

    fn predict(&self, params: &[f64], x: &[f64]) -> Prediction {
        let mut probs = vec![0.0; self.classes];
        self.logits_into(params, x, &mut probs);
        softmax::softmax_in_place(&mut probs);
        let label = vector::argmax(&probs).unwrap_or(0);
        Prediction::Class { label, probs }
    }
}

impl SoftmaxRegression {
    /// The gradient pass (adding each sample's loss to `loss` when it is
    /// given), `between`, and the HVP over the gradient's class
    /// probabilities.
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
    /// softmax's log-sum-exp) and recording its class probabilities on
    /// `tape`, when they are given.
    fn grad_pass(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        out: &mut [f64],
        mut loss: Option<&mut f64>,
        mut tape: Option<&mut Vec<f64>>,
    ) {
        ws.check(&self.ws_dims());
        assert_eq!(out.len(), self.param_len(), "grad_into: bad output length");
        out.fill(0.0);
        let c = self.classes;
        if let Some(tape) = tape.as_deref_mut() {
            if tape.len() < batch.len() * c {
                tape.resize(batch.len() * c, 0.0);
            }
        }
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (s, (x, y)) in batch.iter().enumerate() {
                let label = self.check_label(y);
                self.logits_into(params, x, &mut ws.zs[0]);
                // r = softmax(z) − e_label, hosted by ws.probs.
                ws.probs.copy_from_slice(&ws.zs[0]);
                match loss.as_deref_mut() {
                    Some(total) => {
                        *total += softmax::softmax_in_place_lse(&mut ws.probs) - ws.zs[0][label];
                    }
                    None => softmax::softmax_in_place(&mut ws.probs),
                }
                if let Some(tape) = tape.as_deref_mut() {
                    tape[s * c..(s + 1) * c].copy_from_slice(&ws.probs);
                }
                ws.probs[label] -= 1.0;
                for (k, &rk) in ws.probs.iter().enumerate() {
                    vector::axpy(rk * inv_n, x, &mut out[k * self.dim..(k + 1) * self.dim]);
                    out[self.weight_len() + k] += rk * inv_n;
                }
            }
        }
        let wl = self.weight_len();
        vector::axpy(self.l2, &params[..wl], &mut out[..wl]);
    }

    /// `hvp_into`, copying each sample's class probabilities from `tape`
    /// — which [`grad_pass`](Self::grad_pass) recorded at the same
    /// `(params, batch)` — when one is given, instead of computing them.
    fn hvp_pass(
        &self,
        params: &[f64],
        batch: &Batch,
        v: &[f64],
        ws: &mut Workspace,
        out: &mut [f64],
        tape: Option<&[f64]>,
    ) {
        ws.check(&self.ws_dims());
        assert_eq!(out.len(), self.param_len(), "hvp_into: bad output length");
        out.fill(0.0);
        let c = self.classes;
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (s, (x, _)) in batch.iter().enumerate() {
                match tape {
                    Some(tape) => ws.probs.copy_from_slice(&tape[s * c..(s + 1) * c]),
                    None => {
                        self.logits_into(params, x, &mut ws.zs[0]);
                        ws.probs.copy_from_slice(&ws.zs[0]);
                        softmax::softmax_in_place(&mut ws.probs);
                    }
                }
                // s_k = V_k·x + v_{b,k} — the directional logit
                // perturbation, hosted by ws.r_zs[0].
                self.logits_into(v, x, &mut ws.r_zs[0]);
                // u = (diag(p) − ppᵀ)·s = p∘s − p·(pᵀs), hosted by
                // ws.delta[0].
                let ps = vector::dot(&ws.probs, &ws.r_zs[0]);
                for ((u, &pk), &sk) in ws.delta[0].iter_mut().zip(&ws.probs).zip(&ws.r_zs[0]) {
                    *u = pk * (sk - ps);
                }
                for (k, &uk) in ws.delta[0].iter().enumerate() {
                    vector::axpy(uk * inv_n, x, &mut out[k * self.dim..(k + 1) * self.dim]);
                    out[self.weight_len() + k] += uk * inv_n;
                }
            }
        }
        let wl = self.weight_len();
        vector::axpy(self.l2, &v[..wl], &mut out[..wl]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use fml_linalg::Matrix;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn toy_batch() -> Batch {
        let xs = Matrix::from_rows(&[
            &[1.0, 0.0, 0.5],
            &[0.0, 1.0, -0.5],
            &[-1.0, -1.0, 0.0],
            &[0.5, 0.5, 1.0],
        ])
        .unwrap();
        Batch::classification(xs, vec![0, 1, 2, 1]).unwrap()
    }

    fn toy_params(model: &SoftmaxRegression, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        model.init_params(&mut rng)
    }

    #[test]
    fn param_layout() {
        let model = SoftmaxRegression::new(3, 4);
        assert_eq!(model.param_len(), 16);
        assert_eq!(model.input_dim(), 3);
        assert_eq!(model.classes(), 4);
    }

    #[test]
    fn grad_matches_numeric() {
        let model = SoftmaxRegression::new(3, 3).with_l2(0.02);
        let p = toy_params(&model, 3);
        assert!(check::grad_error(&model, &p, &toy_batch()) < 1e-6);
    }

    #[test]
    fn hvp_matches_finite_difference() {
        let model = SoftmaxRegression::new(3, 3).with_l2(0.02);
        let p = toy_params(&model, 4);
        let v: Vec<f64> = (0..model.param_len())
            .map(|i| ((i * 7 % 5) as f64 - 2.0) / 3.0)
            .collect();
        let err = check::hvp_error(&model, &p, &toy_batch(), &v);
        assert!(err < 1e-4, "hvp error {err}");
    }

    #[test]
    fn input_grad_matches_numeric() {
        let model = SoftmaxRegression::new(3, 3);
        let p = toy_params(&model, 5);
        let err = check::input_grad_error(&model, &p, &[0.2, -0.6, 0.9], Target::Class(2));
        assert!(err < 1e-6, "error {err}");
    }

    #[test]
    fn loss_at_zero_is_log_c() {
        let model = SoftmaxRegression::new(3, 3);
        let l = model.loss(&vec![0.0; model.param_len()], &toy_batch());
        assert!((l - (3.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn training_reaches_full_accuracy_on_separable_data() {
        let model = SoftmaxRegression::new(2, 3).with_l2(1e-4);
        let xs = Matrix::from_rows(&[
            &[2.0, 0.0],
            &[2.5, 0.2],
            &[0.0, 2.0],
            &[-0.2, 2.5],
            &[-2.0, -2.0],
            &[-2.5, -2.2],
        ])
        .unwrap();
        let batch = Batch::classification(xs, vec![0, 0, 1, 1, 2, 2]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut p = model.init_params(&mut rng);
        for _ in 0..800 {
            let g = model.grad(&p, &batch);
            vector::axpy(-0.5, &g, &mut p);
        }
        assert_eq!(model.accuracy(&p, &batch), 1.0);
    }

    #[test]
    fn predict_probs_sum_to_one() {
        let model = SoftmaxRegression::new(2, 4);
        let p = toy_params(&model, 6);
        if let Prediction::Class { probs, label } = model.predict(&p, &[0.5, -0.5]) {
            assert_eq!(probs.len(), 4);
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(label < 4);
        } else {
            panic!("expected class prediction");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_label() {
        let model = SoftmaxRegression::new(2, 3);
        let p = vec![0.0; model.param_len()];
        model.sample_loss(&p, &[0.0, 0.0], Target::Class(3));
    }

    #[test]
    fn hvp_zero_direction_is_zero() {
        let model = SoftmaxRegression::new(3, 3);
        let p = toy_params(&model, 8);
        let hv = model.hvp(&p, &toy_batch(), &vec![0.0; model.param_len()]);
        assert!(vector::norm2(&hv) < 1e-15);
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        // `grad`/`hvp`/`loss` build a fresh workspace per call; one
        // workspace reused across kernels and parameter points must give
        // the same bits. `grad_then_hvp_into` runs in between, on a batch
        // that shrinks, so its tape is both written by and left in the
        // reused workspace.
        let model = SoftmaxRegression::new(3, 3).with_l2(0.02);
        let batch = toy_batch();
        let mut ws = model.workspace();
        let mut out = vec![0.0; model.param_len()];
        let mut hv = vec![0.0; model.param_len()];
        for (seed, n) in [(5, 4), (6, 2)] {
            let p = toy_params(&model, seed);
            let v = toy_params(&model, seed + 500);
            model.grad_into(&p, &batch, &mut ws, &mut out);
            assert_eq!(out, model.grad(&p, &batch), "grad, seed {seed}");
            let (train, _) = batch.split_at(n);
            let g = model.grad(&p, &train);
            let mut set_v = |buf: &mut [f64], _: &mut Workspace| {
                assert_eq!(buf, &g[..], "grad_then_hvp gradient, seed {seed}");
                buf.copy_from_slice(&v);
            };
            model.grad_then_hvp_into(&p, &train, &mut ws, &mut out, &mut set_v, &mut hv);
            assert_eq!(out, v, "grad_then_hvp buf, seed {seed}");
            assert_eq!(
                hv,
                model.hvp(&p, &train, &v),
                "grad_then_hvp hv, seed {seed}"
            );
            let loss = model.loss_grad_into(&p, &batch, &mut ws, &mut out);
            assert_eq!(out, model.grad(&p, &batch), "loss_grad grad, seed {seed}");
            assert_eq!(
                loss.to_bits(),
                model.loss(&p, &batch).to_bits(),
                "seed {seed}"
            );
            model.hvp_into(&p, &batch, &v, &mut ws, &mut out);
            assert_eq!(out, model.hvp(&p, &batch, &v), "hvp, seed {seed}");
            assert_eq!(model.loss_with(&p, &batch, &mut ws), model.loss(&p, &batch));
        }
    }

    #[test]
    #[should_panic(expected = "Workspace shape mismatch")]
    fn foreign_workspace_is_rejected() {
        let model = SoftmaxRegression::new(3, 3);
        let p = toy_params(&model, 1);
        let mut ws = Workspace::new(&[4, 3]);
        let mut g = vec![0.0; model.param_len()];
        model.grad_into(&p, &toy_batch(), &mut ws, &mut g);
    }

    proptest! {
        #[test]
        fn prop_hessian_psd(seed in 0u64..50) {
            // Cross-entropy + L2 is convex ⇒ vᵀHv ≥ 0 everywhere.
            let model = SoftmaxRegression::new(3, 3).with_l2(0.01);
            let p = toy_params(&model, seed);
            let v: Vec<f64> = (0..model.param_len())
                .map(|i| (((seed as usize + i) * 31 % 11) as f64 - 5.0) / 5.0)
                .collect();
            let hv = model.hvp(&p, &toy_batch(), &v);
            prop_assert!(vector::dot(&v, &hv) >= -1e-9);
        }

        #[test]
        fn prop_grad_check_random_points(seed in 0u64..30) {
            let model = SoftmaxRegression::new(3, 3).with_l2(0.05);
            let p = toy_params(&model, seed + 100);
            prop_assert!(check::grad_error(&model, &p, &toy_batch()) < 1e-5);
        }
    }
}
