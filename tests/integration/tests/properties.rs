//! Cross-crate property-based tests: invariants that must hold for *any*
//! federation/model drawn from a family, not just the fixtures the unit
//! tests pin down.

use fml_core::{adapt, aggregate, FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::NodeData;
use fml_dro::{RobustSurrogate, SquaredL2Cost};
use fml_integration::{global_frame, prefix_frame, update_frame};
use fml_linalg::{vector, Matrix};
use fml_models::{
    Activation, Batch, LinearRegression, LogisticRegression, MlpBuilder, Model, Quadratic,
    SoftmaxRegression, Target, Workspace,
};
use fml_sim::{FrameBuffer, FrameError, FramePool, MessageView, LENGTH_PREFIX_LEN, MAX_FRAME_LEN};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Random quadratic federation: `nodes` centers in `[-3, 3]²`.
fn quad_federation(centers: Vec<(f64, f64)>) -> Vec<SourceTask> {
    let nodes: Vec<NodeData> = centers
        .into_iter()
        .enumerate()
        .map(|(id, (a, b))| {
            let rows: Vec<Vec<f64>> = (0..4).map(|_| vec![a, b]).collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            NodeData {
                id,
                batch: Batch::regression(Matrix::from_rows(&refs).unwrap(), vec![0.0; 4]).unwrap(),
            }
        })
        .collect();
    SourceTask::from_nodes_deterministic(&nodes, 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FedML with T0 = 1 must equal centralized meta-gradient descent for
    /// any federation of shared-curvature quadratics (the affine-dynamics
    /// argument of DESIGN.md's reproduction finding 2).
    #[test]
    fn prop_t0_one_equals_centralized(
        centers in proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 2..6),
        curvature in 0.5f64..2.0,
    ) {
        let model = Quadratic::isotropic(2, curvature);
        let tasks = quad_federation(centers);
        let cfg = FedMlConfig::new(0.1, 0.1).with_local_steps(1).with_rounds(10);
        let fed = FedMl::new(cfg).train_from(&model, &tasks, &[1.0, -1.0]);
        let (central, _) = FedMl::new(cfg).centralized_optimum(&model, &tasks, &[1.0, -1.0], 10);
        prop_assert!(vector::approx_eq(&fed.params, &central, 1e-9));
    }

    /// The platform aggregation must be permutation-invariant: the global
    /// model cannot depend on the order nodes report in.
    #[test]
    fn prop_aggregation_permutation_invariant(
        centers in proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 3..6),
        rot in 1usize..5,
    ) {
        let tasks = quad_federation(centers);
        let params: Vec<Vec<f64>> = tasks
            .iter()
            .enumerate()
            .map(|(i, _)| vec![i as f64, -(i as f64)])
            .collect();
        let direct = aggregate(&tasks, &params);
        let k = rot % tasks.len();
        let mut tasks2 = tasks.clone();
        tasks2.rotate_left(k);
        let mut params2 = params.clone();
        params2.rotate_left(k);
        let rotated = aggregate(&tasks2, &params2);
        prop_assert!(vector::approx_eq(&direct, &rotated, 1e-12));
    }

    /// One small-enough adaptation step can never increase the loss of a
    /// strongly convex smooth model (descent lemma).
    #[test]
    fn prop_adaptation_is_descent_for_small_steps(
        w0 in -2.0f64..2.0,
        w1 in -2.0f64..2.0,
        b in -1.0f64..1.0,
    ) {
        let model = LinearRegression::new(2).with_l2(0.01);
        let xs = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[-1.0, 0.5]]).unwrap();
        let batch = Batch::regression(xs, vec![1.0, -1.0, 0.5, 0.0]).unwrap();
        let theta = [w0, w1, b];
        // H ≤ max ‖x̃‖² + l2 ≈ 3.3; step 0.1 is safely below 2/H.
        let phi = adapt::adapt(&model, &theta, &batch, 0.1, 1);
        prop_assert!(model.loss(&phi, &batch) <= model.loss(&theta, &batch) + 1e-12);
    }

    /// The robust surrogate value is always at least the clean sample loss
    /// (x = x₀ is feasible at zero transport cost), for any λ and any
    /// model parameters.
    #[test]
    fn prop_surrogate_dominates_clean_loss(
        lambda in 0.0f64..20.0,
        seed in 0u64..200,
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
    ) {
        let model = SoftmaxRegression::new(2, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = model.init_params(&mut rng);
        let s = RobustSurrogate::new(SquaredL2Cost, lambda).with_steps(5).with_step_size(0.3);
        let x = [x0, x1];
        let y = Target::Class((seed % 3) as usize);
        let clean = model.sample_loss(&params, &x, y);
        let pt = s.maximize(&model, &params, &x, y);
        prop_assert!(pt.value + 1e-9 >= clean - lambda * 0.0);
        prop_assert!(pt.adversarial_loss + 1e-9 >= clean);
    }

    /// Weighted meta loss is a convex combination: it lies within the
    /// [min, max] of the per-task meta objectives.
    #[test]
    fn prop_weighted_meta_loss_within_task_range(
        centers in proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 2..6),
        tx in -2.0f64..2.0,
        ty in -2.0f64..2.0,
    ) {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_federation(centers);
        let theta = [tx, ty];
        let total = fml_core::weighted_meta_loss(&model, &tasks, &theta, 0.2);
        let per_task: Vec<f64> = tasks
            .iter()
            .map(|t| fml_core::meta::meta_objective(&model, &theta, &t.split.train, &t.split.test, 0.2))
            .collect();
        let lo = per_task.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = per_task.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(total >= lo - 1e-9 && total <= hi + 1e-9);
    }

    /// Meta-gradients are consistent with the meta objective: moving a
    /// small step along the negative meta-gradient cannot increase G for
    /// smooth quadratics.
    #[test]
    fn prop_meta_gradient_is_descent_direction(
        cx in -3.0f64..3.0,
        cy in -3.0f64..3.0,
        tx in -3.0f64..3.0,
        ty in -3.0f64..3.0,
    ) {
        let model = Quadratic::isotropic(2, 1.0);
        let batch = Batch::regression(Matrix::from_rows(&[&[cx, cy]]).unwrap(), vec![0.0]).unwrap();
        let theta = vec![tx, ty];
        let g = fml_core::meta::meta_gradient(
            &model,
            &theta,
            &batch,
            &batch,
            0.2,
            fml_core::MetaGradientMode::FullSecondOrder,
        );
        let before = fml_core::meta::meta_objective(&model, &theta, &batch, &batch, 0.2);
        let mut next = theta.clone();
        vector::axpy(-0.05, &g, &mut next);
        let after = fml_core::meta::meta_objective(&model, &next, &batch, &batch, 0.2);
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
    }
}

/// `n` samples in `[-1, 1)^dim` with labels below `classes`.
fn class_batch(rng: &mut impl Rng, dim: usize, classes: usize, n: usize) -> Batch {
    let mut batch = Batch::empty(dim);
    for _ in 0..n {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        batch.push(&x, Target::Class(rng.gen_range(0..classes)));
    }
    batch
}

/// `n` samples in `[-1, 1)^dim` with values in `[-1, 1)`.
fn value_batch(rng: &mut impl Rng, dim: usize, n: usize) -> Batch {
    let mut batch = Batch::empty(dim);
    for _ in 0..n {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        batch.push(&x, Target::Value(rng.gen_range(-1.0..1.0)));
    }
    batch
}

/// Each value's bits, every NaN as one: NaN payloads and signs are not
/// specified by the language (an add of two NaNs may return either), so
/// two NaNs count as equal.
fn bits(v: &[f64]) -> Vec<u64> {
    let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x };
    v.iter().map(|x| canonical(x).to_bits()).collect()
}

/// A model's `grad_then_hvp_into` is `grad_into` → `between` →
/// `hvp_into` bit for bit, in `buf` and in `hv`. `between` is the
/// meta-gradient's: a gradient at another point on a `query`-sample
/// batch through the same workspace. The second call is on a batch no
/// larger than the first, so a tape entry left from the first cannot
/// leak into it.
fn assert_replayed_hvp_is_the_three_calls(
    model: &dyn Model,
    rng: &mut impl Rng,
    classes: usize,
    sizes: (usize, usize),
    query: usize,
) {
    let dim = model.input_dim();
    let theta = model.init_params(rng);
    let test = class_batch(rng, dim, classes, query);
    let alpha = 0.3;
    let d = model.param_len();
    let (mut ws, mut ws_ref) = (model.workspace(), model.workspace());
    let mut phi = vec![0.0; d];
    let mut between = |g: &mut [f64], ws: &mut Workspace| {
        phi.copy_from_slice(&theta);
        vector::axpy(-alpha, g, &mut phi);
        model.grad_into(&phi, &test, ws, g);
    };
    for n in [sizes.0.max(sizes.1), sizes.0.min(sizes.1)] {
        let train = class_batch(rng, dim, classes, n);
        let (mut buf, mut hv) = (vec![0.0; d], vec![0.0; d]);
        model.grad_then_hvp_into(&theta, &train, &mut ws, &mut buf, &mut between, &mut hv);
        let (mut buf_ref, mut hv_ref) = (vec![0.0; d], vec![0.0; d]);
        model.grad_into(&theta, &train, &mut ws_ref, &mut buf_ref);
        between(&mut buf_ref, &mut ws_ref);
        model.hvp_into(&theta, &train, &buf_ref, &mut ws_ref, &mut hv_ref);
        assert_eq!(bits(&buf), bits(&buf_ref), "buf, n = {n}, {model:?}");
        assert_eq!(bits(&hv), bits(&hv_ref), "hv, n = {n}, {model:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Mlp::grad_then_hvp_into` replays the gradient's forward pass in
    /// its HVP, 0–3 hidden layers, either activation, `l2` on and off.
    #[test]
    fn prop_mlp_replayed_hvp_is_the_three_calls(
        shape in (1usize..5, 0usize..4, 2usize..5, 0u64..10_000),
        kind in (any::<bool>(), any::<bool>()),
        sizes in (0usize..13, 0usize..13),
        query in 0usize..13,
    ) {
        let (dim, depth, classes, seed) = shape;
        let (tanh, l2) = kind;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let hidden: Vec<usize> = (0..depth).map(|_| rng.gen_range(1..6)).collect();
        let model = MlpBuilder::new(dim, classes)
            .hidden(&hidden)
            .activation(if tanh { Activation::Tanh } else { Activation::Relu })
            .l2(if l2 { 0.01 } else { 0.0 })
            .build()
            .unwrap();
        assert_replayed_hvp_is_the_three_calls(&model, &mut rng, classes, sizes, query);
    }

    /// `SoftmaxRegression::grad_then_hvp_into` copies the gradient's
    /// class probabilities into its HVP, `l2` on and off.
    #[test]
    fn prop_softmax_replayed_hvp_is_the_three_calls(
        shape in (1usize..6, 2usize..6, 0u64..10_000),
        l2 in any::<bool>(),
        sizes in (0usize..13, 0usize..13),
        query in 0usize..13,
    ) {
        let (dim, classes, seed) = shape;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let model = SoftmaxRegression::new(dim, classes).with_l2(if l2 { 0.01 } else { 0.0 });
        assert_replayed_hvp_is_the_three_calls(&model, &mut rng, classes, sizes, query);
    }

    /// `loss_grad_into` is `grad_into` then `loss_with` bit for bit — the
    /// gradient in `out`, the loss by [`bits`] — on all five model
    /// families (the MLP with 0–2 hidden layers), `l2` on and off, through
    /// one reused workspace on a batch that shrinks, at parameters that
    /// may hold `−0.0`, `±inf` and NaN.
    #[test]
    fn prop_loss_grad_is_grad_then_loss(
        shape in (1usize..5, 2usize..5, 0u64..10_000),
        kind in (any::<bool>(), any::<bool>()),
        sizes in (0usize..13, 0usize..13),
        specials in prop::collection::vec((0usize..1000, 0usize..5), 0..4),
    ) {
        let (dim, classes, seed) = shape;
        let (tanh, l2) = kind;
        let decay = if l2 { 0.01 } else { 0.0 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = |hidden: &[usize]| {
            MlpBuilder::new(dim, classes)
                .hidden(hidden)
                .activation(if tanh { Activation::Tanh } else { Activation::Relu })
                .l2(decay)
                .build()
                .unwrap()
        };
        let (h1, h2) = (rng.gen_range(1..6), rng.gen_range(1..6));
        // Each model with its label count; `None` for value targets.
        let models: Vec<(Box<dyn Model>, Option<usize>)> = vec![
            (Box::new(SoftmaxRegression::new(dim, classes).with_l2(decay)), Some(classes)),
            (Box::new(mlp(&[])), Some(classes)),
            (Box::new(mlp(&[h1])), Some(classes)),
            (Box::new(mlp(&[h1, h2])), Some(classes)),
            (Box::new(LogisticRegression::new(dim).with_l2(decay)), Some(2)),
            (Box::new(LinearRegression::new(dim).with_l2(decay)), None),
            (Box::new(Quadratic::isotropic(dim, 1.5)), None),
        ];
        let special = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0];
        for (model, labels) in &models {
            let mut theta = model.init_params(&mut rng);
            let d = theta.len();
            for &(i, kind) in &specials {
                theta[i % d] = special[kind];
            }
            let (mut ws, mut ws_ref) = (model.workspace(), model.workspace());
            for n in [sizes.0.max(sizes.1), sizes.0.min(sizes.1)] {
                let batch = match labels {
                    Some(c) => class_batch(&mut rng, dim, *c, n),
                    None => value_batch(&mut rng, dim, n),
                };
                let (mut g, mut g_ref) = (vec![0.0; d], vec![0.0; d]);
                let loss = model.loss_grad_into(&theta, &batch, &mut ws, &mut g);
                model.grad_into(&theta, &batch, &mut ws_ref, &mut g_ref);
                let loss_ref = model.loss_with(&theta, &batch, &mut ws_ref);
                prop_assert_eq!(bits(&[loss]), bits(&[loss_ref]), "loss, n = {}, {:?}", n, model);
                prop_assert_eq!(bits(&g), bits(&g_ref), "grad, n = {}, {:?}", n, model);
            }
        }
    }

    /// `loss_grad_then_hvp_into` is `grad_then_hvp_into` then `loss_with`
    /// bit for bit — `buf`, `hv` and the loss — on the two models that
    /// override it (the MLP with 0–2 hidden layers), `l2` on and off,
    /// through one reused workspace on a support batch that shrinks, with
    /// the meta-gradient's `between` on a query batch.
    #[test]
    fn prop_loss_grad_then_hvp_is_grad_then_hvp_then_loss(
        shape in (1usize..5, 2usize..5, 0u64..10_000),
        kind in (any::<bool>(), any::<bool>()),
        sizes in (0usize..13, 0usize..13),
        query in 0usize..13,
    ) {
        let (dim, classes, seed) = shape;
        let (tanh, l2) = kind;
        let decay = if l2 { 0.01 } else { 0.0 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = |hidden: &[usize]| {
            MlpBuilder::new(dim, classes)
                .hidden(hidden)
                .activation(if tanh { Activation::Tanh } else { Activation::Relu })
                .l2(decay)
                .build()
                .unwrap()
        };
        let (h1, h2) = (rng.gen_range(1..6), rng.gen_range(1..6));
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(SoftmaxRegression::new(dim, classes).with_l2(decay)),
            Box::new(mlp(&[])),
            Box::new(mlp(&[h1])),
            Box::new(mlp(&[h1, h2])),
        ];
        let alpha = 0.3;
        for model in &models {
            let theta = model.init_params(&mut rng);
            let test = class_batch(&mut rng, dim, classes, query);
            let d = theta.len();
            let mut phi = vec![0.0; d];
            let mut between = |g: &mut [f64], ws: &mut Workspace| {
                phi.copy_from_slice(&theta);
                vector::axpy(-alpha, g, &mut phi);
                model.grad_into(&phi, &test, ws, g);
            };
            let (mut ws, mut ws_ref) = (model.workspace(), model.workspace());
            for n in [sizes.0.max(sizes.1), sizes.0.min(sizes.1)] {
                let train = class_batch(&mut rng, dim, classes, n);
                let (mut buf, mut hv) = (vec![0.0; d], vec![0.0; d]);
                let loss = model.loss_grad_then_hvp_into(
                    &theta, &train, &mut ws, &mut buf, &mut between, &mut hv,
                );
                let (mut buf_ref, mut hv_ref) = (vec![0.0; d], vec![0.0; d]);
                model.grad_then_hvp_into(
                    &theta, &train, &mut ws_ref, &mut buf_ref, &mut between, &mut hv_ref,
                );
                let loss_ref = model.loss_with(&theta, &train, &mut ws_ref);
                prop_assert_eq!(bits(&[loss]), bits(&[loss_ref]), "loss, n = {}, {:?}", n, model);
                prop_assert_eq!(bits(&buf), bits(&buf_ref), "buf, n = {}, {:?}", n, model);
                prop_assert_eq!(bits(&hv), bits(&hv_ref), "hv, n = {}, {:?}", n, model);
            }
        }
    }
}

/// What goes into a training frame: `node` is `None` on a broadcast.
type Sent = (u32, Option<u32>, Vec<f64>);

/// An arbitrary platform⇄edge message with a small parameter payload.
fn arb_message() -> impl Strategy<Value = Sent> {
    prop_oneof![
        (0u32..1000, prop::collection::vec(-1e3f64..1e3, 0..8))
            .prop_map(|(round, params)| (round, None, params)),
        (0u32..1000, 0u32..64, prop::collection::vec(-1e3f64..1e3, 0..8))
            .prop_map(|(round, node, params)| (round, Some(node), params)),
    ]
}

fn encode((round, node, params): &Sent) -> bytes::Bytes {
    match node {
        None => global_frame(*round, params),
        Some(node) => update_frame(*round, *node, params),
    }
}

/// What `frame` parses back to, in the shape it was sent.
fn decode(frame: &[u8]) -> Sent {
    let view = MessageView::parse(frame).unwrap();
    let node = view.is_update().then_some(view.node());
    (view.round(), node, view.params_to_vec())
}

proptest! {
    /// Stream framing is chunking-invariant: however the kernel dribbles
    /// or coalesces the byte stream, the exact frame sequence comes out.
    #[test]
    fn prop_framing_survives_arbitrary_chunking(
        msgs in prop::collection::vec(arb_message(), 1..6),
        cuts in prop::collection::vec(1usize..9, 0..64),
    ) {
        let frames: Vec<_> = msgs.iter().map(encode).collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| prefix_frame(f)).collect();

        let mut buf = FrameBuffer::new();
        let pool = FramePool::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cuts = cuts.into_iter();
        while pos < stream.len() {
            let step = cuts.next().unwrap_or(usize::MAX).min(stream.len() - pos);
            buf.extend(&stream[pos..pos + step]);
            pos += step;
            while let Some(frame) = buf.next_frame_pooled(&pool).unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(&got, &frames);
        // And every recovered frame decodes back to the message sent.
        for (frame, msg) in got.iter().zip(&msgs) {
            prop_assert_eq!(&decode(frame), msg);
        }
    }

    /// A truncated stream is a stall, never a panic or an error: the
    /// frames whose bytes fully arrived come out, the tail stays pending.
    #[test]
    fn prop_truncated_streams_stall_without_panicking(
        msgs in prop::collection::vec(arb_message(), 1..5),
        cut_back in 1usize..40,
    ) {
        let frames: Vec<_> = msgs.iter().map(encode).collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| prefix_frame(f)).collect();
        let cut = stream.len().saturating_sub(cut_back);

        let mut buf = FrameBuffer::new();
        let pool = FramePool::new();
        buf.extend(&stream[..cut]);
        let mut whole = Vec::new();
        while let Some(frame) = buf.next_frame_pooled(&pool).unwrap() {
            whole.push(frame);
        }
        // Exactly the frames that fit before the cut, in order.
        let mut fits = Vec::new();
        let mut consumed = 0;
        for frame in &frames {
            consumed += LENGTH_PREFIX_LEN + frame.len();
            if consumed <= cut {
                fits.push(frame.clone());
            } else {
                break;
            }
        }
        prop_assert_eq!(&whole, &fits);
        // The missing tail is a stall, not an error...
        prop_assert_eq!(buf.next_frame_pooled(&pool), Ok(None));
        // ...and feeding the rest completes the sequence.
        buf.extend(&stream[cut..]);
        while let Some(frame) = buf.next_frame_pooled(&pool).unwrap() {
            whole.push(frame);
        }
        prop_assert_eq!(&whole, &frames);
    }

    /// A garbage length prefix poisons the buffer instead of allocating:
    /// every announced length past the bound is rejected, and the buffer
    /// keeps rejecting after more bytes arrive (the stream has no frame
    /// boundaries left to trust).
    #[test]
    fn prop_garbage_prefixes_never_panic_or_allocate(
        len in (MAX_FRAME_LEN as u32 + 1)..=u32::MAX,
        junk in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut buf = FrameBuffer::new();
        let pool = FramePool::new();
        buf.extend(&len.to_le_bytes());
        buf.extend(&junk);
        let err = FrameError::Oversized { len: len as usize };
        prop_assert_eq!(buf.next_frame_pooled(&pool), Err(err.clone()));
        buf.extend(&prefix_frame(&global_frame(1, &[])));
        prop_assert_eq!(buf.next_frame_pooled(&pool), Err(err));
    }

    /// `MessageView::parse` is total over arbitrary frames: random bytes
    /// produce a `DecodeError`, never a panic — the property the socket
    /// transports rely on when a peer sends garbage *inside* a
    /// well-formed frame.
    #[test]
    fn prop_message_decode_never_panics(frame in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = MessageView::parse(&frame);
    }

    /// Decode inverts encode for every message, so transports can treat
    /// frames as opaque bytes without losing information.
    #[test]
    fn prop_message_codec_roundtrips(msg in arb_message()) {
        prop_assert_eq!(&decode(&encode(&msg)), &msg);
    }
}
