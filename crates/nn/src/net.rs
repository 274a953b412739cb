//! The Q-network: an MLP trunk with either a plain Q head or the
//! **dueling** head of Wang et al. (ICML'16), as configured in the
//! paper's Table VI (hidden layers 512/256/128, V = 1, A = 29).
//!
//! With the dueling head the Q-values are assembled as
//! `Q(s,a) = V(s) + A(s,a) − mean_a' A(s,a')` — subtracting the mean
//! keeps V/A identifiable.
//!
//! A `QNet` is its weights and biases and nothing else, so the learner's
//! target net is a plain copy. Every pass is **batched**: buffers are
//! `B × n` row-major and flow through [`QNet::forward_batch`] /
//! [`QNet::backward_batch`], which keep what the backward pass needs in
//! a caller-owned [`LearnScratch`], so one minibatch streams each weight
//! matrix once instead of once per sample, and a steady-state learning
//! step allocates nothing. [`QNet::predict_batch_into`] is the same
//! forward without the backward caches, for passes nothing
//! differentiates. A single sample is a batch of one.
//!
//! The backward pass keeps no gradient: it walks down the layers and
//! hands each block of a layer's gradient to a [`GradSink`] — Adam's
//! step, which updates those parameters at once — after the layer's
//! input gradient has been taken from its weights as they stood.

use crate::layers::Linear;
use crate::opt::GradSink;
use crate::tensor::{relu_backward, relu_forward, transpose_into};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Head architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Single linear layer producing Q directly.
    Plain,
    /// Separate V (scalar) and A (per-action) streams.
    Dueling,
}

#[derive(Clone)]
pub(crate) enum HeadLayers {
    Plain(Linear),
    Dueling { v: Linear, a: Linear },
}

impl HeadLayers {
    fn linears(&self) -> impl Iterator<Item = &Linear> {
        let (first, second) = match self {
            Self::Plain(l) => (l, None),
            Self::Dueling { v, a } => (v, Some(a)),
        };
        std::iter::once(first).chain(second)
    }

    fn linears_mut(&mut self) -> impl Iterator<Item = &mut Linear> {
        let (first, second) = match self {
            Self::Plain(l) => (l, None),
            Self::Dueling { v, a } => (v, Some(a)),
        };
        std::iter::once(first).chain(second)
    }
}

/// `Q(b, a) = V(b) + A(b, a) − mean_a' A(b, a')` from batch-minor head
/// outputs (`vout` is `1 × batch`, `aout` is `n × batch`) into a
/// `batch × n` row-major `out`.
fn assemble_dueling(vout: &[f32], aout: &[f32], batch: usize, n: usize, out: &mut Vec<f32>) {
    out.resize(batch * n, 0.0);
    for b in 0..batch {
        let mut sum = 0.0f32;
        for ai in 0..n {
            sum += aout[ai * batch + b];
        }
        let mean = sum / n as f32;
        for ai in 0..n {
            out[b * n + ai] = vout[b] + aout[ai * batch + b] - mean;
        }
    }
}

/// The inference ReLU, in place: zero strictly negative lanes, keep
/// `-0.0` and NaN ([`relu_forward`] makes both `+0.0`).
fn relu_inference(x: &mut [f32]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Reusable buffers for the inference-only forward
/// ([`QNet::predict_batch_into`]): after the first call at a given
/// network shape and batch size, steady-state inference performs **zero
/// heap allocations**.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    cur: Vec<f32>,
    next: Vec<f32>,
    vout: Vec<f32>,
    aout: Vec<f32>,
}

/// What a learning step keeps from [`QNet::forward_batch`] for
/// [`QNet::backward_batch`], and the scratch of both: one set per
/// learner, whatever network it runs through.
///
/// The first layer's input is the minibatch's own state matrix, which
/// the caller passes to both passes, so it is not copied; the V and A
/// streams of a dueling head read one copy of their input. The forward
/// leaves the ping-pong buffers free, so the learner's bootstrap
/// predictions run in them too.
#[derive(Debug, Default)]
pub struct LearnScratch {
    /// Ping-pong activations and head outputs (batch-minor); a
    /// [`QNet::predict_batch_into`] that runs before the next forward
    /// may use them.
    pub(crate) pass: PredictScratch,
    /// `outputs[k]`: trunk layer `k`'s activation, batch-major — the
    /// input the next layer's (or the head's) weight gradient reads, and
    /// (transposed back) which lanes the ReLU backward passes.
    outputs: Vec<Vec<f32>>,
    /// One block of a layer's gradient ([`Linear::backward_params_tn`]).
    block: Vec<f32>,
    /// Batch size of the cached forward pass.
    batch: usize,
}

/// The Q-network: weights and biases only.
#[derive(Clone)]
pub struct QNet {
    trunk: Vec<Linear>,
    head: HeadLayers,
    n_actions: usize,
}

impl QNet {
    /// Build a network: `state_dim → hidden[0] → … → n_actions`.
    #[must_use]
    pub fn new(
        state_dim: usize,
        hidden: &[usize],
        n_actions: usize,
        head: Head,
        seed: u64,
    ) -> Self {
        assert!(!hidden.is_empty(), "need at least one hidden layer");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut trunk = Vec::with_capacity(hidden.len());
        let mut prev = state_dim;
        for &h in hidden {
            trunk.push(Linear::new(h, prev, &mut rng));
            prev = h;
        }
        let head = match head {
            Head::Plain => HeadLayers::Plain(Linear::new(n_actions, prev, &mut rng)),
            Head::Dueling => HeadLayers::Dueling {
                v: Linear::new(1, prev, &mut rng),
                a: Linear::new(n_actions, prev, &mut rng),
            },
        };
        Self {
            trunk,
            head,
            n_actions,
        }
    }

    /// Number of actions (Q outputs).
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Batched forward pass that keeps, in `scratch`, what
    /// [`QNet::backward_batch`] needs. `x` is `batch × state_dim`;
    /// `out` is resized to `batch × n_actions`.
    ///
    /// The activations flow in **batch-minor** layout end-to-end (one
    /// transpose at entry, strided assembly at the head) so every trunk
    /// GEMM runs its inner loop over independent batch lanes; each
    /// trunk output is also kept batch-major, as the next layer's weight
    /// gradient reads it.
    pub fn forward_batch(
        &self,
        x: &[f32],
        batch: usize,
        scratch: &mut LearnScratch,
        out: &mut Vec<f32>,
    ) {
        let n = self.n_actions;
        let LearnScratch {
            pass,
            outputs,
            batch: cached_batch,
            ..
        } = scratch;
        *cached_batch = batch;
        outputs.resize_with(self.trunk.len(), Vec::new);
        let (cur, next) = (&mut pass.cur, &mut pass.next);
        transpose_into(x, cur, batch, x.len() / batch);
        for (lin, output) in self.trunk.iter().zip(outputs) {
            lin.forward_batch_tn(cur, batch, next);
            relu_forward(next);
            transpose_into(next, output, lin.rows, batch);
            std::mem::swap(cur, next);
        }
        match &self.head {
            HeadLayers::Plain(l) => {
                l.forward_batch_tn(cur, batch, next);
                transpose_into(next, out, n, batch);
            }
            HeadLayers::Dueling { v, a } => {
                v.forward_batch_tn(cur, batch, &mut pass.vout);
                a.forward_batch_tn(cur, batch, &mut pass.aout);
                assemble_dueling(&pass.vout, &pass.aout, batch, n, out);
            }
        }
    }

    /// Batched inference-only forward into caller-owned scratch: no
    /// backward cache is kept and none of the backward pass's upkeep —
    /// the batch-major copies of the activations — is done.
    ///
    /// The Q-values are bit-identical to [`QNet::forward_batch`]'s: the
    /// kernels and their order are the same, and the inference ReLU
    /// differs from the caching one only on a `-0.0` or NaN
    /// pre-activation (kept here, replaced by `+0.0` there).
    pub fn predict_batch_into(
        &self,
        x: &[f32],
        batch: usize,
        scratch: &mut PredictScratch,
        out: &mut Vec<f32>,
    ) {
        let n = self.n_actions;
        let (cur, next) = (&mut scratch.cur, &mut scratch.next);
        transpose_into(x, cur, batch, x.len() / batch);
        for lin in &self.trunk {
            lin.forward_batch_tn(cur, batch, next);
            relu_inference(next);
            std::mem::swap(cur, next);
        }
        match &self.head {
            HeadLayers::Plain(l) => {
                l.forward_batch_tn(cur, batch, next);
                transpose_into(next, out, n, batch);
            }
            HeadLayers::Dueling { v, a } => {
                v.forward_batch_tn(cur, batch, &mut scratch.vout);
                a.forward_batch_tn(cur, batch, &mut scratch.aout);
                assemble_dueling(&scratch.vout, &scratch.aout, batch, n, out);
            }
        }
    }

    /// Batched backward pass from a `batch × n_actions` Q-gradient,
    /// after a [`QNet::forward_batch`] of the same states `x` into the
    /// same `scratch`. It walks down the layers, head first; at each
    /// layer it takes the input gradient from the weights as they stand,
    /// then hands the layer's gradient, a block of rows at a time, to
    /// `sink` — which, as Adam's step, updates those rows there and
    /// then. No layer's gradient outlives its block.
    ///
    /// # Panics
    /// Panics if `dq`'s or `x`'s shape disagrees with the cached
    /// forward pass.
    pub fn backward_batch(
        &mut self,
        x: &[f32],
        dq: &[f32],
        batch: usize,
        scratch: &mut LearnScratch,
        sink: &mut impl GradSink,
    ) {
        assert_eq!(batch, scratch.batch, "backward batch mismatch");
        assert_eq!(dq.len(), batch * self.n_actions);
        assert_eq!(x.len(), batch * self.trunk[0].cols, "state shape mismatch");
        let n = self.n_actions;
        let LearnScratch {
            pass,
            outputs,
            block,
            ..
        } = scratch;
        // Flat parameter offsets run trunk first, head last; the walk
        // runs the other way, so it counts down from the end.
        let mut at = self.num_params();
        let head_x = outputs.last().expect("a forward pass ran");
        // The head's input gradient lands in `cur`, where the trunk
        // backward picks it up; `next` is free scratch until then. Head
        // gradients are assembled directly in batch-minor `rows × batch`
        // layout; the trunk backward stays in it.
        let (cur, next) = (&mut pass.cur, &mut pass.next);
        match &mut self.head {
            HeadLayers::Plain(l) => {
                // Q_a = head output directly: dqt = dqᵀ.
                transpose_into(dq, next, batch, n);
                l.backward_input_tn(next, batch, cur);
                at -= l.num_params();
                l.backward_params_tn(head_x, next, batch, at, block, sink);
            }
            HeadLayers::Dueling { v, a } => {
                // Q_a = V + A_a − mean(A):
                //   dV = Σ_a dQ_a
                //   dA_k = dQ_k − (1/N)·Σ_a dQ_a
                let (dv, da) = (&mut pass.vout, &mut pass.aout);
                dv.resize(batch, 0.0);
                da.clear();
                da.resize(batch * n, 0.0);
                for b in 0..batch {
                    let dqb = &dq[b * n..(b + 1) * n];
                    let sum: f32 = dqb.iter().sum();
                    dv[b] = sum;
                    for (ai, q) in dqb.iter().enumerate() {
                        da[ai * batch + b] = q - sum / n as f32;
                    }
                }
                // The hidden-layer gradient is the two streams' input
                // gradients summed, V's plus A's, both taken before
                // either stream is updated.
                v.backward_input_tn(dv, batch, cur);
                a.backward_input_tn(da, batch, next);
                for (xv, xa) in cur.iter_mut().zip(next.iter()) {
                    *xv += xa;
                }
                at -= a.num_params();
                a.backward_params_tn(head_x, da, batch, at, block, sink);
                at -= v.num_params();
                v.backward_params_tn(head_x, dv, batch, at, block, sink);
            }
        }
        for (i, lin) in self.trunk.iter_mut().enumerate().rev() {
            // Which lanes the ReLU passed: the kept output, batch-minor
            // in `next`, which is free until the input gradient below.
            transpose_into(&outputs[i], next, batch, lin.rows);
            relu_backward(cur, next);
            at -= lin.num_params();
            if i == 0 {
                // The first layer reads the states themselves, and its
                // input gradient is d/d(state): nothing consumes it, so
                // that GEMM is skipped entirely.
                lin.backward_params_tn(x, cur, batch, at, block, sink);
            } else {
                lin.backward_input_tn(cur, batch, next);
                lin.backward_params_tn(&outputs[i - 1], cur, batch, at, block, sink);
                std::mem::swap(cur, next);
            }
        }
        debug_assert_eq!(at, 0);
    }

    /// The trunk layers, in forward order (fast-path planning).
    pub(crate) fn trunk_layers(&self) -> &[Linear] {
        &self.trunk
    }

    /// The head layers (fast-path planning).
    pub(crate) fn head_layers(&self) -> &HeadLayers {
        &self.head
    }

    /// Every linear layer, in canonical order: trunk, then the head.
    fn layers(&self) -> impl Iterator<Item = &Linear> {
        self.trunk.iter().chain(self.head.linears())
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut Linear> {
        self.trunk.iter_mut().chain(self.head.linears_mut())
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layers().map(Linear::num_params).sum()
    }

    /// The [`QNet::num_params`] of the network [`QNet::new`] would build
    /// for this geometry, in checked arithmetic and without building
    /// it; `None` for a geometry `new` rejects (no hidden layer, a
    /// zero width) or whose count overflows. Checkpoint loading sizes
    /// the weight section against this before constructing anything.
    #[must_use]
    pub fn param_count(
        state_dim: usize,
        hidden: &[usize],
        n_actions: usize,
        head: Head,
    ) -> Option<usize> {
        let linear = |rows: usize, cols: usize| rows.checked_mul(cols)?.checked_add(rows);
        if hidden.is_empty() || hidden.contains(&0) {
            return None;
        }
        let mut total = 0usize;
        let mut prev = state_dim;
        for &h in hidden {
            total = total.checked_add(linear(h, prev)?)?;
            prev = h;
        }
        if head == Head::Dueling {
            total = total.checked_add(linear(1, prev)?)?;
        }
        total.checked_add(linear(n_actions, prev)?)
    }

    /// Flatten all parameters into `out` (canonical layer order).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in self.layers() {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
    }

    /// Load parameters from a flat vector (canonical layer order).
    ///
    /// # Panics
    /// Panics if `src` has the wrong length.
    pub fn read_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.num_params(), "parameter count mismatch");
        let mut off = 0;
        for l in self.layers_mut() {
            let wlen = l.w.len();
            l.w.copy_from_slice(&src[off..off + wlen]);
            off += wlen;
            let blen = l.b.len();
            l.b.copy_from_slice(&src[off..off + blen]);
            off += blen;
        }
    }

    /// Copy weights from another, identically-shaped network (the target
    /// sync of double DQN).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_weights_from(&mut self, other: &QNet) {
        assert_eq!(self.num_params(), other.num_params(), "shape mismatch");
        for (dst, src) in self.layers_mut().zip(other.layers()) {
            dst.w.copy_from_slice(&src.w);
            dst.b.copy_from_slice(&src.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::GradSum;
    use rand::Rng;

    fn tiny(head: Head) -> QNet {
        QNet::new(4, &[8, 6], 3, head, 42)
    }

    /// One sample through the caching forward (what a backward follows).
    fn forward(net: &QNet, x: &[f32]) -> Vec<f32> {
        let mut q = Vec::new();
        net.forward_batch(x, 1, &mut LearnScratch::default(), &mut q);
        q
    }

    /// One sample through the cache-free forward.
    fn predict(net: &QNet, x: &[f32]) -> Vec<f32> {
        let mut q = Vec::new();
        net.predict_batch_into(x, 1, &mut PredictScratch::default(), &mut q);
        q
    }

    /// The gradient of a batch `x` under the Q-gradient `dq`, in
    /// canonical layer order, as the backward pass hands it to its sink;
    /// the test recorder adds it into `sum` and leaves the weights alone.
    fn add_grads(net: &mut QNet, x: &[f32], batch: usize, dq: &[f32], sum: &mut GradSum) {
        let mut scratch = LearnScratch::default();
        net.forward_batch(x, batch, &mut scratch, &mut Vec::new());
        net.backward_batch(x, dq, batch, &mut scratch, sum);
    }

    fn grads(net: &mut QNet, x: &[f32], batch: usize, dq: &[f32]) -> Vec<f32> {
        let mut sum = GradSum(vec![0.0; net.num_params()]);
        add_grads(net, x, batch, dq, &mut sum);
        sum.0
    }

    #[test]
    fn forward_shapes() {
        for head in [Head::Plain, Head::Dueling] {
            let net = tiny(head);
            let q = forward(&net, &[0.1, -0.2, 0.3, 0.4]);
            assert_eq!(q.len(), 3);
            assert_eq!(net.n_actions(), 3);
        }
    }

    #[test]
    fn predict_matches_forward() {
        for head in [Head::Plain, Head::Dueling] {
            let net = tiny(head);
            let x = [0.5, 0.1, -0.3, 0.9];
            assert_eq!(forward(&net, &x), predict(&net, &x), "{head:?}");
        }
    }

    #[test]
    fn batched_forward_matches_per_sample_both_heads() {
        for head in [Head::Plain, Head::Dueling] {
            let net = tiny(head);
            let mut rng = SmallRng::seed_from_u64(5);
            let batch = 7;
            let x: Vec<f32> = (0..batch * 4)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let mut q_batch = Vec::new();
            net.forward_batch(&x, batch, &mut LearnScratch::default(), &mut q_batch);
            let mut p_batch = Vec::new();
            net.predict_batch_into(&x, batch, &mut PredictScratch::default(), &mut p_batch);
            // Every lane runs one fixed operation sequence, so a sample
            // gets the same bits alone as in a batch.
            for b in 0..batch {
                let q_one = predict(&net, &x[b * 4..(b + 1) * 4]);
                let row = b * 3..(b + 1) * 3;
                assert_eq!(
                    q_batch[row.clone()],
                    q_one,
                    "{head:?} forward_batch sample {b}"
                );
                assert_eq!(
                    p_batch[row], q_one,
                    "{head:?} predict_batch_into sample {b}"
                );
            }
        }
    }

    #[test]
    fn batched_backward_equals_per_sample_accumulation() {
        for head in [Head::Plain, Head::Dueling] {
            let mut batched = tiny(head);
            let mut serial = tiny(head);
            let mut rng = SmallRng::seed_from_u64(6);
            let batch = 5;
            let x: Vec<f32> = (0..batch * 4)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let dq: Vec<f32> = (0..batch * 3)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();

            let g_batched = grads(&mut batched, &x, batch, &dq);

            let mut g_serial = GradSum(vec![0.0; serial.num_params()]);
            for b in 0..batch {
                let (xb, dqb) = (&x[b * 4..(b + 1) * 4], &dq[b * 3..(b + 1) * 3]);
                add_grads(&mut serial, xb, 1, dqb, &mut g_serial);
            }
            let g_serial = g_serial.0;

            for (i, (a, e)) in g_batched.iter().zip(g_serial.iter()).enumerate() {
                assert!(
                    (a - e).abs() < 1e-5,
                    "{head:?} grad {i}: batched {a} vs serial {e}"
                );
            }
        }
    }

    #[test]
    fn dueling_q_is_v_plus_centered_advantage() {
        let net = tiny(Head::Dueling);
        let q = forward(&net, &[1.0, 2.0, 3.0, 4.0]);
        // mean(Q) should equal V because the advantage is mean-centred.
        let mean_q = q.iter().sum::<f32>() / q.len() as f32;
        // Extract V by rebuilding from internals: predict with a
        // single-action advantage is not exposed, so check the invariant
        // mean(Q) = V indirectly via backward consistency below. Here we
        // just check all Q differ (advantage is doing something).
        assert!(q.iter().any(|&v| (v - mean_q).abs() > 1e-6));
    }

    #[test]
    fn gradients_match_numerical_plain_and_dueling() {
        for head in [Head::Plain, Head::Dueling] {
            let mut net = tiny(head);
            let x = [0.3, -0.1, 0.8, 0.2];
            // L = 0.5 · Σ Q_a², dL/dQ = Q.
            let q = forward(&net, &x);
            let analytic = grads(&mut net, &x, 1, &q);

            let mut params = Vec::new();
            net.write_params(&mut params);
            let eps = 1e-2f32;
            // Spot-check a spread of parameter indices.
            let n = params.len();
            for &idx in &[0, n / 3, n / 2, (2 * n) / 3, n - 1] {
                let mut pp = params.clone();
                pp[idx] += eps;
                net.read_params(&pp);
                let lp: f32 = predict(&net, &x).iter().map(|v| 0.5 * v * v).sum();
                let mut pm = params.clone();
                pm[idx] -= eps;
                net.read_params(&pm);
                let lm: f32 = predict(&net, &x).iter().map(|v| 0.5 * v * v).sum();
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - analytic[idx]).abs() < 5e-2 * num.abs().max(1.0),
                    "{head:?} param {idx}: numeric {num} vs analytic {}",
                    analytic[idx]
                );
            }
            net.read_params(&params);
        }
    }

    #[test]
    fn param_roundtrip() {
        let a = tiny(Head::Dueling);
        let mut b = QNet::new(4, &[8, 6], 3, Head::Dueling, 7);
        let x = [0.2, 0.4, -0.6, 0.8];
        assert_ne!(forward(&a, &x), forward(&b, &x), "different seeds differ");
        b.copy_weights_from(&a);
        let qa = predict(&a, &x);
        let qb = predict(&b, &x);
        for (u, v) in qa.iter().zip(qb.iter()) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn paper_architecture_builds() {
        // Table VI: input W×(f+5) = 12×17 = 204, hidden 512/256/128,
        // V = 1, A = 29.
        let net = QNet::new(204, &[512, 256, 128], 29, Head::Dueling, 0);
        // 204·512+512 + 512·256+256 + 256·128+128 + 128·1+1 + 128·29+29
        let expect = 204 * 512 + 512 + 512 * 256 + 256 + 256 * 128 + 128 + 128 + 1 + 128 * 29 + 29;
        assert_eq!(net.num_params(), expect);
        // The checked count agrees with what `new` builds, per head.
        let dims = (204, &[512, 256, 128][..], 29);
        assert_eq!(
            QNet::param_count(dims.0, dims.1, dims.2, Head::Dueling),
            Some(expect)
        );
        let plain = QNet::new(dims.0, dims.1, dims.2, Head::Plain, 0);
        assert_eq!(
            QNet::param_count(dims.0, dims.1, dims.2, Head::Plain),
            Some(plain.num_params())
        );
    }

    /// The parent's learning step, kept as the reference the one-walk
    /// backward is held to: every layer's whole gradient into full
    /// buffers first (each input gradient from the weights before any
    /// update), then one Adam sweep over every parameter in canonical
    /// order, with the subnormal flush.
    struct TwoPass {
        lr: f32,
        m: Vec<f32>,
        v: Vec<f32>,
        t: i32,
        /// Moments the sweep has stored as +0.0 instead of a subnormal.
        flushed: usize,
    }

    impl TwoPass {
        fn new(net: &QNet, lr: f32) -> Self {
            let n = net.num_params();
            Self {
                lr,
                m: vec![0.0; n],
                v: vec![0.0; n],
                t: 0,
                flushed: 0,
            }
        }

        fn step(&mut self, net: &mut QNet, x: &[f32], batch: usize, dq: &[f32]) {
            use crate::tensor::{matmul_bias_tn, matmul_dw_tn, matmul_dx_tn};
            let n = net.n_actions;
            // Forward, keeping each layer's input (batch-minor) and the
            // trunk's ReLU masks.
            let mut inputs = vec![Vec::new()];
            transpose_into(x, &mut inputs[0], batch, x.len() / batch);
            let mut masks = Vec::new();
            for lin in &net.trunk {
                let mut y = Vec::new();
                let xt = inputs.last().expect("the states");
                matmul_bias_tn(&lin.w, &lin.b, xt, &mut y, batch, lin.rows, lin.cols);
                let mask: Vec<bool> = y.iter().map(|&v| v > 0.0).collect();
                for (v, &m) in y.iter_mut().zip(&mask) {
                    if !m {
                        *v = 0.0;
                    }
                }
                masks.push(mask);
                inputs.push(y);
            }
            // The whole gradient of a layer, weights then biases.
            let full_grad = |lin: &Linear, xt: &[f32], dyt: &[f32]| {
                let mut x_bm = Vec::new();
                transpose_into(xt, &mut x_bm, lin.cols, batch);
                let (mut gw, mut gb) = (vec![0.0; lin.w.len()], vec![0.0; lin.rows]);
                matmul_dw_tn(&mut gw, &mut gb, dyt, &x_bm, batch, lin.rows, lin.cols);
                [gw, gb].concat()
            };
            let head_in = inputs.last().expect("the head's input");
            let mut dx = Vec::new();
            let mut head_grads = Vec::new();
            match &net.head {
                HeadLayers::Plain(l) => {
                    let mut dqt = Vec::new();
                    transpose_into(dq, &mut dqt, batch, n);
                    head_grads.push(full_grad(l, head_in, &dqt));
                    matmul_dx_tn(&l.w, &dqt, &mut dx, batch, l.rows, l.cols);
                }
                HeadLayers::Dueling { v, a } => {
                    let (mut dv, mut da) = (vec![0.0; batch], vec![0.0; batch * n]);
                    for b in 0..batch {
                        let dqb = &dq[b * n..(b + 1) * n];
                        let sum: f32 = dqb.iter().sum();
                        dv[b] = sum;
                        for (ai, q) in dqb.iter().enumerate() {
                            da[ai * batch + b] = q - sum / n as f32;
                        }
                    }
                    head_grads.push(full_grad(v, head_in, &dv));
                    head_grads.push(full_grad(a, head_in, &da));
                    let (mut dx_v, mut dx_a) = (Vec::new(), Vec::new());
                    matmul_dx_tn(&v.w, &dv, &mut dx_v, batch, 1, v.cols);
                    matmul_dx_tn(&a.w, &da, &mut dx_a, batch, n, a.cols);
                    dx = dx_v.iter().zip(&dx_a).map(|(xv, xa)| xv + xa).collect();
                }
            }
            let mut grads = vec![Vec::new(); net.trunk.len()];
            for (i, lin) in net.trunk.iter().enumerate().rev() {
                for (d, &m) in dx.iter_mut().zip(&masks[i]) {
                    if !m {
                        *d = 0.0;
                    }
                }
                grads[i] = full_grad(lin, &inputs[i], &dx);
                let mut below = Vec::new();
                matmul_dx_tn(&lin.w, &dx, &mut below, batch, lin.rows, lin.cols);
                dx = below;
            }
            grads.extend(head_grads);
            // One sweep over the flat parameter vector.
            self.t += 1;
            let (beta1, beta2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, self.lr);
            let b1t = 1.0 - beta1.powi(self.t);
            let b2t = 1.0 - beta2.powi(self.t);
            let mut flush = |x: f32| {
                if x.abs() < f32::MIN_POSITIVE {
                    self.flushed += usize::from(x != 0.0);
                    0.0
                } else {
                    x
                }
            };
            let params = net
                .layers_mut()
                .flat_map(|l| l.w.iter_mut().chain(&mut l.b));
            let grads = grads.iter().flatten();
            for (k, (p, g)) in params.zip(grads).enumerate() {
                let m = flush(beta1 * self.m[k] + (1.0 - beta1) * *g);
                let v = flush(beta2 * self.v[k] + (1.0 - beta2) * *g * *g);
                (self.m[k], self.v[k]) = (m, v);
                let mhat = m / b1t;
                let vhat = v / b2t;
                *p += -lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    /// Bit pattern with every NaN folded onto one (which NaN an
    /// operation returns is not specified).
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Train one network through `backward_batch` into Adam's step and a
    /// copy through [`TwoPass`] on the same minibatches, and require the
    /// weights and both moments to agree bit for bit after every step.
    /// States hold `±0.0` and subnormals, and at `special_steps` also
    /// `±inf` and NaN; from step 50 on the upper half of the state is
    /// zero, so its first-layer weights see exact-zero gradients and
    /// their first moments decay into the flush. Returns how many
    /// moments the reference flushed.
    fn hold_to_two_pass(
        (dim, hidden, n, head): (usize, &[usize], usize, Head),
        batch: usize,
        steps: usize,
        special_steps: &[usize],
    ) -> usize {
        let mut net = QNet::new(dim, hidden, n, head, 17);
        let mut reference = net.clone();
        let mut adam = crate::opt::Adam::new(net.num_params(), 1e-3);
        let mut two_pass = TwoPass::new(&net, 1e-3);
        let mut rng = SmallRng::seed_from_u64(dim as u64);
        let (mut scratch, mut q) = (LearnScratch::default(), Vec::new());
        for step in 0..steps {
            let live = if step < 50 { dim } else { dim.div_ceil(2) };
            let special = special_steps.contains(&step);
            let x: Vec<f32> = (0..batch * dim)
                .map(|i| {
                    let v = rng.gen_range(-1.0f32..1.0);
                    match rng.gen_range(0..64) {
                        _ if i % dim >= live => 0.0,
                        0..=3 => 0.0f32.copysign(v),
                        4..=5 => (f32::MIN_POSITIVE * 0.5).copysign(v),
                        6 if special => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i % 3],
                        _ => v,
                    }
                })
                .collect();
            net.forward_batch(&x, batch, &mut scratch, &mut q);
            // A Huber TD gradient at one action per row.
            let mut dq = vec![0.0f32; batch * n];
            for b in 0..batch {
                let a = rng.gen_range(0..n);
                let err = q[b * n + a] - rng.gen_range(-1.0f32..1.0);
                dq[b * n + a] = err.clamp(-1.0, 1.0) / batch as f32;
            }
            net.backward_batch(&x, &dq, batch, &mut scratch, &mut adam.begin_step());
            two_pass.step(&mut reference, &x, batch, &dq);

            let (mut got, mut want) = (Vec::new(), Vec::new());
            net.write_params(&mut got);
            reference.write_params(&mut want);
            assert_eq!(bits(&got), bits(&want), "weights after step {step}");
            let (m, v) = adam.moments();
            assert_eq!(
                bits(m),
                bits(&two_pass.m),
                "first moments after step {step}"
            );
            assert_eq!(
                bits(v),
                bits(&two_pass.v),
                "second moments after step {step}"
            );
        }
        assert_eq!(adam.steps(), steps as u64);
        two_pass.flushed
    }

    #[test]
    fn the_one_walk_step_is_bit_equal_to_the_two_pass_step() {
        // Placement (18 → 64 → 32 → 8, dueling), quick hierarchical
        // (113 → 64 → 32 → 18, dueling), and a plain net whose widths
        // run every lane block (35, 21, 13, 6 and 3 inputs) and whose
        // row counts and batch are not multiples of four.
        let placement = (18, &[64, 32][..], 8, Head::Dueling);
        let quick = (113, &[64, 32][..], 18, Head::Dueling);
        let ragged = (35, &[21, 13, 6, 3][..], 5, Head::Plain);
        for (geometry, batch) in [(placement, 32), (quick, 32), (ragged, 13)] {
            let flushed = hold_to_two_pass(geometry, batch, 900, &[]);
            assert!(flushed > 0, "{geometry:?}: no moment reached the flush");
        }
    }

    #[test]
    fn the_one_walk_step_matches_the_two_pass_step_through_inf_and_nan() {
        let placement = (18, &[64, 32][..], 8, Head::Dueling);
        let ragged = (35, &[21, 13, 6, 3][..], 5, Head::Plain);
        for (geometry, batch) in [(placement, 32), (ragged, 13)] {
            hold_to_two_pass(geometry, batch, 40, &[5, 20, 35]);
        }
    }
}
