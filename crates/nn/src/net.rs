//! The Q-network: an MLP trunk with either a plain Q head or the
//! **dueling** head of Wang et al. (ICML'16), as configured in the
//! paper's Table VI (hidden layers 512/256/128, V = 1, A = 29).
//!
//! With the dueling head the Q-values are assembled as
//! `Q(s,a) = V(s) + A(s,a) − mean_a' A(s,a')` — subtracting the mean
//! keeps V/A identifiable.
//!
//! Every pass is **batched**: buffers are `B × n` row-major and flow
//! through [`QNet::forward_batch`] / [`QNet::backward_batch`] with
//! per-layer reusable scratch, so one minibatch streams each weight
//! matrix once instead of once per sample, and a steady-state
//! forward/backward allocates nothing. [`QNet::predict_batch_into`] is
//! the same forward without the backward caches, for passes nothing
//! differentiates. A single sample is a batch of one.

use crate::layers::{Linear, Relu};
use crate::opt::Adam;
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

/// Reusable scratch for the dueling head's batched passes.
#[derive(Debug, Default)]
pub(crate) struct DuelingScratch {
    vout: Vec<f32>,
    aout: Vec<f32>,
    da: Vec<f32>,
    dx_v: Vec<f32>,
    dx_a: Vec<f32>,
}

impl DuelingScratch {
    /// The hidden-layer gradient: the V and A streams' input gradients, summed.
    fn sum_dx_into(&self, dst: &mut Vec<f32>) {
        dst.clear();
        dst.extend(self.dx_v.iter().zip(&self.dx_a).map(|(xv, xa)| xv + xa));
    }
}

#[allow(clippy::large_enum_variant)] // exactly one head lives per net
pub(crate) enum HeadLayers {
    Plain(Linear),
    Dueling {
        v: Linear,
        a: Linear,
        scratch: DuelingScratch,
    },
}

impl HeadLayers {
    fn linears(&self) -> impl Iterator<Item = &Linear> {
        let (first, second) = match self {
            Self::Plain(l) => (l, None),
            Self::Dueling { v, a, .. } => (v, Some(a)),
        };
        std::iter::once(first).chain(second)
    }

    fn linears_mut(&mut self) -> impl Iterator<Item = &mut Linear> {
        let (first, second) = match self {
            Self::Plain(l) => (l, None),
            Self::Dueling { v, a, .. } => (v, Some(a)),
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

/// The Q-network.
pub struct QNet {
    trunk: Vec<(Linear, Relu)>,
    head: HeadLayers,
    n_actions: usize,
    /// Ping-pong scratch buffers reused across calls.
    bufs: (Vec<f32>, Vec<f32>),
    /// Batch size of the cached forward pass.
    cached_batch: usize,
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
            trunk.push((Linear::new(h, prev, &mut rng), Relu::new()));
            prev = h;
        }
        let head = match head {
            Head::Plain => HeadLayers::Plain(Linear::new(n_actions, prev, &mut rng)),
            Head::Dueling => HeadLayers::Dueling {
                v: Linear::new(1, prev, &mut rng),
                a: Linear::new(n_actions, prev, &mut rng),
                scratch: DuelingScratch::default(),
            },
        };
        Self {
            trunk,
            head,
            n_actions,
            bufs: (Vec::new(), Vec::new()),
            cached_batch: 0,
        }
    }

    /// An inference-only copy of this network: the same weights and
    /// biases, and no gradient buffers or caches. It runs
    /// [`QNet::predict_batch_into`], [`QNet::copy_weights_from`] and
    /// [`QNet::read_params`], and must never be trained — the learner's
    /// target network.
    pub(crate) fn weights_only(&self) -> Self {
        let head = match &self.head {
            HeadLayers::Plain(l) => HeadLayers::Plain(l.weights_only()),
            HeadLayers::Dueling { v, a, .. } => HeadLayers::Dueling {
                v: v.weights_only(),
                a: a.weights_only(),
                scratch: DuelingScratch::default(),
            },
        };
        Self {
            trunk: self
                .trunk
                .iter()
                .map(|(l, _)| (l.weights_only(), Relu::new()))
                .collect(),
            head,
            n_actions: self.n_actions,
            bufs: (Vec::new(), Vec::new()),
            cached_batch: 0,
        }
    }

    /// Number of actions (Q outputs).
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Batched forward pass with caching (call before
    /// [`QNet::backward_batch`]). `x` is `batch × state_dim`; `out` is
    /// resized to `batch × n_actions`.
    ///
    /// The activations flow in **batch-minor** layout end-to-end (one
    /// transpose at entry, strided assembly at the head) so every trunk
    /// GEMM runs its inner loop over independent batch lanes.
    pub fn forward_batch(&mut self, x: &[f32], batch: usize, out: &mut Vec<f32>) {
        self.cached_batch = batch;
        let n = self.n_actions;
        let state_dim = x.len() / batch;
        let (cur, next) = (&mut self.bufs.0, &mut self.bufs.1);
        crate::tensor::transpose_into(x, cur, batch, state_dim);
        for (lin, relu) in &mut self.trunk {
            lin.forward_batch_tn(cur, batch, next);
            relu.forward(next);
            std::mem::swap(cur, next);
        }
        match &mut self.head {
            HeadLayers::Plain(l) => {
                l.forward_batch_tn(cur, batch, next);
                crate::tensor::transpose_into(next, out, n, batch);
            }
            HeadLayers::Dueling { v, a, scratch } => {
                v.forward_batch_tn(cur, batch, &mut scratch.vout);
                a.forward_batch_tn(cur, batch, &mut scratch.aout);
                assemble_dueling(&scratch.vout, &scratch.aout, batch, n, out);
            }
        }
    }

    /// Batched inference-only forward into caller-owned scratch: no
    /// cache of the network is touched (so it runs on `&self`, as the
    /// learner's bootstrap passes need) and none of the backward pass's
    /// upkeep — input copies, ReLU masks — is done.
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
        crate::tensor::transpose_into(x, cur, batch, x.len() / batch);
        for (lin, _) in &self.trunk {
            lin.forward_inference_batch_tn(cur, batch, next);
            Relu::forward_inference(next);
            std::mem::swap(cur, next);
        }
        match &self.head {
            HeadLayers::Plain(l) => {
                l.forward_inference_batch_tn(cur, batch, next);
                crate::tensor::transpose_into(next, out, n, batch);
            }
            HeadLayers::Dueling { v, a, .. } => {
                v.forward_inference_batch_tn(cur, batch, &mut scratch.vout);
                a.forward_inference_batch_tn(cur, batch, &mut scratch.aout);
                assemble_dueling(&scratch.vout, &scratch.aout, batch, n, out);
            }
        }
    }

    /// Batched backward pass from a `batch × n_actions` Q-gradient;
    /// accumulates parameter gradients over the whole minibatch.
    ///
    /// # Panics
    /// Panics if `dq`'s shape disagrees with the cached forward pass.
    pub fn backward_batch(&mut self, dq: &[f32], batch: usize) {
        assert_eq!(batch, self.cached_batch, "backward batch mismatch");
        assert_eq!(dq.len(), batch * self.n_actions);
        let n = self.n_actions;
        // The head's input gradient lands in `cur`, where the trunk
        // backward picks it up; `next` is free scratch until then.
        let (cur, next) = (&mut self.bufs.0, &mut self.bufs.1);
        // Head gradients are assembled directly in batch-minor
        // `rows × batch` layout; the trunk backward stays in it.
        match &mut self.head {
            HeadLayers::Plain(l) => {
                // Q_a = head output directly: dqt = dqᵀ.
                crate::tensor::transpose_into(dq, next, batch, n);
                l.backward_batch_tn(next, batch, cur);
            }
            HeadLayers::Dueling { v, a, scratch } => {
                // Q_a = V + A_a − mean(A):
                //   dV = Σ_a dQ_a
                //   dA_k = dQ_k − (1/N)·Σ_a dQ_a
                scratch.vout.resize(batch, 0.0);
                scratch.da.clear();
                scratch.da.resize(batch * n, 0.0);
                for b in 0..batch {
                    let dqb = &dq[b * n..(b + 1) * n];
                    let sum: f32 = dqb.iter().sum();
                    scratch.vout[b] = sum;
                    for (ai, q) in dqb.iter().enumerate() {
                        scratch.da[ai * batch + b] = q - sum / n as f32;
                    }
                }
                v.backward_batch_tn(&scratch.vout, batch, &mut scratch.dx_v);
                a.backward_batch_tn(&scratch.da, batch, &mut scratch.dx_a);
                scratch.sum_dx_into(cur);
            }
        }
        for (i, (lin, relu)) in self.trunk.iter_mut().enumerate().rev() {
            relu.backward(cur);
            if i == 0 {
                // The first layer's input gradient is d/d(state): nothing
                // consumes it, so skip that GEMM entirely.
                lin.backward_batch_tn_no_dx(cur, batch);
            } else {
                lin.backward_batch_tn(cur, batch, next);
                std::mem::swap(cur, next);
            }
        }
    }

    /// The trunk layers, in forward order (fast-path planning).
    pub(crate) fn trunk_layers(&self) -> &[(Linear, Relu)] {
        &self.trunk
    }

    /// The head layers (fast-path planning).
    pub(crate) fn head_layers(&self) -> &HeadLayers {
        &self.head
    }

    /// Every linear layer, in canonical order: trunk, then the head.
    fn layers(&self) -> impl Iterator<Item = &Linear> {
        self.trunk.iter().map(|(l, _)| l).chain(self.head.linears())
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut Linear> {
        self.trunk
            .iter_mut()
            .map(|(l, _)| l)
            .chain(self.head.linears_mut())
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

    /// One optimiser step over the accumulated gradients: a single
    /// sweep that updates every parameter in place and leaves the
    /// gradients cleared (see [`Adam::step`]).
    pub fn adam_step(&mut self, adam: &mut Adam) {
        adam.step(
            self.layers_mut()
                .flat_map(|l| [(&mut l.w[..], &mut l.gw[..]), (&mut l.b[..], &mut l.gb[..])]),
        );
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
    use rand::Rng;

    fn tiny(head: Head) -> QNet {
        QNet::new(4, &[8, 6], 3, head, 42)
    }

    /// One sample through the caching forward (what a backward follows).
    fn forward(net: &mut QNet, x: &[f32]) -> Vec<f32> {
        let mut q = Vec::new();
        net.forward_batch(x, 1, &mut q);
        q
    }

    /// One sample through the cache-free forward.
    fn predict(net: &QNet, x: &[f32]) -> Vec<f32> {
        let mut q = Vec::new();
        net.predict_batch_into(x, 1, &mut PredictScratch::default(), &mut q);
        q
    }

    /// All accumulated gradients, flattened in canonical layer order
    /// (a fresh network's are zero).
    fn grads(net: &QNet) -> Vec<f32> {
        net.layers()
            .flat_map(|l| l.gw.iter().chain(&l.gb).copied())
            .collect()
    }

    #[test]
    fn forward_shapes() {
        for head in [Head::Plain, Head::Dueling] {
            let mut net = tiny(head);
            let q = forward(&mut net, &[0.1, -0.2, 0.3, 0.4]);
            assert_eq!(q.len(), 3);
            assert_eq!(net.n_actions(), 3);
        }
    }

    #[test]
    fn predict_matches_forward() {
        for head in [Head::Plain, Head::Dueling] {
            let mut net = tiny(head);
            let x = [0.5, 0.1, -0.3, 0.9];
            assert_eq!(forward(&mut net, &x), predict(&net, &x), "{head:?}");
        }
    }

    #[test]
    fn batched_forward_matches_per_sample_both_heads() {
        for head in [Head::Plain, Head::Dueling] {
            let mut net = tiny(head);
            let mut rng = SmallRng::seed_from_u64(5);
            let batch = 7;
            let x: Vec<f32> = (0..batch * 4)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let mut q_batch = Vec::new();
            net.forward_batch(&x, batch, &mut q_batch);
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

            let mut q = Vec::new();
            batched.forward_batch(&x, batch, &mut q);
            batched.backward_batch(&dq, batch);
            let g_batched = grads(&batched);

            for b in 0..batch {
                forward(&mut serial, &x[b * 4..(b + 1) * 4]);
                serial.backward_batch(&dq[b * 3..(b + 1) * 3], 1);
            }
            let g_serial = grads(&serial);

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
        let mut net = tiny(Head::Dueling);
        let q = forward(&mut net, &[1.0, 2.0, 3.0, 4.0]);
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
            let q = forward(&mut net, &x);
            net.backward_batch(&q, 1);
            let analytic = grads(&net);

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
        let mut a = tiny(Head::Dueling);
        let mut b = QNet::new(4, &[8, 6], 3, Head::Dueling, 7);
        let x = [0.2, 0.4, -0.6, 0.8];
        assert_ne!(
            forward(&mut a, &x),
            forward(&mut b, &x),
            "different seeds differ"
        );
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
}
