//! The deployed-inference fast path: single-sample Q evaluation with a
//! pre-planned layer walk, preallocated scratch, and hand-written
//! AVX2 microkernels — the path `PolicySelector` and the `hrp-serve`
//! decision cycle run every placement decision through.
//!
//! [`FastPolicy`] plans the traversal once at construction: each linear
//! layer's weights are copied row-major (the scalar walk) **and**
//! re-packed into 8-row panels stored k-major (the AVX2 walk), biases
//! padded with zeros to a multiple of 8 rows, the fused linear+ReLU
//! step and the dueling-head combine inlined into one loop. All
//! buffers are sized at plan time, so steady-state [`FastPolicy::infer`]
//! / [`FastPolicy::greedy`] perform **zero heap allocations**.
//!
//! # Bit-identity contract
//!
//! Both kernels reproduce [`QNet::predict_batch_into`] at batch 1
//! **bit-for-bit**, not merely within tolerance:
//!
//! * the scalar walk runs the identical bias-first, `k`-ascending
//!   accumulation as [`crate::tensor::matvec`];
//! * the AVX2 walk vectorizes across eight *output rows* per vector
//!   register, so each lane still performs its row's scalar rounding
//!   sequence — and it deliberately uses separate multiply and add
//!   instructions (**no FMA**): a fused multiply-add rounds once where
//!   the reference rounds twice, which would break bit-identity;
//! * ReLU is `andnot(cmp_lt(acc, 0), acc)`, matching the reference's
//!   `if v < 0.0 { v = 0.0 }` exactly (a plain `max(acc, 0)` would
//!   flip `-0.0` to `+0.0`);
//! * the dueling combine `Q_i = V + A_i − mean(A)` runs scalar, in the
//!   reference's order, over the unpadded advantage lanes.
//!
//! Kernel choice is a runtime decision ([`Kernel::detect`] via
//! `is_x86_feature_detected!`), so the same binary is correct — and
//! identical in output — on any host.
//!
//! ```
//! use hrp_nn::infer::FastPolicy;
//! use hrp_nn::{Head, PredictScratch, QNet};
//!
//! let net = QNet::new(4, &[8, 6], 3, Head::Dueling, 7);
//! let mut fast = FastPolicy::new(&net);
//! let state = [0.1f32, -0.2, 0.3, 0.4];
//! // Bit-identical Q-values, same greedy action, no allocation.
//! let mut reference = Vec::new();
//! net.predict_batch_into(&state, 1, &mut PredictScratch::default(), &mut reference);
//! assert_eq!(reference, fast.infer(&state));
//! let best = hrp_nn::masked_argmax(&reference, |a| 0b111 & (1 << a) != 0);
//! assert_eq!(Some(fast.greedy(&state, 0b111)), best);
//! ```

use crate::layers::Linear;
use crate::net::{HeadLayers, QNet};
use crate::tensor::masked_argmax;

/// Panel width of the packed weight layout: one AVX2 `f32x8` register
/// of output rows.
const LANES: usize = 8;

/// Which matvec microkernel a [`FastPolicy`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar walk (the reference accumulation order).
    Scalar,
    /// Hand-written AVX2 register-tiled panels (x86-64 with AVX2 only).
    Avx2,
}

impl Kernel {
    /// The best kernel the running CPU supports, detected at runtime.
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
        }
        Self::Scalar
    }

    /// Whether the running CPU can execute this kernel.
    #[must_use]
    pub fn supported(self) -> bool {
        match self {
            Self::Scalar => true,
            Self::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// Report/CLI label (`scalar` / `avx2`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }
}

/// One planned fused linear(+ReLU) step: the reference row-major
/// weights for the scalar walk, plus the panel-packed copy for AVX2.
#[derive(Debug, Clone)]
struct PlanLayer {
    rows: usize,
    cols: usize,
    /// `rows` rounded up to a multiple of [`LANES`].
    rows_pad: usize,
    /// Row-major reference weights (`rows × cols`).
    w: Vec<f32>,
    /// Reference bias (`rows`).
    b: Vec<f32>,
    /// Panel-packed weights: panel `p` holds output rows
    /// `8p .. 8p+8` contiguously k-major — `wp[(p·cols + k)·8 + lane]`
    /// is `w[(8p+lane)·cols + k]`, zero for padded lanes — so each `k`
    /// step of the AVX2 walk is one 256-bit load plus one broadcast.
    wp: Vec<f32>,
    /// Zero-padded bias (`rows_pad`).
    bp: Vec<f32>,
    relu: bool,
}

impl PlanLayer {
    fn plan(lin: &Linear, relu: bool) -> Self {
        let (rows, cols) = (lin.rows, lin.cols);
        let rows_pad = rows.div_ceil(LANES) * LANES;
        let mut wp = vec![0.0f32; rows_pad * cols];
        for r in 0..rows {
            let (panel, lane) = (r / LANES, r % LANES);
            for k in 0..cols {
                wp[(panel * cols + k) * LANES + lane] = lin.w[r * cols + k];
            }
        }
        let mut bp = vec![0.0f32; rows_pad];
        bp[..rows].copy_from_slice(&lin.b);
        Self {
            rows,
            cols,
            rows_pad,
            w: lin.w.clone(),
            b: lin.b.clone(),
            wp,
            bp,
            relu,
        }
    }

    /// Run the fused step: `y[..rows_pad] = act(W·x + b)`, reading
    /// `x[..cols]`. Padded output lanes are bias-0 rows of zero weights
    /// and are never read downstream.
    fn run(&self, kernel: Kernel, x: &[f32], y: &mut [f32]) {
        match kernel {
            Kernel::Scalar => {
                crate::tensor::matvec(
                    &self.w,
                    &self.b,
                    &x[..self.cols],
                    &mut y[..self.rows],
                    self.rows,
                    self.cols,
                );
                if self.relu {
                    // Exactly `Relu::forward_inference`: zero strictly
                    // negative lanes, preserve −0.0 and NaN.
                    for v in &mut y[..self.rows] {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                // SAFETY: `Kernel::Avx2` is only constructed when
                // `supported()` holds (checked in `with_kernel`), and
                // the slices match the planned shapes.
                unsafe {
                    matvec_panels_avx2(
                        &self.wp,
                        &self.bp,
                        &x[..self.cols],
                        &mut y[..self.rows_pad],
                        self.rows_pad,
                        self.cols,
                        self.relu,
                    );
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => unreachable!("AVX2 kernel on a non-x86-64 host"),
        }
    }
}

/// Register-tiled panel matvec: eight output rows per vector register,
/// four panels (32 rows) in flight per sweep of `x` for instruction-
/// level parallelism. Each lane accumulates `b[r]; += w[r][k]·x[k]` for
/// `k` ascending with *separate* multiply and add — the exact rounding
/// sequence of the scalar reference (FMA would fuse the two roundings
/// into one and break bit-identity).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matvec_panels_avx2(
    wp: &[f32],
    bp: &[f32],
    x: &[f32],
    y: &mut [f32],
    rows_pad: usize,
    cols: usize,
    relu: bool,
) {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_andnot_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _CMP_LT_OQ,
    };
    debug_assert_eq!(wp.len(), rows_pad * cols);
    debug_assert_eq!(bp.len(), rows_pad);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows_pad);
    let n_panels = rows_pad / LANES;
    let zero = _mm256_setzero_ps();
    let wptr = wp.as_ptr();
    let bptr = bp.as_ptr();
    let yptr = y.as_mut_ptr();
    let xptr = x.as_ptr();
    // `if v < 0.0 { v = 0.0 }` as vector ops: the ordered less-than
    // mask keeps NaN and −0.0 lanes untouched, matching the scalar
    // ReLU exactly.
    let relu_exact = |acc: __m256| {
        if relu {
            _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(acc, zero), acc)
        } else {
            acc
        }
    };
    let mut p = 0usize;
    while p + 4 <= n_panels {
        let w0 = wptr.add(p * cols * LANES);
        let w1 = wptr.add((p + 1) * cols * LANES);
        let w2 = wptr.add((p + 2) * cols * LANES);
        let w3 = wptr.add((p + 3) * cols * LANES);
        let mut acc0 = _mm256_loadu_ps(bptr.add(p * LANES));
        let mut acc1 = _mm256_loadu_ps(bptr.add((p + 1) * LANES));
        let mut acc2 = _mm256_loadu_ps(bptr.add((p + 2) * LANES));
        let mut acc3 = _mm256_loadu_ps(bptr.add((p + 3) * LANES));
        for k in 0..cols {
            let xk = _mm256_set1_ps(*xptr.add(k));
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(xk, _mm256_loadu_ps(w0.add(k * LANES))));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(xk, _mm256_loadu_ps(w1.add(k * LANES))));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(xk, _mm256_loadu_ps(w2.add(k * LANES))));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(xk, _mm256_loadu_ps(w3.add(k * LANES))));
        }
        _mm256_storeu_ps(yptr.add(p * LANES), relu_exact(acc0));
        _mm256_storeu_ps(yptr.add((p + 1) * LANES), relu_exact(acc1));
        _mm256_storeu_ps(yptr.add((p + 2) * LANES), relu_exact(acc2));
        _mm256_storeu_ps(yptr.add((p + 3) * LANES), relu_exact(acc3));
        p += 4;
    }
    while p < n_panels {
        let wb = wptr.add(p * cols * LANES);
        let mut acc = _mm256_loadu_ps(bptr.add(p * LANES));
        for k in 0..cols {
            let xk = _mm256_set1_ps(*xptr.add(k));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xk, _mm256_loadu_ps(wb.add(k * LANES))));
        }
        _mm256_storeu_ps(yptr.add(p * LANES), relu_exact(acc));
        p += 1;
    }
}

#[derive(Debug, Clone)]
enum PlanHead {
    Plain(PlanLayer),
    Dueling { v: PlanLayer, a: PlanLayer },
}

/// The planned single-sample inference fast path over a frozen
/// [`QNet`]: fused layer walk, preallocated scratch, runtime-selected
/// microkernel. See the [module docs](self) for the bit-identity
/// contract.
#[derive(Debug, Clone)]
pub struct FastPolicy {
    state_dim: usize,
    n_actions: usize,
    kernel: Kernel,
    trunk: Vec<PlanLayer>,
    head: PlanHead,
    /// Ping-pong activation buffers, sized for the widest padded layer.
    buf_a: Vec<f32>,
    buf_b: Vec<f32>,
    /// Dueling value-head output (padded).
    hv: Vec<f32>,
    /// Head output (padded); plain Q or the advantage stream.
    qpad: Vec<f32>,
    /// Assembled dueling Q-values (`n_actions`).
    q: Vec<f32>,
}

impl FastPolicy {
    /// Plan the fast path for `net` with the best detected kernel.
    #[must_use]
    pub fn new(net: &QNet) -> Self {
        Self::with_kernel(net, Kernel::detect())
    }

    /// Plan the fast path with an explicit kernel (equivalence tests,
    /// benchmarks).
    ///
    /// # Panics
    /// Panics if the running CPU does not support `kernel`.
    #[must_use]
    pub fn with_kernel(net: &QNet, kernel: Kernel) -> Self {
        assert!(
            kernel.supported(),
            "kernel {} not supported on this CPU",
            kernel.name()
        );
        let trunk: Vec<PlanLayer> = net
            .trunk_layers()
            .iter()
            .map(|(lin, _)| PlanLayer::plan(lin, true))
            .collect();
        assert!(!trunk.is_empty(), "QNet guarantees a non-empty trunk");
        let state_dim = trunk[0].cols;
        let n_actions = net.n_actions();
        let head = match net.head_layers() {
            HeadLayers::Plain(l) => PlanHead::Plain(PlanLayer::plan(l, false)),
            HeadLayers::Dueling { v, a, .. } => PlanHead::Dueling {
                v: PlanLayer::plan(v, false),
                a: PlanLayer::plan(a, false),
            },
        };
        let width = trunk
            .iter()
            .map(|l| l.rows_pad)
            .max()
            .unwrap_or(0)
            .max(state_dim);
        let (hv_len, qpad_len) = match &head {
            PlanHead::Plain(l) => (0, l.rows_pad),
            PlanHead::Dueling { v, a } => (v.rows_pad, a.rows_pad),
        };
        Self {
            state_dim,
            n_actions,
            kernel,
            trunk,
            head,
            buf_a: vec![0.0; width],
            buf_b: vec![0.0; width],
            hv: vec![0.0; hv_len],
            qpad: vec![0.0; qpad_len],
            q: vec![0.0; n_actions],
        }
    }

    /// The kernel this plan runs.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// State vector length.
    #[must_use]
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Number of actions (Q outputs).
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Q-values for one state — bit-identical to
    /// [`QNet::predict_batch_into`] at batch 1, with zero heap allocations.
    ///
    /// # Panics
    /// Panics if `state` has the wrong length.
    pub fn infer(&mut self, state: &[f32]) -> &[f32] {
        assert_eq!(state.len(), self.state_dim, "state length mismatch");
        let kernel = self.kernel;
        let (cur, next) = (&mut self.buf_a, &mut self.buf_b);
        cur[..state.len()].copy_from_slice(state);
        for layer in &self.trunk {
            layer.run(kernel, cur, next);
            std::mem::swap(cur, next);
        }
        match &self.head {
            PlanHead::Plain(l) => {
                l.run(kernel, cur, &mut self.qpad);
                &self.qpad[..self.n_actions]
            }
            PlanHead::Dueling { v, a } => {
                v.run(kernel, cur, &mut self.hv);
                a.run(kernel, cur, &mut self.qpad);
                let n = self.n_actions;
                // The reference combine, over the unpadded advantage
                // lanes only, in the reference's summation order.
                let aout = &self.qpad[..n];
                let mean = aout.iter().sum::<f32>() / n as f32;
                let v0 = self.hv[0];
                for (qi, ai) in self.q.iter_mut().zip(aout.iter()) {
                    *qi = v0 + ai - mean;
                }
                &self.q
            }
        }
    }

    /// Greedy action among the `mask`'s valid bits (ties → lowest
    /// index, exactly [`masked_argmax`] over [`FastPolicy::infer`]).
    ///
    /// # Panics
    /// Panics if the mask has no valid action.
    pub fn greedy(&mut self, state: &[f32], mask: u64) -> usize {
        assert!(mask != 0, "no valid action");
        let q = self.infer(state);
        masked_argmax(q, |a| mask & (1 << a) != 0).expect("mask checked non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Head, PredictScratch};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The reference: the training-side inference forward at batch 1.
    fn predict(net: &QNet, state: &[f32]) -> Vec<f32> {
        let mut q = Vec::new();
        net.predict_batch_into(state, 1, &mut PredictScratch::default(), &mut q);
        q
    }

    fn random_states(dim: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.5f32..1.5)).collect()
    }

    /// Shapes chosen to hit every padding case: rows ≡ 0 mod 8, odd
    /// rows, single-row (the dueling V head), more than 4 panels (the
    /// register-tiled loop), and fewer than one panel.
    fn shapes() -> Vec<(usize, Vec<usize>, usize)> {
        vec![
            (4, vec![8, 6], 3),
            (7, vec![33], 5),
            (2, vec![3], 1),
            (18, vec![64, 32], 8),
            (5, vec![40, 24, 16], 12),
        ]
    }

    #[test]
    fn scalar_kernel_is_bit_identical_to_predict() {
        for (dim, hidden, n_actions) in shapes() {
            for head in [Head::Plain, Head::Dueling] {
                let net = QNet::new(dim, &hidden, n_actions, head, 11);
                let mut fast = FastPolicy::with_kernel(&net, Kernel::Scalar);
                for (i, s) in random_states(dim, 16, 3).chunks(dim).enumerate() {
                    let reference = predict(&net, s);
                    let q = fast.infer(s);
                    for (a, (f, r)) in q.iter().zip(reference.iter()).enumerate() {
                        assert_eq!(
                            f.to_bits(),
                            r.to_bits(),
                            "{head:?} dim {dim} state {i} action {a}: {f} vs {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_kernel_is_bit_identical_to_scalar() {
        if !Kernel::Avx2.supported() {
            return;
        }
        for (dim, hidden, n_actions) in shapes() {
            for head in [Head::Plain, Head::Dueling] {
                let net = QNet::new(dim, &hidden, n_actions, head, 23);
                let mut scalar = FastPolicy::with_kernel(&net, Kernel::Scalar);
                let mut avx2 = FastPolicy::with_kernel(&net, Kernel::Avx2);
                for s in random_states(dim, 16, 9).chunks(dim) {
                    let qs: Vec<u32> = scalar.infer(s).iter().map(|v| v.to_bits()).collect();
                    let qa: Vec<u32> = avx2.infer(s).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(qs, qa, "{head:?} dim {dim}");
                }
            }
        }
    }

    #[test]
    fn greedy_matches_reference_argmax() {
        let net = QNet::new(6, &[16, 12], 9, Head::Dueling, 5);
        let mut fast = FastPolicy::new(&net);
        let mut rng = SmallRng::seed_from_u64(77);
        for s in random_states(6, 32, 31).chunks(6) {
            let mask = rng.gen_range(1u64..(1 << 9));
            let q = predict(&net, s);
            let expect = masked_argmax(&q, |a| mask & (1 << a) != 0).unwrap();
            assert_eq!(fast.greedy(s, mask), expect);
        }
    }

    #[test]
    #[should_panic(expected = "no valid action")]
    fn greedy_rejects_empty_mask() {
        let net = QNet::new(2, &[4], 2, Head::Plain, 1);
        FastPolicy::new(&net).greedy(&[0.0, 0.0], 0);
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn infer_rejects_wrong_state_length() {
        let net = QNet::new(3, &[4], 2, Head::Plain, 1);
        FastPolicy::new(&net).infer(&[0.0, 0.0]);
    }

    #[test]
    fn detect_never_picks_an_unsupported_kernel() {
        assert!(Kernel::detect().supported());
        assert!(Kernel::Scalar.supported());
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Avx2.name(), "avx2");
    }

    #[test]
    fn relu_edge_cases_survive_the_fast_path() {
        // Drive a layer to produce exact zeros and negatives: bias-only
        // inputs through zeroed weights.
        let mut net = QNet::new(4, &[8], 3, Head::Plain, 2);
        let zeros = vec![0.0f32; net.num_params()];
        net.read_params(&zeros);
        let mut fast = FastPolicy::new(&net);
        let q = fast.infer(&[0.5, -0.5, 1.0, -1.0]);
        let reference = predict(&net, &[0.5, -0.5, 1.0, -1.0]);
        for (f, r) in q.iter().zip(reference.iter()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }
}
