//! The deployed-inference fast path: single-sample Q evaluation with a
//! pre-planned layer walk, preallocated scratch and one safe panel
//! kernel — the path `PolicySelector` and the `hrp-serve` decision
//! cycle run every placement decision through.
//!
//! [`FastPolicy`] plans the traversal once at construction: each linear
//! layer's weights are packed into panels of eight output rows, four
//! panels to a group and k-major within it, so one step of the walk
//! reads one `x[k]` and the next 32 weights in order into accumulators
//! that stay in registers. Biases are padded with zeros to a multiple of
//! 8 rows; the fused linear+ReLU step and the dueling-head combine are
//! inlined into one loop. All buffers are sized at plan time, so
//! steady-state [`FastPolicy::infer`] / [`FastPolicy::greedy`] perform
//! **zero heap allocations**.
//!
//! # Bit-identity contract
//!
//! The kernel reproduces [`QNet::predict_batch_into`] at batch 1
//! **bit-for-bit** on every target, by construction:
//!
//! * each lane is one output row and runs [`crate::tensor::matvec`]'s
//!   sequence: start at the bias, then `acc += w[r][k]·x[k]` for `k`
//!   ascending, the multiply and the add rounded separately (Rust never
//!   contracts them into a fused multiply-add). The lanes are
//!   independent, so the vector width the compiler picks only changes
//!   how many run at once;
//! * ReLU is the reference's `if v < 0.0 { v = 0.0 }`, which keeps
//!   −0.0 and NaN (`f32::max(v, 0.0)` would turn NaN into `0.0`);
//! * the dueling combine `Q_i = V + A_i − mean(A)` runs in the
//!   reference's order over the unpadded advantage lanes.
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

/// Output rows per panel.
const LANES: usize = 8;

/// Panels per group: the walk's rows in flight are `GROUP × LANES`.
const GROUP: usize = 4;

/// One planned fused linear(+ReLU) step over panel-packed weights.
#[derive(Debug, Clone)]
struct PlanLayer {
    cols: usize,
    /// The layer's rows rounded up to a multiple of [`LANES`].
    rows_pad: usize,
    /// Panel-packed weights: panel `p` is rows `8p .. 8p+8`, and the
    /// panels go four to a group (the last `n_panels % 4` alone), k-major
    /// in their group: for the group of `P` panels from panel `first`,
    /// `wp[8·first·cols + (k·P + p)·8 + lane]` is `w[8·(first+p) + lane][k]`,
    /// zero for padded rows.
    wp: Vec<f32>,
    /// Zero-padded bias (`rows_pad`).
    bp: Vec<f32>,
    relu: bool,
}

impl PlanLayer {
    fn plan(lin: &Linear, relu: bool) -> Self {
        let (rows, cols) = (lin.rows, lin.cols);
        let n_panels = rows.div_ceil(LANES);
        let grouped = n_panels - n_panels % GROUP;
        let mut wp = vec![0.0f32; n_panels * LANES * cols];
        for r in 0..rows {
            let (panel, lane) = (r / LANES, r % LANES);
            let width = if panel < grouped { GROUP } else { 1 };
            let first = panel - panel % width;
            let base = first * LANES * cols + (panel - first) * LANES + lane;
            for k in 0..cols {
                wp[base + k * width * LANES] = lin.w[r * cols + k];
            }
        }
        let mut bp = vec![0.0f32; n_panels * LANES];
        bp[..rows].copy_from_slice(&lin.b);
        Self {
            cols,
            rows_pad: n_panels * LANES,
            wp,
            bp,
            relu,
        }
    }

    /// Run the fused step: `y[..rows_pad] = act(W·x + b)`, reading
    /// `x[..cols]`. Padded output lanes are bias-0 rows of zero weights
    /// and are never read downstream.
    fn run(&self, x: &[f32], y: &mut [f32]) {
        let x = &x[..self.cols];
        let (b, _) = self.bp.as_chunks::<LANES>();
        let (y, _) = y[..self.rows_pad].as_chunks_mut::<LANES>();
        let grouped = b.len() - b.len() % GROUP;
        let (w4, w1) = self.wp.split_at(grouped * LANES * self.cols);
        let ((b4, b1), (y4, y1)) = (b.split_at(grouped), y.split_at_mut(grouped));
        panels::<GROUP>(w4, b4, x, y4, self.relu);
        panels::<1>(w1, b1, x, y1, self.relu);
    }
}

/// `y = act(W·x + b)` over groups of `P` panels, one group at a time:
/// each lane adds its row's products to its bias in ascending `k`,
/// exactly as [`crate::tensor::matvec`].
#[inline(always)]
fn panels<const P: usize>(
    w: &[f32],
    b: &[[f32; LANES]],
    x: &[f32],
    y: &mut [[f32; LANES]],
    relu: bool,
) {
    let step = P * LANES * x.len();
    let (b, _) = b.as_chunks::<P>();
    let (y, _) = y.as_chunks_mut::<P>();
    for (g, (b, y)) in b.iter().zip(y).enumerate() {
        let mut acc = *b;
        let (w, _) = w[g * step..][..step].as_chunks::<LANES>();
        for (wk, &xk) in w.as_chunks::<P>().0.iter().zip(x) {
            for p in 0..P {
                for lane in 0..LANES {
                    acc[p][lane] += wk[p][lane] * xk;
                }
            }
        }
        if relu {
            // Exactly `Relu::forward_inference`: zero strictly negative
            // lanes, keep −0.0 and NaN.
            for v in acc.as_flattened_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        *y = acc;
    }
}

#[derive(Debug, Clone)]
enum PlanHead {
    Plain(PlanLayer),
    Dueling { v: PlanLayer, a: PlanLayer },
}

/// The planned single-sample inference fast path over a frozen
/// [`QNet`]: fused layer walk over panel-packed weights, preallocated
/// scratch. See the [module docs](self) for the bit-identity contract.
#[derive(Debug, Clone)]
pub struct FastPolicy {
    state_dim: usize,
    n_actions: usize,
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
    /// Plan the fast path for `net`.
    #[must_use]
    pub fn new(net: &QNet) -> Self {
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
        let width = trunk.iter().fold(state_dim, |w, l| w.max(l.rows_pad));
        let (hv_len, qpad_len) = match &head {
            PlanHead::Plain(l) => (0, l.rows_pad),
            PlanHead::Dueling { v, a } => (v.rows_pad, a.rows_pad),
        };
        Self {
            state_dim,
            n_actions,
            trunk,
            head,
            buf_a: vec![0.0; width],
            buf_b: vec![0.0; width],
            hv: vec![0.0; hv_len],
            qpad: vec![0.0; qpad_len],
            q: vec![0.0; n_actions],
        }
    }

    /// Q-values for one state — bit-identical to
    /// [`QNet::predict_batch_into`] at batch 1, with zero heap allocations.
    ///
    /// # Panics
    /// Panics if `state` has the wrong length.
    pub fn infer(&mut self, state: &[f32]) -> &[f32] {
        assert_eq!(state.len(), self.state_dim, "state length mismatch");
        let (cur, next) = (&mut self.buf_a, &mut self.buf_b);
        cur[..state.len()].copy_from_slice(state);
        for layer in &self.trunk {
            layer.run(cur, next);
            std::mem::swap(cur, next);
        }
        match &self.head {
            PlanHead::Plain(l) => {
                l.run(cur, &mut self.qpad);
                &self.qpad[..self.n_actions]
            }
            PlanHead::Dueling { v, a } => {
                v.run(cur, &mut self.hv);
                a.run(cur, &mut self.qpad);
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
    /// rows, single-row (the dueling V head), fewer than one panel,
    /// whole groups of four panels, and groups followed by one to three
    /// lone panels.
    fn shapes() -> Vec<(usize, Vec<usize>, usize)> {
        vec![
            (4, vec![8, 6], 3),
            (7, vec![33], 5),
            (2, vec![3], 1),
            (18, vec![64, 32], 8),
            (5, vec![40, 24, 16], 12),
            (9, vec![56], 33),
        ]
    }

    /// Bitwise equality, except that any NaN equals any NaN: which
    /// operand's sign and payload a NaN carries is not fixed.
    fn assert_same_bits(fast: &[f32], reference: &[f32], what: &str) {
        assert_eq!(fast.len(), reference.len(), "{what}");
        for (a, (f, r)) in fast.iter().zip(reference).enumerate() {
            let same = f.to_bits() == r.to_bits() || (f.is_nan() && r.is_nan());
            assert!(same, "{what} action {a}: {f} vs {r}");
        }
    }

    #[test]
    fn panel_kernel_is_bit_identical_to_predict() {
        for (dim, hidden, n_actions) in shapes() {
            for head in [Head::Plain, Head::Dueling] {
                let net = QNet::new(dim, &hidden, n_actions, head, 11);
                let mut fast = FastPolicy::new(&net);
                for (i, s) in random_states(dim, 16, 3).chunks(dim).enumerate() {
                    let what = format!("{head:?} dim {dim} state {i}");
                    assert_same_bits(fast.infer(s), &predict(&net, s), &what);
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
    fn relu_edge_cases_survive_the_fast_path() {
        // Drive a layer to produce exact zeros and negatives: bias-only
        // inputs through zeroed weights.
        let mut net = QNet::new(4, &[8], 3, Head::Plain, 2);
        let zeros = vec![0.0f32; net.num_params()];
        net.read_params(&zeros);
        let s = [0.5, -0.5, 1.0, -1.0];
        assert_same_bits(
            FastPolicy::new(&net).infer(&s),
            &predict(&net, &s),
            "bias only",
        );

        // Pre-activations of exactly −0.0: −0.0 trunk weights and biases
        // over a state of positive sign sum to −0.0, which ReLU must
        // keep; the head's +0.0 weights and −0.0 biases pass the sign on
        // (a lost sign would come out +0.0).
        let mut params = vec![-0.0f32; net.num_params()];
        params[8 * 4 + 8..][..3 * 8].fill(0.0);
        net.read_params(&params);
        for s in [[0.5, 0.0, 1.0, 2.0], [1e-40, 0.0, 3.0, 0.0]] {
            let reference = predict(&net, &s);
            assert!(reference.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
            assert_same_bits(FastPolicy::new(&net).infer(&s), &reference, "−0.0");
        }

        // Special values in the state, one at a time and all together,
        // through every padding shape: infinities turn rows to ±inf or
        // NaN (inf − inf), and ReLU must keep NaN while zeroing −inf.
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40];
        assert!(specials[5].is_subnormal());
        for (dim, hidden, n_actions) in shapes() {
            for head in [Head::Plain, Head::Dueling] {
                let net = QNet::new(dim, &hidden, n_actions, head, 5);
                let mut fast = FastPolicy::new(&net);
                let mut states = vec![(0..dim).map(|i| specials[i % 6]).collect::<Vec<_>>()];
                for (at, v) in (0..dim).flat_map(|at| specials.map(|v| (at, v))) {
                    let mut s = random_states(dim, 1, 17);
                    s[at] = v;
                    states.push(s);
                }
                for s in &states {
                    let what = format!("{head:?} dim {dim} state {s:?}");
                    assert_same_bits(fast.infer(s), &predict(&net, s), &what);
                }
            }
        }
    }
}
