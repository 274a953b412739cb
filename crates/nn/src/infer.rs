//! The single-sample inference path: Q evaluation of one state with a
//! pre-planned layer walk and one safe panel kernel — the path every
//! training rollout action, every greedy evaluation rollout and every
//! `PolicySelector` placement decision runs through.
//!
//! [`FastPolicy`] plans the traversal once at construction: each linear
//! layer's weights are packed into panels of eight output rows, four
//! panels to a group and k-major within it, so one step of the walk
//! reads one `x[k]` and the next 32 weights in order into accumulators
//! that stay in registers. Biases are padded with zeros to a multiple of
//! 8 rows; the fused linear+ReLU step and the dueling-head combine are
//! inlined into one loop. The plan is immutable: [`FastPolicy::infer`]
//! and [`FastPolicy::greedy`] take `&self` plus a caller-owned
//! [`InferScratch`], so one plan serves any number of rollout workers.
//! The scratch sizes itself on first use; after that, inference performs
//! **zero heap allocations**.
//!
//! # Bit-identity contract
//!
//! The kernel computes one fixed scalar sequence, bit for bit on every
//! target:
//!
//! * each lane is one output row: start at the bias, then
//!   `acc += w[r][k]·x[k]` for `k` ascending, the multiply and the add
//!   rounded separately (Rust never contracts them into a fused
//!   multiply-add). The lanes are independent, so the vector width the
//!   compiler picks only changes how many run at once;
//! * ReLU is `if v < 0.0 { v = 0.0 }`, which keeps −0.0 and NaN
//!   (`f32::max(v, 0.0)` would turn NaN into `0.0`);
//! * the dueling combine `Q_i = V + A_i − mean(A)` runs over the
//!   unpadded advantage lanes, summed in ascending order.
//!
//! `tests/infer_contract.rs` holds the kernel to a scalar spelling of
//! this sequence. The batched training forwards group their products
//! four at a time (see [`crate::tensor`]), so they agree with it within
//! float accumulation error, not bit for bit.
//!
//! ```
//! use hrp_nn::infer::{FastPolicy, InferScratch};
//! use hrp_nn::{Head, QNet};
//!
//! // 2 → 2 → 2: hidden W = [[1, 2], [−1, 0]], b = [0.5, 0];
//! // head W = [[1, 0], [0.25, −1]], b = [0, 1].
//! let mut net = QNet::new(2, &[2], 2, Head::Plain, 7);
//! net.read_params(&[1.0, 2.0, -1.0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.25, -1.0, 0.0, 1.0]);
//! let fast = FastPolicy::new(&net);
//! let mut scratch = InferScratch::default();
//! // hidden = ReLU([0.5 + 1·1 + 2·3, 0 − 1·1 + 0·3]) = [7.5, 0];
//! // q = [0 + 1·7.5 + 0·0, 1 + 0.25·7.5 − 1·0] = [7.5, 2.875].
//! assert_eq!(fast.infer(&[1.0, 3.0], &mut scratch), [7.5, 2.875]);
//! // Greedy among the valid bits: only action 1 is allowed.
//! assert_eq!(fast.greedy(&[1.0, 3.0], 0b10, &mut scratch), 1);
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
/// each lane adds its row's products to its bias in ascending `k`.
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
            // Exactly the inference ReLU of `QNet::predict_batch_into`:
            // zero strictly negative lanes, keep −0.0 and NaN.
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

/// The planned single-sample inference path over a frozen [`QNet`]:
/// fused layer walk over panel-packed weights. See the
/// [module docs](self) for the bit-identity contract.
#[derive(Debug, Clone)]
pub struct FastPolicy {
    state_dim: usize,
    n_actions: usize,
    /// The widest padded activation: the ping-pong buffers' length.
    width: usize,
    trunk: Vec<PlanLayer>,
    head: PlanHead,
}

/// Caller-owned buffers for [`FastPolicy::infer`] and
/// [`FastPolicy::greedy`]. Any plan can use any scratch: it is sized on
/// first use, after which inference allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    /// Ping-pong activation buffers.
    cur: Vec<f32>,
    next: Vec<f32>,
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
            .map(|lin| PlanLayer::plan(lin, true))
            .collect();
        assert!(!trunk.is_empty(), "QNet guarantees a non-empty trunk");
        let state_dim = trunk[0].cols;
        let head = match net.head_layers() {
            HeadLayers::Plain(l) => PlanHead::Plain(PlanLayer::plan(l, false)),
            HeadLayers::Dueling { v, a } => PlanHead::Dueling {
                v: PlanLayer::plan(v, false),
                a: PlanLayer::plan(a, false),
            },
        };
        Self {
            state_dim,
            n_actions: net.n_actions(),
            width: trunk.iter().fold(state_dim, |w, l| w.max(l.rows_pad)),
            trunk,
            head,
        }
    }

    /// Number of actions (Q outputs).
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Q-values for one state, computed in `scratch`.
    ///
    /// # Panics
    /// Panics if `state` has the wrong length.
    pub fn infer<'s>(&self, state: &[f32], scratch: &'s mut InferScratch) -> &'s [f32] {
        assert_eq!(state.len(), self.state_dim, "state length mismatch");
        let InferScratch {
            cur,
            next,
            hv,
            qpad,
            q,
        } = scratch;
        cur.resize(self.width, 0.0);
        next.resize(self.width, 0.0);
        cur[..state.len()].copy_from_slice(state);
        for layer in &self.trunk {
            layer.run(cur, next);
            std::mem::swap(cur, next);
        }
        let n = self.n_actions;
        match &self.head {
            PlanHead::Plain(l) => {
                qpad.resize(l.rows_pad, 0.0);
                l.run(cur, qpad);
                &qpad[..n]
            }
            PlanHead::Dueling { v, a } => {
                hv.resize(v.rows_pad, 0.0);
                qpad.resize(a.rows_pad, 0.0);
                v.run(cur, hv);
                a.run(cur, qpad);
                // The combine, over the unpadded advantage lanes only.
                let aout = &qpad[..n];
                let mean = aout.iter().sum::<f32>() / n as f32;
                q.clear();
                q.extend(aout.iter().map(|ai| hv[0] + ai - mean));
                &q[..]
            }
        }
    }

    /// Greedy action among the `mask`'s valid bits (ties → lowest
    /// index, exactly [`masked_argmax`] over [`FastPolicy::infer`]).
    ///
    /// # Panics
    /// Panics if the mask has no valid action.
    pub fn greedy(&self, state: &[f32], mask: u64, scratch: &mut InferScratch) -> usize {
        assert!(mask != 0, "no valid action");
        let q = self.infer(state, scratch);
        masked_argmax(q, |a| mask & (1 << a) != 0).expect("mask checked non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Head;

    #[test]
    #[should_panic(expected = "no valid action")]
    fn greedy_rejects_empty_mask() {
        let net = QNet::new(2, &[4], 2, Head::Plain, 1);
        FastPolicy::new(&net).greedy(&[0.0, 0.0], 0, &mut InferScratch::default());
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn infer_rejects_wrong_state_length() {
        let net = QNet::new(3, &[4], 2, Head::Plain, 1);
        FastPolicy::new(&net).infer(&[0.0, 0.0], &mut InferScratch::default());
    }
}
