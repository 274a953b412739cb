//! Layers with exact backpropagation: fully-connected (`Linear`) and
//! `ReLU`. A `Linear` runs every batch size, one sample included, in
//! batch-minor layout (`n × batch`, the `_tn` entry points), and holds
//! its weights and biases only: what a backward pass needs from the
//! forward (the layer's input, the ReLU masks) lives in the network's
//! [`crate::net::LearnScratch`], and its backward pass hands each block
//! of gradient straight to a [`GradSink`] — the optimiser, which
//! updates the layer on the spot — so no layer keeps a gradient.

use crate::opt::GradSink;
use crate::tensor::{matmul_bias_tn, matmul_dw_tn, matmul_dx_tn, relu_backward, relu_forward};
use rand::rngs::SmallRng;
use rand::Rng;

/// Floats in one block of a layer's weight gradient: the block is
/// computed into one small scratch and handed to the sink at once.
const DW_BLOCK: usize = 4096;

/// A fully-connected layer `Y = X·Wᵀ + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Output dimension.
    pub rows: usize,
    /// Input dimension.
    pub cols: usize,
    /// Weights, `rows × cols` row-major.
    pub w: Vec<f32>,
    /// Bias, length `rows`.
    pub b: Vec<f32>,
}

impl Linear {
    /// He-uniform initialisation (appropriate for ReLU trunks).
    #[must_use]
    pub fn new(rows: usize, cols: usize, rng: &mut SmallRng) -> Self {
        let limit = (6.0 / cols as f32).sqrt();
        let w = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Self {
            rows,
            cols,
            w,
            b: vec![0.0; rows],
        }
    }

    /// Batched forward pass in batch-minor layout: `xt` is
    /// `cols × batch`, `yt` becomes `rows × batch`.
    ///
    /// The batch-minor entry points let a multi-layer network keep its
    /// activations in one layout end-to-end — a layer's `yt` is the
    /// next layer's `xt` — paying layout-conversion cost only at the
    /// network boundary.
    pub fn forward_batch_tn(&self, xt: &[f32], batch: usize, yt: &mut Vec<f32>) {
        debug_assert_eq!(xt.len(), batch * self.cols);
        matmul_bias_tn(&self.w, &self.b, xt, yt, batch, self.rows, self.cols);
    }

    /// Batch-minor input gradient: `dyt` is the output gradient
    /// (`rows × batch`), `dxt` becomes `cols × batch`. A backward pass
    /// takes it before [`Linear::backward_params_tn`] updates the
    /// weights it reads.
    pub fn backward_input_tn(&self, dyt: &[f32], batch: usize, dxt: &mut Vec<f32>) {
        matmul_dx_tn(&self.w, dyt, dxt, batch, self.rows, self.cols);
    }

    /// Batch-minor weight and bias gradients, handed to `sink` — which
    /// may update the layer — a block of output rows at a time: `dyt`
    /// is the output gradient (`rows × batch`) and `x` the input the
    /// forward saw, batch-major (`batch × cols`).
    ///
    /// A block is whole 4-row tiles, as many as fit in `DW_BLOCK`
    /// (4 096) floats, computed into `block` and handed over once it is
    /// complete. `at` is the layer's offset in the flat parameter
    /// vector (weights, then biases). Each parameter is handed over
    /// exactly once.
    pub fn backward_params_tn(
        &mut self,
        x: &[f32],
        dyt: &[f32],
        batch: usize,
        at: usize,
        block: &mut Vec<f32>,
        sink: &mut impl GradSink,
    ) {
        let (rows, cols) = (self.rows, self.cols);
        debug_assert_eq!(x.len(), batch * cols);
        debug_assert_eq!(dyt.len(), rows * batch);
        let bias_at = at + rows * cols;
        let block_rows = (DW_BLOCK / cols.max(1) / 4).max(1) * 4;
        let mut r0 = 0;
        while r0 < rows {
            let n = block_rows.min(rows - r0);
            block.clear();
            block.resize(n * (cols + 1), 0.0);
            let (gw, gb) = block.split_at_mut(n * cols);
            let dy = &dyt[r0 * batch..(r0 + n) * batch];
            matmul_dw_tn(gw, gb, dy, x, batch, n, cols);
            sink.take(at + r0 * cols, &mut self.w[r0 * cols..(r0 + n) * cols], gw);
            sink.take(bias_at + r0, &mut self.b[r0..r0 + n], gb);
            r0 += n;
        }
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// ReLU activation with a cached pass-through mask.
///
/// All entry points are length-agnostic: a `batch × n` matrix is masked
/// lane-by-lane exactly like `batch` separate vectors.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// New (stateless until the first forward).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// In-place forward; records which lanes were positive.
    pub fn forward(&mut self, x: &mut [f32]) {
        self.mask.resize(x.len(), false);
        relu_forward(x, &mut self.mask);
    }

    /// In-place forward without caching (inference only).
    pub fn forward_inference(x: &mut [f32]) {
        for v in x.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// In-place backward using the cached mask.
    pub fn backward(&self, dy: &mut [f32]) {
        relu_backward(dy, &self.mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::GradSum;
    use crate::tensor::transpose_into;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    // At batch 1 a batch-minor `cols × 1` input is the sample itself.

    #[test]
    fn linear_forward_matches_manual() {
        let mut l = Linear::new(2, 3, &mut rng());
        l.w = vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5];
        l.b = vec![0.5, -0.5];
        let mut y = Vec::new();
        l.forward_batch_tn(&[1.0, 2.0, 3.0], 1, &mut y);
        assert!((y[0] - (1.0 - 3.0 + 0.5)).abs() < 1e-6);
        assert!((y[1] - (2.0 + 2.0 + 1.5 - 0.5)).abs() < 1e-6);
    }

    /// The gradient a backward pass hands its sink, read through the
    /// test recorder (which leaves the weights alone): `(dx, [gw, gb])`
    /// for batch-major `x` and batch-minor `dyt`, the input gradient
    /// batch-minor.
    fn gradients(l: &mut Linear, x: &[f32], dyt: &[f32], batch: usize) -> (Vec<f32>, Vec<f32>) {
        let mut sum = GradSum(vec![0.0; l.num_params()]);
        let (mut dxt, mut block) = (Vec::new(), Vec::new());
        l.backward_input_tn(dyt, batch, &mut dxt);
        l.backward_params_tn(x, dyt, batch, 0, &mut block, &mut sum);
        (dxt, sum.0)
    }

    #[test]
    fn linear_gradients_match_numerical() {
        // Check dL/dW, dL/db and dL/dx against central differences for
        // L = sum(y^2)/2 so dL/dy = y.
        let mut l = Linear::new(3, 4, &mut rng());
        let x: Vec<f32> = vec![0.3, -0.7, 1.2, 0.05];
        let mut y = Vec::new();
        l.forward_batch_tn(&x, 1, &mut y);
        let (dx, g) = gradients(&mut l, &x, &y, 1);
        let (gw, gb) = g.split_at(12);

        let eps = 1e-3f32;
        let loss = |l: &Linear, x: &[f32]| -> f32 {
            let mut y = Vec::new();
            l.forward_batch_tn(x, 1, &mut y);
            0.5 * y.iter().map(|v| v * v).sum::<f32>()
        };
        // Weight gradients.
        for idx in [0usize, 5, 11] {
            let mut lp = l.clone();
            lp.w[idx] += eps;
            let mut lm = l.clone();
            lm.w[idx] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!(
                (num - gw[idx]).abs() < 2e-2 * num.abs().max(1.0),
                "gw[{idx}]: num {num} vs analytic {}",
                gw[idx]
            );
        }
        // Bias gradient.
        for (idx, g) in gb.iter().enumerate() {
            let mut lp = l.clone();
            lp.b[idx] += eps;
            let mut lm = l.clone();
            lm.b[idx] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((num - g).abs() < 2e-2 * num.abs().max(1.0));
        }
        // Input gradient.
        for idx in 0..4 {
            let mut xp = x.clone();
            xp[idx] += eps;
            let mut xm = x.clone();
            xm[idx] -= eps;
            let num = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * eps);
            assert!((num - dx[idx]).abs() < 2e-2 * num.abs().max(1.0));
        }
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        // A sink sees every parameter once per pass, in blocks that
        // tile the layer: two passes into one recorder give twice one
        // pass's gradient, for a layer of several blocks (4 rows of
        // 1 024 inputs each) and a ragged last one.
        let (rows, cols) = (11, DW_BLOCK / 4);
        let mut l = Linear::new(rows, cols, &mut rng());
        let x = vec![1.0; cols];
        let dy = vec![1.0; rows];
        let (_, once) = gradients(&mut l, &x, &dy, 1);
        assert!(once.iter().all(|&g| g == 1.0), "{once:?}");
        let mut sum = GradSum(vec![0.0; l.num_params()]);
        let mut block = Vec::new();
        for _ in 0..2 {
            l.backward_params_tn(&x, &dy, 1, 0, &mut block, &mut sum);
        }
        assert!(sum.0.iter().all(|&g| g == 2.0), "{:?}", sum.0);
    }

    #[test]
    fn batched_forward_backward_equals_per_sample_loop() {
        // One batched step over B samples must produce the same outputs
        // and the same summed gradients as B one-sample steps.
        let (batch, rows, cols) = (5, 6, 4);
        let mut batched = Linear::new(rows, cols, &mut rng());
        let mut serial = batched.clone();
        let mut data_rng = SmallRng::seed_from_u64(9);
        let x: Vec<f32> = (0..batch * cols)
            .map(|_| data_rng.gen_range(-1.0f32..1.0))
            .collect();
        let dy: Vec<f32> = (0..batch * rows)
            .map(|_| data_rng.gen_range(-1.0f32..1.0))
            .collect();

        // The batched side runs batch-minor, the layout `QNet` hands a
        // minibatch over in: transpose in, transpose out. The weight
        // gradient reads the input batch-major, as the network caches it.
        let (mut xt, mut dyt) = (Vec::new(), Vec::new());
        transpose_into(&x, &mut xt, batch, cols);
        transpose_into(&dy, &mut dyt, batch, rows);
        let mut yt = Vec::new();
        batched.forward_batch_tn(&xt, batch, &mut yt);
        let (dxt, g_batched) = gradients(&mut batched, &x, &dyt, batch);
        let (mut y_b, mut dx_b) = (Vec::new(), Vec::new());
        transpose_into(&yt, &mut y_b, rows, batch);
        transpose_into(&dxt, &mut dx_b, cols, batch);

        // Outputs and input gradients are per-lane sums: bit-equal. The
        // weight gradients sum over the batch in another grouping.
        let mut y_s = Vec::new();
        let mut g_serial = vec![0.0f32; serial.num_params()];
        for bi in 0..batch {
            let xb = &x[bi * cols..(bi + 1) * cols];
            serial.forward_batch_tn(xb, 1, &mut y_s);
            assert_eq!(y_b[bi * rows..(bi + 1) * rows], y_s, "y sample {bi}");
            let (dx_s, g) = gradients(&mut serial, xb, &dy[bi * rows..(bi + 1) * rows], 1);
            assert_eq!(dx_b[bi * cols..(bi + 1) * cols], dx_s, "dx sample {bi}");
            for (s, g) in g_serial.iter_mut().zip(g) {
                *s += g;
            }
        }
        for (a, e) in g_batched.iter().zip(&g_serial) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_masks_negative_lanes() {
        let mut r = Relu::new();
        let mut x = vec![1.0, -2.0, 0.0, 3.0];
        r.forward(&mut x);
        assert_eq!(x, vec![1.0, 0.0, 0.0, 3.0]);
        let mut dy = vec![10.0, 10.0, 10.0, 10.0];
        r.backward(&mut dy);
        assert_eq!(dy, vec![10.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn he_init_scale_is_reasonable() {
        let l = Linear::new(64, 256, &mut rng());
        let limit = (6.0f32 / 256.0).sqrt();
        assert!(l.w.iter().all(|w| w.abs() <= limit));
        let mean: f32 = l.w.iter().sum::<f32>() / l.w.len() as f32;
        assert!(mean.abs() < 0.01);
    }
}
