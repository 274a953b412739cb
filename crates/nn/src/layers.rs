//! Layers with exact backpropagation: fully-connected (`Linear`) and
//! `ReLU`. A `Linear` runs every batch size, one sample included, in
//! batch-minor layout (`n × batch`, the `_tn` entry points). Each layer
//! caches whatever its backward pass needs in reusable scratch, so the
//! calling convention is strictly forward then backward and a
//! steady-state learning step allocates nothing. The `_inference`
//! forwards skip that upkeep and leave the layer untouched.

use crate::tensor::{
    matmul_bias_tn, matmul_dw_accumulate, matmul_dx_tn, relu_backward, relu_forward, transpose_into,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// A fully-connected layer `Y = X·Wᵀ + b` with gradient accumulation.
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
    /// Accumulated weight gradient.
    pub gw: Vec<f32>,
    /// Accumulated bias gradient.
    pub gb: Vec<f32>,
    /// Cached forward input (`batch × cols`), reused across steps.
    x_cache: Vec<f32>,
    /// Batch size of the cached input.
    cached_batch: usize,
    /// Layout-conversion scratch, reused across steps so a learning
    /// step allocates nothing.
    dy_bm: Vec<f32>,
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
            gw: vec![0.0; rows * cols],
            gb: vec![0.0; rows],
            x_cache: Vec::new(),
            cached_batch: 0,
            dy_bm: Vec::new(),
        }
    }

    /// Batched forward pass in batch-minor layout: `xt` is
    /// `cols × batch`, `yt` becomes `rows × batch`. Caches the input
    /// (batch-major, for the weight-gradient kernel) for backprop.
    ///
    /// The batch-minor entry points let a multi-layer network keep its
    /// activations in one layout end-to-end — a layer's `yt` is the
    /// next layer's `xt` — paying layout-conversion cost only at the
    /// network boundary.
    pub fn forward_batch_tn(&mut self, xt: &[f32], batch: usize, yt: &mut Vec<f32>) {
        debug_assert_eq!(xt.len(), batch * self.cols);
        transpose_into(xt, &mut self.x_cache, self.cols, batch);
        self.cached_batch = batch;
        matmul_bias_tn(&self.w, &self.b, xt, yt, batch, self.rows, self.cols);
    }

    /// Batch-minor forward without caching (inference only).
    pub fn forward_inference_batch_tn(&self, xt: &[f32], batch: usize, yt: &mut Vec<f32>) {
        debug_assert_eq!(xt.len(), batch * self.cols);
        matmul_bias_tn(&self.w, &self.b, xt, yt, batch, self.rows, self.cols);
    }

    /// Batch-minor backward pass: `dyt` is `rows × batch`, `dxt`
    /// becomes `cols × batch`; accumulates `gw`/`gb` over the batch.
    ///
    /// # Panics
    /// Panics (in debug) if `batch` differs from the cached forward's.
    pub fn backward_batch_tn(&mut self, dyt: &[f32], batch: usize, dxt: &mut Vec<f32>) {
        self.accumulate_grads_tn(dyt, batch);
        matmul_dx_tn(&self.w, dyt, dxt, batch, self.rows, self.cols);
    }

    /// Batch-minor backward that only accumulates `gw`/`gb` (for the
    /// network's first layer, whose input gradient nothing consumes).
    pub fn backward_batch_tn_no_dx(&mut self, dyt: &[f32], batch: usize) {
        self.accumulate_grads_tn(dyt, batch);
    }

    fn accumulate_grads_tn(&mut self, dyt: &[f32], batch: usize) {
        debug_assert_eq!(batch, self.cached_batch, "backward batch mismatch");
        debug_assert_eq!(dyt.len(), batch * self.rows);
        transpose_into(dyt, &mut self.dy_bm, self.rows, batch);
        matmul_dw_accumulate(
            &mut self.gw,
            &mut self.gb,
            &self.dy_bm,
            &self.x_cache,
            batch,
            self.rows,
            self.cols,
        );
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

    #[test]
    fn linear_gradients_match_numerical() {
        // Check dL/dW, dL/db and dL/dx against central differences for
        // L = sum(y^2)/2 so dL/dy = y.
        let mut l = Linear::new(3, 4, &mut rng());
        let x: Vec<f32> = vec![0.3, -0.7, 1.2, 0.05];
        let mut y = Vec::new();
        l.forward_batch_tn(&x, 1, &mut y);
        let dy = y.clone();
        let mut dx = Vec::new();
        l.backward_batch_tn(&dy, 1, &mut dx);

        let eps = 1e-3f32;
        let loss = |l: &Linear, x: &[f32]| -> f32 {
            let mut y = Vec::new();
            l.forward_inference_batch_tn(x, 1, &mut y);
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
                (num - l.gw[idx]).abs() < 2e-2 * num.abs().max(1.0),
                "gw[{idx}]: num {num} vs analytic {}",
                l.gw[idx]
            );
        }
        // Bias gradient.
        for idx in 0..3 {
            let mut lp = l.clone();
            lp.b[idx] += eps;
            let mut lm = l.clone();
            lm.b[idx] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((num - l.gb[idx]).abs() < 2e-2 * num.abs().max(1.0));
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
        let mut l = Linear::new(2, 2, &mut rng());
        let mut y = Vec::new();
        let mut dx = Vec::new();
        l.forward_batch_tn(&[1.0, 1.0], 1, &mut y);
        l.backward_batch_tn(&[1.0, 1.0], 1, &mut dx);
        let first = l.gb.clone();
        l.forward_batch_tn(&[1.0, 1.0], 1, &mut y);
        l.backward_batch_tn(&[1.0, 1.0], 1, &mut dx);
        for (a, b) in l.gb.iter().zip(first.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn batched_forward_backward_equals_per_sample_loop() {
        // One batched step over B samples must produce the same outputs
        // and the same accumulated gradients as B one-sample steps.
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
        // minibatch over in: transpose in, transpose out.
        let (mut xt, mut dyt) = (Vec::new(), Vec::new());
        transpose_into(&x, &mut xt, batch, cols);
        transpose_into(&dy, &mut dyt, batch, rows);
        let (mut yt, mut dxt) = (Vec::new(), Vec::new());
        batched.forward_batch_tn(&xt, batch, &mut yt);
        batched.backward_batch_tn(&dyt, batch, &mut dxt);
        let (mut y_b, mut dx_b) = (Vec::new(), Vec::new());
        transpose_into(&yt, &mut y_b, rows, batch);
        transpose_into(&dxt, &mut dx_b, cols, batch);

        // Outputs and input gradients are per-lane sums: bit-equal. The
        // weight gradients sum over the batch in another grouping.
        let mut y_s = Vec::new();
        let mut dx_s = Vec::new();
        for bi in 0..batch {
            serial.forward_batch_tn(&x[bi * cols..(bi + 1) * cols], 1, &mut y_s);
            assert_eq!(y_b[bi * rows..(bi + 1) * rows], y_s, "y sample {bi}");
            serial.backward_batch_tn(&dy[bi * rows..(bi + 1) * rows], 1, &mut dx_s);
            assert_eq!(dx_b[bi * cols..(bi + 1) * cols], dx_s, "dx sample {bi}");
        }
        for (a, e) in batched.gw.iter().zip(serial.gw.iter()) {
            assert!((a - e).abs() < 1e-5);
        }
        for (a, e) in batched.gb.iter().zip(serial.gb.iter()) {
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
