//! Adam optimiser (Kingma & Ba, ICLR'15) over a flat parameter vector,
//! handed its gradient a stretch at a time as a backward pass computes
//! it ([`GradSink`]).

/// Where a backward pass hands each stretch of gradient it computes:
/// the optimiser's step ([`AdamStep`]), which updates the parameters
/// from it on the spot, so no pass keeps a whole gradient.
pub trait GradSink {
    /// `grads` is the gradient of `params`, the stretch of the flat
    /// parameter vector (canonical layer order) that starts at `at`.
    /// Each parameter is handed over exactly once per pass.
    fn take(&mut self, at: usize, params: &mut [f32], grads: &[f32]);
}

/// Adam state and hyper-parameters.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// New optimiser for `n` parameters.
    #[must_use]
    pub fn new(n: usize, lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Begin one Adam step: the step count advances and the bias
    /// corrections are fixed here, once; the returned sink then updates
    /// each stretch of parameters it is handed.
    pub fn begin_step(&mut self) -> AdamStep<'_> {
        self.t += 1;
        // β^t has underflowed to 0 long before t reaches i32::MAX, so
        // saturating the exponent is exact; a wrapped one is not.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        AdamStep {
            b1t: 1.0 - self.beta1.powi(t),
            b2t: 1.0 - self.beta2.powi(t),
            beta1: self.beta1,
            beta2: self.beta2,
            lr: self.lr,
            eps: self.eps,
            m: &mut self.m,
            v: &mut self.v,
        }
    }

    /// Steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first and second moments, in parameter order.
    #[cfg(test)]
    pub(crate) fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }
}

/// One Adam step in progress ([`Adam::begin_step`]).
///
/// # Moments below `f32::MIN_POSITIVE` are stored as +0.0
///
/// A parameter whose gradient is exactly zero (a dead ReLU, a state
/// feature that is always zero) decays its moments into the
/// subnormal range, and there they stop: with the default decays,
/// `β₁ · k·2⁻¹⁴⁹` rounds back to `k·2⁻¹⁴⁹` for every k ≤ 4 and
/// `β₂ · k·2⁻¹⁴⁹` for every k ≤ 500. An `m` of 1e-6 goes subnormal
/// after 698 zero-gradient steps and is stuck from step 833 on, and
/// every later update pays a microcode assist on it. So the update
/// stores a moment as +0.0 whenever its magnitude falls below
/// `f32::MIN_POSITIVE` (2⁻¹²⁶), before the update reads it. The flush
/// is a compare and select in the loop, which stays vectorised; the
/// floating-point environment is never touched, so it gives the
/// same bits on every target.
///
/// What the flush can change, with the defaults (β₁ = 0.9,
/// β₂ = 0.999, eps = 1e-8, which lies in [2⁻²⁷, 2⁻²⁶)):
/// * Dropping a subnormal `v` never changes a parameter. It gives
///   v̂ < 2⁻¹²⁶ / (1 − β₂) ≈ 1.18e-35, so √v̂ < 3.43e-18, below 2⁻⁵¹
///   (half an ulp of eps): √v̂ + eps rounds to eps either way.
/// * Dropping a subnormal `m` drops an update of at most
///   lr · (2⁻¹²⁶ / (1 − β₁)) / eps < lr · 1.18e-29. That is under half
///   an ulp of every parameter with |p| ≥ lr · 7.9e-22 (3.9e-25 at
///   the paper's lr = 5e-4), so only a parameter that close to zero
///   can move.
/// * The dropped value (< 2⁻¹²⁶) is absorbed exactly by the first
///   later gradient whose new term, (1 − β₁)·g or (1 − β₂)·g², is
///   at least 2⁻¹⁰¹ (|g| ≥ 3.9e-30 for `m`, 2.0e-14 for `v`): it is
///   then under half an ulp of that term, and both updates store the
///   same moment from there on. Until then the moment stays within
///   about 2⁻¹⁰¹ / (1 − β), and the two can differ only in the last
///   bits of such a tiny moment.
///
/// The training goldens (`golden_train`, `golden_placement`,
/// `batch_parallel`, `golden_fig8`) hold their pinned bits with the
/// flush, and the unit tests below replay the unflushed update.
#[derive(Debug)]
pub struct AdamStep<'a> {
    b1t: f32,
    b2t: f32,
    beta1: f32,
    beta2: f32,
    lr: f32,
    eps: f32,
    m: &'a mut [f32],
    v: &'a mut [f32],
}

impl GradSink for AdamStep<'_> {
    /// Update `params` in place from `grads` and their moments.
    ///
    /// # Panics
    /// Panics if `params` and `grads` differ in length or the stretch
    /// runs past the optimiser's size.
    fn take(&mut self, at: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "gradient size mismatch");
        let n = params.len();
        let (m, v) = (&mut self.m[at..at + n], &mut self.v[at..at + n]);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (b1t, b2t) = (self.b1t, self.b2t);
        // Lock-step iterators (no index bounds checks) so the loop —
        // including the sqrt and divide — vectorizes; this runs over
        // every parameter on every learning step.
        for (((p, g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            *m = flush_subnormal(beta1 * *m + (1.0 - beta1) * *g);
            *v = flush_subnormal(beta2 * *v + (1.0 - beta2) * *g * *g);
            let mhat = *m / b1t;
            let vhat = *v / b2t;
            *p += -lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// A test sink that adds every gradient it is handed into a flat
/// vector and leaves the parameters alone: how the tests read a
/// backward pass's gradient.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct GradSum(pub(crate) Vec<f32>);

#[cfg(test)]
impl GradSink for GradSum {
    fn take(&mut self, at: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        for (s, g) in self.0[at..at + grads.len()].iter_mut().zip(grads) {
            *s += g;
        }
    }
}

/// `x`, or +0.0 when its magnitude is below `f32::MIN_POSITIVE` (see
/// [`AdamStep`]).
#[inline]
fn flush_subnormal(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_moves_against_gradient_at_lr() {
        let mut adam = Adam::new(3, 0.01);
        let mut x = [0.0f32; 3];
        let g = [1.0f32, -2.0, 0.0];
        // Two stretches, handed over last first: each reads the moments
        // at its own offset.
        let (x01, x2) = x.split_at_mut(2);
        let mut step = adam.begin_step();
        step.take(2, x2, &g[2..]);
        step.take(0, x01, &g[..2]);
        // First Adam step has magnitude ≈ lr for nonzero grads.
        assert!((x[0] + 0.01).abs() < 1e-4);
        assert!((x[1] - 0.01).abs() < 1e-4);
        assert_eq!(x[2], 0.0);
        assert_eq!(adam.steps(), 1);
        let (m, v) = adam.moments();
        assert_eq!((m[2], v[2]), (0.0, 0.0));
        assert!(m[0] > 0.0 && m[1] < 0.0 && v[1] > v[0]);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(x) = Σ (x_i − target_i)²; gradient 2(x − t).
        let target = [3.0f32, -1.0, 0.5];
        let mut x = [0.0f32; 3];
        let mut adam = Adam::new(3, 0.05);
        for _ in 0..2000 {
            let g: Vec<f32> = x
                .iter()
                .zip(target.iter())
                .map(|(a, t)| 2.0 * (a - t))
                .collect();
            adam.begin_step().take(0, &mut x, &g);
        }
        for (xi, t) in x.iter().zip(target.iter()) {
            assert!((xi - t).abs() < 1e-2, "{xi} vs {t}");
        }
    }

    /// The update without the flush: the reference the flushed update's
    /// parameters are held to.
    fn unflushed_step(adam: &Adam, t: i32, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let (beta1, beta2, lr, eps) = (adam.beta1, adam.beta2, adam.lr, adam.eps);
        let b1t = 1.0 - beta1.powi(t);
        let b2t = 1.0 - beta2.powi(t);
        for (((p, g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
            *m = beta1 * *m + (1.0 - beta1) * *g;
            *v = beta2 * *v + (1.0 - beta2) * *g * *g;
            let mhat = *m / b1t;
            let vhat = *v / b2t;
            *p += -lr * mhat / (vhat.sqrt() + eps);
        }
    }

    #[test]
    fn subnormal_moments_are_flushed_without_moving_a_parameter() {
        // One normal gradient, then 2 500 exact zeros (unflushed, every
        // nonzero `m` decays into the subnormal range and sticks there,
        // and the 1e-20 gradient's `v` starts there), then gradients of
        // ±1e-30, whose `g²` underflows to zero.
        let first = [1.0f32, -1e-3, 1e-6, 0.3, -2.5, 0.0, 1e-12, -1e-20];
        let n = first.len();
        let start = [0.5f32, -0.25, 1.0, 0.0, 2.0, -1.5, 0.125, 3.0];
        let mut adam = Adam::new(n, 5e-4);
        let mut p = start;
        let (mut ref_p, mut ref_m, mut ref_v) = (start, [0.0f32; 8], [0.0f32; 8]);
        let mut went_subnormal = [false; 8];
        for t in 1..=2_700 {
            let g: [f32; 8] = match t {
                1 => first,
                2..=2_501 => [0.0; 8],
                _ => std::array::from_fn(|i| if i % 2 == 0 { 1e-30 } else { -1e-30 }),
            };
            unflushed_step(&adam, t, &mut ref_p, &g, &mut ref_m, &mut ref_v);
            adam.begin_step().take(0, &mut p, &g);
            let (m, v) = adam.moments();
            for i in 0..n {
                assert!(
                    !m[i].is_subnormal() && !v[i].is_subnormal(),
                    "step {t}, parameter {i}: m = {:e}, v = {:e}",
                    m[i],
                    v[i]
                );
                went_subnormal[i] |= ref_m[i].is_subnormal() || ref_v[i].is_subnormal();
                assert_eq!(
                    p[i].to_bits(),
                    ref_p[i].to_bits(),
                    "step {t}, parameter {i}: {} vs unflushed {}",
                    p[i],
                    ref_p[i]
                );
            }
        }
        // The replay did reach the states the flush removes.
        let stuck = went_subnormal.iter().filter(|&&s| s).count();
        assert_eq!(stuck, n - 1, "every parameter with a nonzero gradient");
    }

    #[test]
    fn bias_correction_saturates_past_i32_max_steps() {
        // From zero moments, a gradient of 1 at a step t where β^t has
        // underflowed moves the parameter by −lr·0.1/(√0.001 + eps).
        let update_at = |t: u64| {
            let mut adam = Adam::new(1, 0.01);
            adam.t = t - 1;
            let mut p = [0.0f32];
            adam.begin_step().take(0, &mut p, &[1.0]);
            assert_eq!(adam.steps(), t);
            p[0]
        };
        let settled = update_at(1 << 20);
        assert!(settled < 0.0 && settled.is_finite());
        for t in [(1u64 << 31) - 1, 1 << 31, 1 << 32] {
            let got = update_at(t);
            assert!(got.is_finite() && got != 0.0, "t = {t}: update {got}");
            assert_eq!(got.to_bits(), settled.to_bits(), "t = {t}");
        }
    }

    #[test]
    #[should_panic(expected = "gradient size mismatch")]
    fn size_mismatch_panics() {
        let mut adam = Adam::new(2, 0.01);
        adam.begin_step().take(0, &mut [0.0f32], &[1.0, 2.0]);
    }
}
