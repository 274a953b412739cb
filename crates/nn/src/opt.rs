//! Adam optimiser (Kingma & Ba, ICLR'15) over a flat parameter vector,
//! presented to it as consecutive segments.

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

    /// One Adam step, fused into a single sweep: every `(params, grads)`
    /// segment — consecutive stretches of the flat parameter vector, in
    /// its canonical order — is updated in place from its gradient, and
    /// the gradient is cleared for the next accumulation.
    ///
    /// # Panics
    /// Panics if the segments do not add up to the optimiser's size.
    pub fn step<'a>(&mut self, segments: impl Iterator<Item = (&'a mut [f32], &'a mut [f32])>) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (mut m_rest, mut v_rest) = (&mut self.m[..], &mut self.v[..]);
        for (params, grads) in segments {
            assert_eq!(params.len(), grads.len(), "gradient size mismatch");
            assert!(params.len() <= m_rest.len(), "gradient size mismatch");
            let (m, v);
            (m, m_rest) = m_rest.split_at_mut(params.len());
            (v, v_rest) = v_rest.split_at_mut(params.len());
            // Lock-step iterators (no index bounds checks) so the loop —
            // including the sqrt and divide — vectorizes; this runs over
            // every parameter on every learning step.
            for (((p, g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
                *m = beta1 * *m + (1.0 - beta1) * *g;
                *v = beta2 * *v + (1.0 - beta2) * *g * *g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *p += -lr * mhat / (vhat.sqrt() + eps);
                *g = 0.0;
            }
        }
        assert!(m_rest.is_empty(), "gradient size mismatch");
    }

    /// Steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_moves_against_gradient_at_lr() {
        let mut adam = Adam::new(3, 0.01);
        let mut x = [0.0f32; 3];
        let mut g = [1.0f32, -2.0, 0.0];
        // Two segments: the sweep walks its moments across them.
        let (x01, x2) = x.split_at_mut(2);
        let (g01, g2) = g.split_at_mut(2);
        adam.step([(x01, g01), (x2, g2)].into_iter());
        // First Adam step has magnitude ≈ lr for nonzero grads.
        assert!((x[0] + 0.01).abs() < 1e-4);
        assert!((x[1] - 0.01).abs() < 1e-4);
        assert_eq!(x[2], 0.0);
        assert_eq!(g, [0.0; 3], "the sweep clears the gradient");
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(x) = Σ (x_i − target_i)²; gradient 2(x − t).
        let target = [3.0f32, -1.0, 0.5];
        let mut x = [0.0f32; 3];
        let mut adam = Adam::new(3, 0.05);
        for _ in 0..2000 {
            let mut g: Vec<f32> = x
                .iter()
                .zip(target.iter())
                .map(|(a, t)| 2.0 * (a - t))
                .collect();
            adam.step(std::iter::once((&mut x[..], &mut g[..])));
        }
        for (xi, t) in x.iter().zip(target.iter()) {
            assert!((xi - t).abs() < 1e-2, "{xi} vs {t}");
        }
    }

    #[test]
    #[should_panic(expected = "gradient size mismatch")]
    fn size_mismatch_panics() {
        let mut adam = Adam::new(2, 0.01);
        adam.step(std::iter::once((&mut [0.0f32][..], &mut [1.0f32][..])));
    }
}
