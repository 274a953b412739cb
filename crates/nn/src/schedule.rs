//! Exploration schedule: the paper sets ε = 1 initially and "gradually
//! decreases it until it reaches a certain point (e.g. 0.01)", then fixes
//! ε = 0 for online use.
//!
//! The training pipeline exposes the floor as `TrainConfig::eps_end`
//! (default 0.01) and decays over the first half of the *expected* step
//! count (`episodes × W / 2`), leaving the rest of training for
//! near-greedy fine-tuning; ε is evaluated at each episode's **spawn
//! base step**, so under overlapped rounds the exploration level shares
//! the policy snapshot's one-round staleness bound.

/// Linear ε decay from `start` to `end` over `decay_steps` steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    /// Initial ε (paper: 1.0).
    pub start: f64,
    /// Final ε (paper: 0.01).
    pub end: f64,
    /// Steps over which to decay.
    pub decay_steps: u64,
}

impl EpsilonSchedule {
    /// ε after `step` steps.
    #[must_use]
    pub fn value(&self, step: u64) -> f64 {
        if self.decay_steps == 0 || step >= self.decay_steps {
            return self.end;
        }
        let frac = step as f64 / self.decay_steps as f64;
        self.start + (self.end - self.start) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's schedule: 1 → 0.01.
    fn paper(decay_steps: u64) -> EpsilonSchedule {
        EpsilonSchedule {
            start: 1.0,
            end: 0.01,
            decay_steps,
        }
    }

    #[test]
    fn starts_high_ends_low() {
        let s = paper(1000);
        assert!((s.value(0) - 1.0).abs() < 1e-12);
        assert!((s.value(1000) - 0.01).abs() < 1e-12);
        assert!((s.value(10_000) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn decay_is_monotone() {
        let s = paper(100);
        let mut prev = f64::INFINITY;
        for step in 0..=120 {
            let v = s.value(step);
            assert!(v <= prev + 1e-12);
            prev = v;
        }
    }

    #[test]
    fn zero_decay_steps_is_constant_end() {
        let s = paper(0);
        assert!((s.value(0) - 0.01).abs() < 1e-12);
    }
}
