//! Experience replay buffer with action-mask support.
//!
//! The co-scheduling environment has a *state-dependent* action space
//! (e.g. a 4-way partition is illegal when only two jobs remain), so each
//! transition stores the valid-action bitmask of the successor state; the
//! double-DQN target maximises only over valid actions.
//!
//! [`ReplayBuffer::sample_into`] fills a pre-allocated [`MiniBatch`] —
//! contiguous `B × state_dim` state/next-state matrices ready for the
//! batched network kernels, with no per-step allocation.

use rand::rngs::SmallRng;
use rand::Rng;

/// One transition `(s, a, r, s', done)` plus the successor's action mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State the action was taken in.
    pub state: Vec<f32>,
    /// Action index.
    pub action: usize,
    /// Immediate reward.
    pub reward: f32,
    /// Successor state (ignored when `done`).
    pub next_state: Vec<f32>,
    /// Episode ended at the successor.
    pub done: bool,
    /// Bitmask of valid actions in the successor state (bit `i` ⇒ action
    /// `i` legal). Ignored when `done`.
    pub next_mask: u64,
}

/// A sampled minibatch in contiguous batched layout: `states` and
/// `next_states` are `len × state_dim` row-major matrices, the scalar
/// fields are one entry per sample. All buffers are reused across
/// [`ReplayBuffer::sample_into`] calls.
#[derive(Debug, Clone, Default)]
pub struct MiniBatch {
    /// Sampled states, `len × state_dim`.
    pub states: Vec<f32>,
    /// Sampled successor states, `len × state_dim`.
    pub next_states: Vec<f32>,
    /// Action taken per sample.
    pub actions: Vec<usize>,
    /// Reward per sample.
    pub rewards: Vec<f32>,
    /// Terminal flag per sample.
    pub dones: Vec<bool>,
    /// Successor action mask per sample.
    pub next_masks: Vec<u64>,
    /// Number of samples.
    pub len: usize,
    /// State vector width.
    pub state_dim: usize,
}

impl MiniBatch {
    /// An empty minibatch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fixed-capacity ring buffer of transitions.
#[derive(Debug)]
pub struct ReplayBuffer {
    storage: Vec<Transition>,
    capacity: usize,
    head: usize,
}

impl ReplayBuffer {
    /// New buffer holding at most `capacity` transitions.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            storage: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
        }
    }

    /// Append a transition, evicting the oldest beyond capacity.
    pub fn push(&mut self, t: Transition) {
        if self.storage.len() < self.capacity {
            self.storage.push(t);
        } else {
            self.storage[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of stored transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Draw one storage index uniformly: exactly one `gen_range`.
    fn sample_index(&self, rng: &mut SmallRng) -> usize {
        rng.gen_range(0..self.storage.len())
    }

    /// Sample `n` transitions uniformly with replacement into `batch`'s
    /// pre-allocated contiguous matrices.
    ///
    /// # Panics
    /// Panics if the buffer is empty or stored states disagree in width.
    pub fn sample_into(&self, n: usize, rng: &mut SmallRng, batch: &mut MiniBatch) {
        assert!(!self.is_empty(), "cannot sample an empty buffer");
        let dim = self.storage[0].state.len();
        batch.len = n;
        batch.state_dim = dim;
        batch.states.resize(n * dim, 0.0);
        batch.next_states.resize(n * dim, 0.0);
        batch.actions.resize(n, 0);
        batch.rewards.resize(n, 0.0);
        batch.dones.resize(n, false);
        batch.next_masks.resize(n, 0);
        for i in 0..n {
            let t = &self.storage[self.sample_index(rng)];
            assert_eq!(t.state.len(), dim, "inconsistent state width");
            batch.states[i * dim..(i + 1) * dim].copy_from_slice(&t.state);
            batch.next_states[i * dim..(i + 1) * dim].copy_from_slice(&t.next_state);
            batch.actions[i] = t.action;
            batch.rewards[i] = t.reward;
            batch.dones[i] = t.done;
            batch.next_masks[i] = t.next_mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `n` draws through the same index routine as `sample_into`, as
    /// references: the reference minibatch it must reproduce.
    fn sample_refs<'a>(buf: &'a ReplayBuffer, n: usize, rng: &mut SmallRng) -> Vec<&'a Transition> {
        (0..n)
            .map(|_| &buf.storage[buf.sample_index(rng)])
            .collect()
    }

    fn t(reward: f32) -> Transition {
        Transition {
            state: vec![reward],
            action: 0,
            reward,
            next_state: vec![reward + 1.0],
            done: false,
            next_mask: u64::MAX,
        }
    }

    #[test]
    fn push_and_len() {
        let mut buf = ReplayBuffer::new(3);
        assert!(buf.is_empty());
        buf.push(t(1.0));
        buf.push(t(2.0));
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 3);
        let rewards: Vec<f32> = buf.storage.iter().map(|x| x.reward).collect();
        // 0 and 1 evicted; 2, 3, 4 present (order internal).
        assert!(!rewards.contains(&0.0));
        assert!(!rewards.contains(&1.0));
        for r in [2.0, 3.0, 4.0] {
            assert!(rewards.contains(&r));
        }
    }

    #[test]
    fn sampling_is_uniformish() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..10 {
            buf.push(t(i as f32));
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let mut counts = [0usize; 10];
        let mut mb = MiniBatch::new();
        buf.sample_into(10_000, &mut rng, &mut mb);
        for (i, c) in counts.iter_mut().enumerate() {
            *c = mb.rewards.iter().filter(|&&r| r == i as f32).count();
        }
        for &c in &counts {
            assert!(c > 700 && c < 1300, "count {c} far from uniform");
        }
    }

    #[test]
    fn sample_into_matches_sample_for_same_rng_state() {
        let mut buf = ReplayBuffer::new(16);
        for i in 0..16 {
            buf.push(Transition {
                state: vec![i as f32, -(i as f32)],
                action: i % 3,
                reward: i as f32 * 0.5,
                next_state: vec![i as f32 + 1.0, 0.0],
                done: i % 4 == 0,
                next_mask: 1 << (i % 5),
            });
        }
        let mut rng_a = SmallRng::seed_from_u64(42);
        let mut rng_b = SmallRng::seed_from_u64(42);
        let refs = sample_refs(&buf, 8, &mut rng_a);
        let mut mb = MiniBatch::new();
        buf.sample_into(8, &mut rng_b, &mut mb);
        assert_eq!(mb.len, 8);
        assert_eq!(mb.state_dim, 2);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(&mb.states[i * 2..(i + 1) * 2], &r.state[..]);
            assert_eq!(&mb.next_states[i * 2..(i + 1) * 2], &r.next_state[..]);
            assert_eq!(mb.actions[i], r.action);
            assert_eq!(mb.rewards[i], r.reward);
            assert_eq!(mb.dones[i], r.done);
            assert_eq!(mb.next_masks[i], r.next_mask);
        }
    }

    #[test]
    fn sample_into_reuses_buffers() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let mut mb = MiniBatch::new();
        buf.sample_into(4, &mut rng, &mut mb);
        let cap = mb.states.capacity();
        buf.sample_into(4, &mut rng, &mut mb);
        assert_eq!(mb.states.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sampling_empty_panics() {
        let buf = ReplayBuffer::new(4);
        let mut rng = SmallRng::seed_from_u64(0);
        buf.sample_into(1, &mut rng, &mut MiniBatch::new());
    }
}
