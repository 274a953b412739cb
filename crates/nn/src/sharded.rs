//! Sharded experience replay: one ring per logical rollout stream.
//!
//! A single [`ReplayBuffer`] behind the learner serialises every push
//! and every sample on one ring — the scaling wall distributed-RL
//! systems remove by sharding experience storage between the actors and
//! the learner. [`ShardedReplay`] is that design scaled to this
//! workspace: `S` independent rings, transitions routed to a shard by
//! the caller (the training pipeline routes by **episode index**, not by
//! physical worker, so shard contents never depend on the worker
//! count), and minibatches drawn by **stratified sampling** — a
//! deterministic round-robin schedule walks the non-empty shards while
//! the RNG only picks the slot *within* the chosen shard.
//!
//! Two properties matter for the workspace's reproducibility contract:
//!
//! 1. **Shard-count degeneracy**: with `S = 1` the schedule always
//!    lands on shard 0 and the RNG consumption collapses to exactly one
//!    `gen_range(0..len)` per sample — bit-identical to the single
//!    [`ReplayBuffer`] it replaces.
//! 2. **Worker-count invariance**: because routing keys on episode
//!    index and the learner pushes episodes in order, shard contents —
//!    and therefore every sampled minibatch — are identical for any
//!    number of rollout workers.
//!
//! # Example
//!
//! ```
//! use hrp_nn::replay::{MiniBatch, Transition};
//! use hrp_nn::sharded::ShardedReplay;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut replay = ShardedReplay::new(64, 4);
//! for ep in 0..8 {
//!     replay.push_to(ep % 4, Transition {
//!         state: vec![ep as f32],
//!         action: 0,
//!         reward: 1.0,
//!         next_state: vec![ep as f32 + 1.0],
//!         done: false,
//!         next_mask: 1,
//!     });
//! }
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut batch = MiniBatch::new();
//! replay.sample_into(8, &mut rng, &mut batch);
//! assert_eq!(batch.len, 8);
//! // Stratified: 8 draws over 4 non-empty shards touch each shard twice.
//! ```

use crate::replay::{MiniBatch, ReplayBuffer, Transition};
use rand::rngs::SmallRng;

/// Experience replay sharded into independent rings with stratified,
/// deterministically-scheduled sampling (see the module docs).
#[derive(Debug)]
pub struct ShardedReplay {
    shards: Vec<ReplayBuffer>,
    /// Round-robin cursor of the stratified sampling schedule. Advances
    /// once per drawn sample, so the shard sequence is a pure function
    /// of the push/sample history — never of thread timing.
    cursor: usize,
    /// Round-robin routing cursor for un-routed [`ShardedReplay::push`].
    route: usize,
}

impl ShardedReplay {
    /// A replay with `shards` rings, each holding
    /// `capacity.div_ceil(shards)` transitions — so the total capacity
    /// is `capacity` rounded **up** to the next multiple of `shards`
    /// (and exactly `capacity` when it divides evenly, e.g. the
    /// paper-scale 20 000 over 1, 2, 4, or 8 shards).
    ///
    /// # Panics
    /// Panics if `capacity` or `shards` is zero.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(capacity > 0, "capacity must be positive");
        let per_shard = capacity.div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| ReplayBuffer::new(per_shard)).collect(),
            cursor: 0,
            route: 0,
        }
    }

    /// Total transitions stored across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(ReplayBuffer::len).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ReplayBuffer::is_empty)
    }

    /// Append a transition to an explicit shard (the training pipeline
    /// routes by episode index: `episode % shards`).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn push_to(&mut self, shard: usize, t: Transition) {
        self.shards[shard].push(t);
    }

    /// Append a transition, routing shards round-robin. Callers without
    /// a natural routing key (unit tests, the chain-MDP examples) get
    /// deterministic routing from the push order alone.
    pub fn push(&mut self, t: Transition) {
        let shard = self.route;
        self.route = (self.route + 1) % self.shards.len();
        self.shards[shard].push(t);
    }

    /// Pick the `(shard, slot)` of the next sample: the schedule cursor
    /// walks the non-empty shards round-robin (deterministic), the RNG
    /// draws the slot within the chosen shard (uniform with
    /// replacement).
    fn pick(&mut self, rng: &mut SmallRng) -> (usize, usize) {
        assert!(!self.is_empty(), "cannot sample an empty buffer");
        let s = self.shards.len();
        // At least one shard is non-empty, so this terminates.
        while self.shards[self.cursor % s].is_empty() {
            self.cursor = (self.cursor + 1) % s;
        }
        let shard = self.cursor % s;
        self.cursor = (self.cursor + 1) % s;
        (shard, self.shards[shard].sample_slot(rng))
    }

    /// Sample `n` transitions into `batch`'s contiguous matrices
    /// (stratified across shards; see the module docs). Allocates only
    /// to grow `batch`.
    ///
    /// # Panics
    /// Panics if the replay is empty or stored states disagree in width.
    pub fn sample_into(&mut self, n: usize, rng: &mut SmallRng, batch: &mut MiniBatch) {
        batch.len = n;
        batch.actions.resize(n, 0);
        batch.rewards.resize(n, 0.0);
        batch.dones.resize(n, false);
        batch.next_masks.resize(n, 0);
        for i in 0..n {
            let (shard, slot) = self.pick(rng);
            let t = self.shards[shard].get(slot).expect("picked slot exists");
            if i == 0 {
                batch.state_dim = t.state.len();
                batch.states.resize(n * batch.state_dim, 0.0);
                batch.next_states.resize(n * batch.state_dim, 0.0);
            }
            let dim = batch.state_dim;
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

    fn t(v: f32) -> Transition {
        Transition {
            state: vec![v],
            action: 0,
            reward: v,
            next_state: vec![v + 1.0],
            done: false,
            next_mask: 1,
        }
    }

    #[test]
    fn shard1_matches_single_ring_bit_for_bit() {
        let mut single = ReplayBuffer::new(32);
        let mut sharded = ShardedReplay::new(32, 1);
        for i in 0..20 {
            single.push(t(i as f32));
            sharded.push(t(i as f32));
        }
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let mut ba = MiniBatch::new();
        let mut bb = MiniBatch::new();
        for _ in 0..5 {
            single.sample_into(8, &mut rng_a, &mut ba);
            sharded.sample_into(8, &mut rng_b, &mut bb);
            assert_eq!(ba.states, bb.states);
            assert_eq!(ba.rewards, bb.rewards);
            assert_eq!(ba.actions, bb.actions);
        }
    }

    #[test]
    fn stratified_schedule_walks_nonempty_shards() {
        let mut sharded = ShardedReplay::new(40, 4);
        // Only shards 0 and 2 get data.
        for i in 0..6 {
            sharded.push_to(0, t(i as f32));
            sharded.push_to(2, t(100.0 + i as f32));
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let shards: Vec<usize> = (0..8).map(|_| sharded.pick(&mut rng).0).collect();
        // Round-robin over the two non-empty shards: perfectly balanced.
        assert_eq!(shards.iter().filter(|&&s| s == 0).count(), 4);
        assert_eq!(shards.iter().filter(|&&s| s == 2).count(), 4);
    }

    #[test]
    fn schedule_is_deterministic_across_instances() {
        let build = || {
            let mut r = ShardedReplay::new(64, 4);
            for i in 0..16 {
                r.push_to(i % 4, t(i as f32));
            }
            r
        };
        let mut a = build();
        let mut b = build();
        let mut rng_a = SmallRng::seed_from_u64(5);
        let mut rng_b = SmallRng::seed_from_u64(5);
        let mut ba = MiniBatch::new();
        let mut bb = MiniBatch::new();
        for _ in 0..10 {
            a.sample_into(16, &mut rng_a, &mut ba);
            b.sample_into(16, &mut rng_b, &mut bb);
            assert_eq!(ba.states, bb.states);
        }
    }

    #[test]
    fn sample_refs_match_sample_into_for_same_rng() {
        let mut a = ShardedReplay::new(64, 4);
        let mut b = ShardedReplay::new(64, 4);
        for i in 0..24 {
            a.push_to(i % 4, t(i as f32));
            b.push_to(i % 4, t(i as f32));
        }
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        // The reference: the schedule's picks, read back one by one.
        let picks: Vec<_> = (0..8).map(|_| a.pick(&mut rng_a)).collect();
        let rewards: Vec<f32> = picks
            .iter()
            .map(|&(shard, slot)| a.shards[shard].get(slot).expect("picked").reward)
            .collect();
        let mut mb = MiniBatch::new();
        b.sample_into(8, &mut rng_b, &mut mb);
        assert_eq!(rewards, mb.rewards);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let mut r = ShardedReplay::new(8, 4);
        for i in 0..100 {
            r.push_to(i % 4, t(i as f32));
        }
        assert_eq!(r.len(), 8, "each of 4 shards caps at 2");
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sampling_empty_panics() {
        let mut r = ShardedReplay::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut b = MiniBatch::new();
        r.sample_into(1, &mut rng, &mut b);
    }
}
