//! The DQN agent: ε-greedy behaviour policy, double-DQN targets, Huber
//! loss, and periodic target-network synchronisation — the configuration
//! of the paper's §IV-D / Table VI.
//!
//! A learning step runs the **whole minibatch as batched ops**: one
//! contiguous sample ([`MiniBatch`]), one cache-free batched forward
//! over the online and target networks for the double-DQN targets, one
//! batched forward/backward for the TD error, one fused Adam sweep. In
//! steady state it allocates nothing, and `tests/batch_parallel.rs`
//! pins its losses and weights bit for bit.

use crate::infer::{FastPolicy, InferScratch};
use crate::net::{Head, PredictScratch, QNet};
use crate::opt::Adam;
use crate::replay::{MiniBatch, ReplayBuffer, Transition};
use crate::tensor::{masked_argmax, masked_argmax_batch, masked_argmax_tiebreak, masked_uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Agent hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// State vector length.
    pub state_dim: usize,
    /// Number of actions (paper: 29).
    pub n_actions: usize,
    /// Hidden-layer widths (paper: 512/256/128).
    pub hidden: Vec<usize>,
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size per learning step.
    pub batch_size: usize,
    /// Sync the target network every this many learning steps.
    pub target_sync_every: u64,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Always `1`: the agent keeps one replay ring, and
    /// [`DqnAgent::new`] refuses any other value. The field stays only
    /// because the frozen `benchmark/` names it (ROADMAP item 2f).
    pub shards: usize,
    /// Huber loss transition point.
    pub huber_delta: f32,
    /// Use the double-DQN target (van Hasselt et al.). Off = vanilla DQN.
    pub double: bool,
    /// Head architecture (paper: dueling).
    pub head: Head,
    /// RNG seed (weights, ε-greedy, replay sampling).
    pub seed: u64,
}

impl DqnConfig {
    /// The paper's configuration for a given state/action space.
    #[must_use]
    pub fn paper(state_dim: usize, n_actions: usize) -> Self {
        Self {
            state_dim,
            n_actions,
            hidden: vec![512, 256, 128],
            gamma: 0.95,
            lr: 5e-4,
            batch_size: 32,
            target_sync_every: 200,
            buffer_capacity: 20_000,
            shards: 1,
            huber_delta: 1.0,
            double: true,
            head: Head::Dueling,
            seed: 42,
        }
    }
}

/// Huber loss and its derivative at error `err`.
#[inline]
fn huber(err: f32, delta: f32) -> (f32, f32) {
    if err.abs() <= delta {
        (0.5 * err * err, err)
    } else {
        (delta * (err.abs() - 0.5 * delta), delta * err.signum())
    }
}

/// Reusable buffers for [`epsilon_greedy_action_with`]: the planned
/// policy's inference scratch. After warm-up, action selection performs
/// zero heap allocations.
pub type ActionScratch = InferScratch;

/// ε-greedy action from a planned Q-network: explore uniformly over the
/// `mask`'s valid bits with probability `epsilon`, otherwise exploit
/// with exact-tie breaking drawn from `rng` (not iteration order, which
/// would bias exploration toward low-numbered actions). The Q-values
/// come from the one single-sample kernel, [`FastPolicy::infer`], in
/// caller-owned `scratch`, which keeps the hot loop off the allocator.
///
/// This is the single source of behaviour-policy truth: the agent's own
/// [`DqnAgent::select_action`] and the rollout workers acting against a
/// frozen snapshot's plan both call it, so training rollouts and the
/// deployed agent can never silently diverge.
///
/// # Panics
/// Panics if the mask has no valid action.
pub fn epsilon_greedy_action_with(
    policy: &FastPolicy,
    state: &[f32],
    mask: u64,
    epsilon: f64,
    rng: &mut SmallRng,
    scratch: &mut ActionScratch,
) -> usize {
    assert!(mask != 0, "no valid action");
    if rng.gen_bool(epsilon.clamp(0.0, 1.0)) {
        masked_uniform(mask, policy.n_actions(), rng).expect("mask checked non-empty")
    } else {
        let q = policy.infer(state, scratch);
        masked_argmax_tiebreak(q, |a| mask & (1 << a) != 0, rng).expect("mask checked non-empty")
    }
}

/// A dueling double-DQN agent.
pub struct DqnAgent {
    cfg: DqnConfig,
    online: QNet,
    target: QNet,
    adam: Adam,
    buffer: ReplayBuffer,
    rng: SmallRng,
    learn_steps: u64,
    /// Inference scratch of the bootstrap passes of `learn`.
    predict: PredictScratch,
    /// Reusable batched-learning scratch.
    minibatch: MiniBatch,
    q_next_online: Vec<f32>,
    q_next_target: Vec<f32>,
    q_pred: Vec<f32>,
    targets: Vec<f32>,
    dq: Vec<f32>,
    a_star: Vec<Option<usize>>,
}

impl DqnAgent {
    /// Build an agent (target starts as a copy of the online network).
    ///
    /// # Panics
    /// Panics if `cfg.shards` is not `1` or `cfg.buffer_capacity` is 0.
    #[must_use]
    pub fn new(cfg: DqnConfig) -> Self {
        assert_eq!(
            cfg.shards, 1,
            "sharded replay is retired: DqnConfig::shards must be 1 (ROADMAP item 2f)"
        );
        let online = QNet::new(
            cfg.state_dim,
            &cfg.hidden,
            cfg.n_actions,
            cfg.head,
            cfg.seed,
        );
        let mut target = QNet::new(
            cfg.state_dim,
            &cfg.hidden,
            cfg.n_actions,
            cfg.head,
            cfg.seed.wrapping_add(1),
        );
        target.copy_weights_from(&online);
        let adam = Adam::new(online.num_params(), cfg.lr);
        let buffer = ReplayBuffer::new(cfg.buffer_capacity);
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5eed);
        Self {
            cfg,
            online,
            target,
            adam,
            buffer,
            rng,
            learn_steps: 0,
            predict: PredictScratch::default(),
            minibatch: MiniBatch::new(),
            q_next_online: Vec::new(),
            q_next_target: Vec::new(),
            q_pred: Vec::new(),
            targets: Vec::new(),
            dq: Vec::new(),
            a_star: Vec::new(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    /// Q-values of the online network for a state: the network is
    /// planned ([`FastPolicy::new`]) on every call.
    #[must_use]
    pub fn q_values(&self, state: &[f32]) -> Vec<f32> {
        let plan = FastPolicy::new(&self.online);
        plan.infer(state, &mut InferScratch::default()).to_vec()
    }

    /// ε-greedy action among the `mask`'s valid bits (see
    /// [`epsilon_greedy_action_with`]), drawing from the agent RNG
    /// stream. The online network is planned on every call; rollouts
    /// act through a snapshot's plan instead.
    ///
    /// # Panics
    /// Panics if the mask has no valid action.
    pub fn select_action(&mut self, state: &[f32], mask: u64, epsilon: f64) -> usize {
        epsilon_greedy_action_with(
            &FastPolicy::new(&self.online),
            state,
            mask,
            epsilon,
            &mut self.rng,
            &mut ActionScratch::default(),
        )
    }

    /// Greedy (ε = 0) action — the online-phase policy. Deterministic:
    /// ties break to the lowest index. Plans the network per call, like
    /// [`DqnAgent::q_values`].
    ///
    /// # Panics
    /// Panics if the mask has no valid action.
    #[must_use]
    pub fn greedy_action(&self, state: &[f32], mask: u64) -> usize {
        FastPolicy::new(&self.online).greedy(state, mask, &mut InferScratch::default())
    }

    /// Store a transition in the replay ring.
    pub fn remember(&mut self, t: Transition) {
        debug_assert_eq!(t.state.len(), self.cfg.state_dim);
        self.buffer.push(t);
    }

    /// [`DqnAgent::remember`] under the name the frozen `benchmark/`
    /// calls; the one ring is shard `0` (ROADMAP item 2f).
    ///
    /// # Panics
    /// Panics if `shard` is not `0`.
    pub fn remember_to(&mut self, shard: usize, t: Transition) {
        assert_eq!(
            shard, 0,
            "sharded replay is retired: the one ring is shard 0 (ROADMAP item 2f)"
        );
        self.remember(t);
    }

    /// One batched learning step (a mini-batch of SGD on the TD error).
    /// Returns the mean Huber loss, or `None` when the buffer is still
    /// smaller than the batch size.
    pub fn learn(&mut self) -> Option<f32> {
        if self.buffer.len() < self.cfg.batch_size {
            return None;
        }
        let b = self.cfg.batch_size;
        let n = self.cfg.n_actions;
        self.buffer
            .sample_into(b, &mut self.rng, &mut self.minibatch);

        // Bootstrap Q-values for the successor states, one batched pass
        // per network. Nothing is differentiated through them, so they
        // take the inference forward: same Q-values as `forward_batch`,
        // none of its backward-cache upkeep.
        let scratch = &mut self.predict;
        let next_states = &self.minibatch.next_states;
        if self.cfg.double {
            // Double DQN: the online net picks a* for every row at once,
            // the target net evaluates it.
            self.online
                .predict_batch_into(next_states, b, scratch, &mut self.q_next_online);
            masked_argmax_batch(
                &self.q_next_online,
                b,
                n,
                &self.minibatch.next_masks,
                &mut self.a_star,
            );
        }
        self.target
            .predict_batch_into(next_states, b, scratch, &mut self.q_next_target);

        self.targets.resize(b, 0.0);
        for i in 0..b {
            let y = if self.minibatch.dones[i] {
                self.minibatch.rewards[i]
            } else {
                let mask = self.minibatch.next_masks[i];
                let bootstrap = if self.cfg.double {
                    let a_star = self.a_star[i].unwrap_or(0);
                    self.q_next_target[i * n + a_star]
                } else {
                    let q_t = &self.q_next_target[i * n..(i + 1) * n];
                    masked_argmax(q_t, |a| mask & (1 << a) != 0).map_or(0.0, |a| q_t[a])
                };
                self.minibatch.rewards[i] + self.cfg.gamma * bootstrap
            };
            self.targets[i] = y;
        }

        // One batched forward/backward over the whole minibatch. The
        // online gradients are zero here: they start so, and every
        // optimiser sweep leaves them cleared.
        self.online
            .forward_batch(&self.minibatch.states, b, &mut self.q_pred);
        self.dq.clear();
        self.dq.resize(b * n, 0.0);
        let inv_n = 1.0 / b as f32;
        let mut total_loss = 0.0f32;
        for i in 0..b {
            let a = self.minibatch.actions[i];
            let err = self.q_pred[i * n + a] - self.targets[i];
            let (loss, dloss) = huber(err, self.cfg.huber_delta);
            total_loss += loss;
            self.dq[i * n + a] = dloss * inv_n;
        }
        self.online.backward_batch(&self.dq, b);
        self.online.adam_step(&mut self.adam);

        self.learn_steps += 1;
        if self.learn_steps.is_multiple_of(self.cfg.target_sync_every) {
            self.target.copy_weights_from(&self.online);
        }
        Some(total_loss * inv_n)
    }

    /// Learning steps taken.
    #[must_use]
    pub fn learn_steps(&self) -> u64 {
        self.learn_steps
    }

    /// Direct access to the online network (serialization, inspection).
    #[must_use]
    pub fn online_net(&self) -> &QNet {
        &self.online
    }

    /// Replace the online and target weights (e.g. from a snapshot).
    pub fn load_weights(&mut self, params: &[f32]) {
        self.online.read_params(params);
        self.target.read_params(params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-step deterministic MDP:
    /// state [1,0]: action 1 pays 1.0 and moves to state [0,1];
    /// state [0,1]: action 0 pays 2.0 and ends. All other actions pay 0
    /// (and end). The optimal Q([1,0], 1) = 1 + γ·2.
    fn chain_cfg() -> DqnConfig {
        DqnConfig {
            state_dim: 2,
            n_actions: 2,
            hidden: vec![16, 16],
            gamma: 0.9,
            lr: 5e-3,
            batch_size: 16,
            target_sync_every: 25,
            buffer_capacity: 2000,
            shards: 1,
            huber_delta: 1.0,
            double: true,
            head: Head::Dueling,
            seed: 3,
        }
    }

    fn run_chain(mut agent: DqnAgent, episodes: usize) -> DqnAgent {
        let s0 = vec![1.0f32, 0.0];
        let s1 = vec![0.0f32, 1.0];
        for ep in 0..episodes {
            let eps = (1.0 - ep as f64 / 150.0).max(0.05);
            let a0 = agent.select_action(&s0, 0b11, eps);
            if a0 == 1 {
                agent.remember(Transition {
                    state: s0.clone(),
                    action: 1,
                    reward: 1.0,
                    next_state: s1.clone(),
                    done: false,
                    next_mask: 0b11,
                });
                let a1 = agent.select_action(&s1, 0b11, eps);
                agent.remember(Transition {
                    state: s1.clone(),
                    action: a1,
                    reward: if a1 == 0 { 2.0 } else { 0.0 },
                    next_state: vec![0.0, 0.0],
                    done: true,
                    next_mask: 0,
                });
            } else {
                agent.remember(Transition {
                    state: s0.clone(),
                    action: 0,
                    reward: 0.0,
                    next_state: vec![0.0, 0.0],
                    done: true,
                    next_mask: 0,
                });
            }
            for _ in 0..4 {
                agent.learn();
            }
        }
        agent
    }

    #[test]
    fn learns_two_step_chain() {
        let agent = run_chain(DqnAgent::new(chain_cfg()), 300);
        let s0 = [1.0f32, 0.0];
        let s1 = [0.0f32, 1.0];
        assert_eq!(
            agent.greedy_action(&s0, 0b11),
            1,
            "q={:?}",
            agent.q_values(&s0)
        );
        assert_eq!(
            agent.greedy_action(&s1, 0b11),
            0,
            "q={:?}",
            agent.q_values(&s1)
        );
        // Q(s0, right) ≈ 1 + 0.9·2 = 2.8.
        let q = agent.q_values(&s0);
        assert!((q[1] - 2.8).abs() < 0.6, "Q(s0,1) = {}", q[1]);
    }

    #[test]
    fn plain_head_also_learns() {
        let mut cfg = chain_cfg();
        cfg.head = Head::Plain;
        cfg.double = false;
        let agent = run_chain(DqnAgent::new(cfg), 300);
        assert_eq!(agent.greedy_action(&[1.0, 0.0], 0b11), 1);
    }

    #[test]
    fn action_masking_is_respected() {
        let mut agent = DqnAgent::new(chain_cfg());
        // Only action 0 allowed — even with ε = 1 (pure random).
        for _ in 0..50 {
            assert_eq!(agent.select_action(&[1.0, 0.0], 0b01, 1.0), 0);
        }
        assert_eq!(agent.greedy_action(&[1.0, 0.0], 0b01), 0);
    }

    #[test]
    fn learn_requires_full_batch() {
        let mut agent = DqnAgent::new(chain_cfg());
        assert_eq!(agent.learn(), None);
        for _ in 0..16 {
            agent.remember(Transition {
                state: vec![1.0, 0.0],
                action: 0,
                reward: 1.0,
                next_state: vec![0.0, 0.0],
                done: true,
                next_mask: 0,
            });
        }
        assert!(agent.learn().is_some());
        assert_eq!(agent.learn_steps(), 1);
    }

    #[test]
    fn loss_decreases_on_stationary_target() {
        let mut agent = DqnAgent::new(chain_cfg());
        for _ in 0..64 {
            agent.remember(Transition {
                state: vec![1.0, 0.0],
                action: 0,
                reward: 5.0,
                next_state: vec![0.0, 0.0],
                done: true,
                next_mask: 0,
            });
        }
        let first = agent.learn().unwrap();
        let mut last = first;
        for _ in 0..200 {
            last = agent.learn().unwrap();
        }
        assert!(
            last < first * 0.5,
            "loss should drop: first {first}, last {last}"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run_chain(DqnAgent::new(chain_cfg()), 50);
        let b = run_chain(DqnAgent::new(chain_cfg()), 50);
        assert_eq!(a.q_values(&[1.0, 0.0]), b.q_values(&[1.0, 0.0]));
    }

    #[test]
    fn adam_moments_never_go_subnormal() {
        // Six state features; once the ring has turned over, the last
        // three are always zero, so their first-layer weights see exact
        // zero gradients from then on and their moments decay.
        let mut cfg = chain_cfg();
        cfg.state_dim = 6;
        cfg.buffer_capacity = 64;
        let mut agent = DqnAgent::new(cfg);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut fill = |agent: &mut DqnAgent, live: usize| {
            for _ in 0..64 {
                let mut state = [0.0f32; 6];
                for x in &mut state[..live] {
                    *x = rng.gen_range(-1.0f32..1.0);
                }
                agent.remember(Transition {
                    state: state.to_vec(),
                    action: rng.gen_range(0..2usize),
                    reward: state[0],
                    next_state: vec![0.0; 6],
                    done: true,
                    next_mask: 0,
                });
            }
        };
        fill(&mut agent, 6);
        for _ in 0..200 {
            agent.learn();
        }
        fill(&mut agent, 3);
        for _ in 0..2_800 {
            agent.learn();
        }
        assert_eq!(agent.learn_steps(), 3_000);
        let (m, v) = agent.adam.moments();
        let subnormal = m.iter().chain(v).filter(|x| x.is_subnormal()).count();
        assert_eq!(subnormal, 0, "subnormal Adam moments");
    }

    #[test]
    fn tie_breaking_uses_agent_rng_stream() {
        // A fresh dueling network with an all-zero state scores every
        // action identically through the value head only when weights
        // make them tie; instead force ties by zeroing the weights.
        let mut agent = DqnAgent::new(chain_cfg());
        let zeros = vec![0.0f32; agent.online_net().num_params()];
        agent.load_weights(&zeros);
        // With all-zero weights every Q-value is exactly 0 → a full tie.
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            counts[agent.select_action(&[0.3, 0.7], 0b11, 0.0)] += 1;
        }
        assert!(
            counts[0] > 100 && counts[1] > 100,
            "ties should split across actions, got {counts:?}"
        );
    }
}
