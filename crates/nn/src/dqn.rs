//! The DQN agent: ε-greedy behaviour policy, double-DQN targets, Huber
//! loss, and periodic target-network synchronisation — the configuration
//! of the paper's §IV-D / Table VI.
//!
//! A learning step runs the **whole minibatch as batched ops**: one
//! contiguous sample ([`MiniBatch`]), the bootstrap passes for the
//! double-DQN targets, one batched forward for the TD error and one
//! batched backward that hands each layer's gradient, a block at a
//! time, straight to Adam, which updates those weights at once — no
//! gradient buffer. In steady state it allocates nothing, and
//! `tests/batch_parallel.rs` pins its losses and weights bit for bit.
//!
//! The bootstrap passes evaluate only the successor rows whose Q-values
//! the targets read:
//!
//! * **Target rows are cached per ring row.** The replay ring keeps each
//!   state's target Q-row beside it, stamped with the target epoch that
//!   computed it; every write to the target weights (a sync,
//!   [`DqnAgent::load_weights`]) starts a new epoch. A step runs the
//!   target net only over the live (non-terminal) successors whose stamp
//!   is not the current epoch, each once.
//! * **A forced a\* is not evaluated.** The online pass skips terminal
//!   successors and those with at most one valid action, where the
//!   masked argmax is that action whatever the Q-values are.
//! * **Rows run in lane-sized blocks.** The rows a pass evaluates are
//!   gathered from the ring in blocks of 16, and a shorter last block is
//!   padded with copies of its first row to 1, 8 or 16 lanes: a ragged
//!   width would run scalar tiles or slide a whole 16-lane tile back.
//!
//! No lane of the batched kernels reads another lane's sum, so a row's
//! Q-values do not depend on the rows that share its pass
//! (`tests/kernel_contract.rs`): the step's loss, weights and Adam
//! moments are those of one full-batch pass over every successor, bit
//! for bit, and `tests` holds them to that cache-free step.

use crate::infer::{FastPolicy, InferScratch};
use crate::net::{Head, LearnScratch, PredictScratch, QNet};
use crate::opt::Adam;
use crate::replay::{MiniBatch, ReplayBuffer, Transition};
use crate::tensor::{masked_argmax, masked_argmax_tiebreak, masked_uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use target::Target;

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

mod target {
    use crate::net::QNet;

    /// The bootstrap network and the epoch of its weights. Its weights
    /// change only through [`Target::write`], which starts a new epoch,
    /// so a target Q-row the ring cached under older weights is never
    /// read as current.
    pub(super) struct Target {
        net: QNet,
        epoch: u64,
    }

    impl Target {
        /// Epochs start at 1: the ring stamps a row it holds no target
        /// Q-row for with 0.
        pub(super) fn new(net: QNet) -> Self {
            Self { net, epoch: 1 }
        }

        pub(super) fn net(&self) -> &QNet {
            &self.net
        }

        pub(super) fn epoch(&self) -> u64 {
            self.epoch
        }

        /// The one way to change the target weights.
        pub(super) fn write(&mut self, f: impl FnOnce(&mut QNet)) {
            f(&mut self.net);
            self.epoch += 1;
        }
    }
}

/// Rows per block of a bootstrap pass: the kernels' widest lane tile.
const BLOCK: usize = 16;

/// The lanes a bootstrap block of `rows` rows runs at. A ragged width
/// runs scalar tiles (two rows cost twice one) or slides a 16-lane tile
/// back (17 rows cost what 32 do), so a short block is padded to 1, 8
/// or 16 lanes.
fn block_lanes(rows: usize) -> usize {
    match rows {
        1 => 1,
        2..=8 => 8,
        _ => BLOCK,
    }
}

/// Run `net` over the ring rows `rows` in blocks of at most [`BLOCK`],
/// each gathered from the ring into `block` and padded with copies of
/// its first row to [`block_lanes`]; `each(ring, k, q)` receives row
/// `rows[k]`'s Q-values.
fn predict_rows(
    net: &QNet,
    ring: &mut ReplayBuffer,
    rows: &[usize],
    pass: &mut PredictScratch,
    block: &mut Vec<f32>,
    q: &mut Vec<f32>,
    mut each: impl FnMut(&mut ReplayBuffer, usize, &[f32]),
) {
    let n = net.n_actions();
    for (start, chunk) in (0..).step_by(BLOCK).zip(rows.chunks(BLOCK)) {
        let lanes = block_lanes(chunk.len());
        block.clear();
        for lane in 0..lanes {
            let row = chunk.get(lane).unwrap_or(&chunk[0]);
            block.extend_from_slice(ring.state(*row));
        }
        net.predict_batch_into(block, lanes, pass, q);
        for (k, q) in q.chunks_exact(n).take(chunk.len()).enumerate() {
            each(ring, start + k, q);
        }
    }
}

/// The bootstrap passes' buffers, reused across learning steps.
#[derive(Debug, Default)]
struct Bootstrap {
    /// The ring rows a pass evaluates, each once.
    rows: Vec<usize>,
    /// The online pass's rows' successor masks.
    masks: Vec<u64>,
    /// The online pass's rows' a*.
    picks: Vec<Option<usize>>,
    /// Per sample: its row's index in `rows` if the online pass
    /// evaluates it.
    evaluated: Vec<Option<usize>>,
    /// One block of states gathered from the ring.
    block: Vec<f32>,
    /// The block's Q-values.
    q: Vec<f32>,
}

/// Rows the bootstrap passes have evaluated, padding lanes not counted.
/// Only `tests` reads them.
#[derive(Debug, Default)]
struct Work {
    online_rows: u64,
    target_rows: u64,
}

/// A dueling double-DQN agent.
pub struct DqnAgent {
    cfg: DqnConfig,
    online: QNet,
    /// The bootstrap network: a copy of `online`'s weights and biases,
    /// synced every `target_sync_every` learning steps.
    target: Target,
    adam: Adam,
    /// The replay ring, which also caches the target Q-rows.
    buffer: ReplayBuffer,
    rng: SmallRng,
    learn_steps: u64,
    /// What `learn`'s forward keeps for its backward, and the buffers
    /// its bootstrap passes run in.
    scratch: LearnScratch,
    /// Reusable batched-learning scratch.
    minibatch: MiniBatch,
    bootstrap: Bootstrap,
    work: Work,
    q_pred: Vec<f32>,
    targets: Vec<f32>,
    dq: Vec<f32>,
}

impl DqnAgent {
    /// Build an agent (target starts as a copy of the online network).
    ///
    /// # Panics
    /// Panics if `cfg.shards` is not `1`, or `cfg.buffer_capacity`,
    /// `cfg.batch_size` or `cfg.target_sync_every` is 0.
    #[must_use]
    pub fn new(cfg: DqnConfig) -> Self {
        assert_eq!(
            cfg.shards, 1,
            "sharded replay is retired: DqnConfig::shards must be 1 (ROADMAP item 2f)"
        );
        assert!(
            cfg.batch_size >= 1,
            "DqnConfig::batch_size must be at least 1"
        );
        assert!(
            cfg.target_sync_every >= 1,
            "DqnConfig::target_sync_every must be at least 1"
        );
        let online = QNet::new(
            cfg.state_dim,
            &cfg.hidden,
            cfg.n_actions,
            cfg.head,
            cfg.seed,
        );
        let target = Target::new(online.clone());
        let adam = Adam::new(online.num_params(), cfg.lr);
        let buffer = ReplayBuffer::new(cfg.buffer_capacity, cfg.n_actions);
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5eed);
        // A step evaluates at most one row per sample: sized once, so
        // no step's count of misses can grow them.
        let b = cfg.batch_size;
        let bootstrap = Bootstrap {
            rows: Vec::with_capacity(b),
            masks: Vec::with_capacity(b),
            picks: Vec::with_capacity(b),
            evaluated: Vec::with_capacity(b),
            ..Bootstrap::default()
        };
        Self {
            cfg,
            online,
            target,
            adam,
            buffer,
            rng,
            learn_steps: 0,
            scratch: LearnScratch::default(),
            minibatch: MiniBatch::new(),
            bootstrap,
            work: Work::default(),
            q_pred: Vec::new(),
            targets: Vec::new(),
            dq: Vec::new(),
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
        self.buffer
            .sample_into(self.cfg.batch_size, &mut self.rng, &mut self.minibatch);
        self.bootstrap_targets();
        Some(self.fit_targets())
    }

    /// One batched forward/backward over the whole minibatch towards
    /// `targets`; the backward updates each block of weights as its
    /// gradient is computed, in one Adam step. Counts the step, syncs
    /// the target net when it is due, and returns the mean Huber loss.
    fn fit_targets(&mut self) -> f32 {
        let b = self.cfg.batch_size;
        let n = self.cfg.n_actions;
        let states = &self.minibatch.states;
        self.online
            .forward_batch(states, b, &mut self.scratch, &mut self.q_pred);
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
        self.online.backward_batch(
            states,
            &self.dq,
            b,
            &mut self.scratch,
            &mut self.adam.begin_step(),
        );

        self.learn_steps += 1;
        if self.learn_steps.is_multiple_of(self.cfg.target_sync_every) {
            let online = &self.online;
            self.target.write(|target| target.copy_weights_from(online));
        }
        total_loss * inv_n
    }

    /// Each sample's TD target into `targets`: its reward, plus for a
    /// live successor `γ · Q_target(s′, a*)`, with a* the online net's
    /// masked argmax (double DQN) or the target net's (vanilla).
    ///
    /// Only the rows the targets read are evaluated (see the module
    /// docs). Nothing is differentiated through them, so they take the
    /// inference forward — the Q-values of `forward_batch`, none of its
    /// backward-cache upkeep — in the buffers the step's forward takes
    /// over next.
    fn bootstrap_targets(&mut self) {
        let b = self.cfg.batch_size;
        let n = self.cfg.n_actions;
        let all = u64::MAX >> (64 - n);
        let mb = &self.minibatch;
        let boot = &mut self.bootstrap;
        let pass = &mut self.scratch.pass;
        let epoch = self.target.epoch();

        // The target net runs over each live successor whose cached
        // row is older than its weights.
        boot.rows.clear();
        for i in 0..b {
            let row = mb.next_rows[i];
            if !mb.dones[i]
                && self.buffer.cached_target(row, epoch).is_none()
                && !boot.rows.contains(&row)
            {
                boot.rows.push(row);
            }
        }
        self.work.target_rows += boot.rows.len() as u64;
        let rows = &boot.rows;
        predict_rows(
            self.target.net(),
            &mut self.buffer,
            rows,
            pass,
            &mut boot.block,
            &mut boot.q,
            |ring, k, q| ring.cache_target(rows[k], epoch, q),
        );

        // Double DQN: the online net picks a* where there is a choice.
        boot.evaluated.clear();
        if self.cfg.double {
            boot.rows.clear();
            boot.masks.clear();
            for i in 0..b {
                let (row, mask) = (mb.next_rows[i], mb.next_masks[i]);
                let choice = !mb.dones[i] && (mask & all).count_ones() > 1;
                boot.evaluated.push(choice.then(|| {
                    boot.rows.iter().position(|&r| r == row).unwrap_or_else(|| {
                        boot.rows.push(row);
                        boot.masks.push(mask);
                        boot.rows.len() - 1
                    })
                }));
            }
            self.work.online_rows += boot.rows.len() as u64;
            boot.picks.clear();
            let (masks, picks) = (&boot.masks, &mut boot.picks);
            predict_rows(
                &self.online,
                &mut self.buffer,
                &boot.rows,
                pass,
                &mut boot.block,
                &mut boot.q,
                |_, k, q| picks.push(masked_argmax(q, |a| masks[k] & (1 << a) != 0)),
            );
        }

        self.targets.resize(b, 0.0);
        for i in 0..b {
            let y = if mb.dones[i] {
                mb.rewards[i]
            } else {
                let mask = mb.next_masks[i];
                let q_t = self
                    .buffer
                    .cached_target(mb.next_rows[i], epoch)
                    .expect("every live successor's target row is current");
                let bootstrap = if self.cfg.double {
                    // With at most one valid action the masked argmax
                    // is that action (or none), whatever the Q-values.
                    let live = mask & all;
                    let a_star = match boot.evaluated[i] {
                        Some(k) => boot.picks[k],
                        None => (live != 0).then(|| live.trailing_zeros() as usize),
                    };
                    q_t[a_star.unwrap_or(0)]
                } else {
                    masked_argmax(q_t, |a| mask & (1 << a) != 0).map_or(0.0, |a| q_t[a])
                };
                mb.rewards[i] + self.cfg.gamma * bootstrap
            };
            self.targets[i] = y;
        }
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
        self.target.write(|target| target.read_params(params));
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
    #[should_panic(expected = "DqnConfig::batch_size must be at least 1")]
    fn a_zero_batch_is_refused() {
        let _ = DqnAgent::new(DqnConfig {
            batch_size: 0,
            ..chain_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "DqnConfig::target_sync_every must be at least 1")]
    fn a_zero_sync_period_is_refused() {
        let _ = DqnAgent::new(DqnConfig {
            target_sync_every: 0,
            ..chain_cfg()
        });
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

    /// `learn` as it was before the bootstrap passes evaluated only the
    /// rows the targets read: every successor, terminal or forced ones
    /// too, through one full-batch pass per network, with nothing
    /// cached.
    fn learn_cache_free(agent: &mut DqnAgent) -> Option<f32> {
        if agent.buffer.len() < agent.cfg.batch_size {
            return None;
        }
        let b = agent.cfg.batch_size;
        let n = agent.cfg.n_actions;
        agent
            .buffer
            .sample_into(b, &mut agent.rng, &mut agent.minibatch);
        let mb = &agent.minibatch;
        let next_states: Vec<f32> = mb
            .next_rows
            .iter()
            .flat_map(|&row| agent.buffer.state(row).iter().copied())
            .collect();
        let mut scratch = PredictScratch::default();
        let (mut q_next_online, mut q_next_target) = (Vec::new(), Vec::new());
        let mut a_star = vec![None; b];
        if agent.cfg.double {
            agent
                .online
                .predict_batch_into(&next_states, b, &mut scratch, &mut q_next_online);
            for (i, a) in a_star.iter_mut().enumerate() {
                let q = &q_next_online[i * n..(i + 1) * n];
                *a = masked_argmax(q, |a| mb.next_masks[i] & (1 << a) != 0);
            }
        }
        agent
            .target
            .net()
            .predict_batch_into(&next_states, b, &mut scratch, &mut q_next_target);
        agent.targets.resize(b, 0.0);
        for i in 0..b {
            agent.targets[i] = if mb.dones[i] {
                mb.rewards[i]
            } else {
                let mask = mb.next_masks[i];
                let q_t = &q_next_target[i * n..(i + 1) * n];
                let bootstrap = if agent.cfg.double {
                    q_t[a_star[i].unwrap_or(0)]
                } else {
                    masked_argmax(q_t, |a| mask & (1 << a) != 0).map_or(0.0, |a| q_t[a])
                };
                mb.rewards[i] + agent.cfg.gamma * bootstrap
            };
        }
        Some(agent.fit_targets())
    }

    /// Chained rollout steps over `dim`-wide states: every 10th ends an
    /// episode, every 3rd successor has a single valid action, and the
    /// other masks are drawn over all 64 bits.
    fn synthetic_steps(dim: usize, n: usize, count: usize, seed: u64) -> Vec<Transition> {
        use rand::RngCore;
        let mut rng = SmallRng::seed_from_u64(seed);
        let draw = |rng: &mut SmallRng| -> Vec<f32> {
            (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        let mut state = draw(&mut rng);
        (0..count)
            .map(|k| {
                let next_state = draw(&mut rng);
                let done = k % 10 == 9;
                let t = Transition {
                    state: std::mem::replace(&mut state, next_state.clone()),
                    action: rng.gen_range(0..n),
                    reward: rng.gen_range(-1.0f32..1.0),
                    next_state,
                    done,
                    next_mask: if k % 3 == 0 {
                        1 << rng.gen_range(0..n)
                    } else {
                        rng.next_u64()
                    },
                };
                if done {
                    state = draw(&mut rng);
                }
                t
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn learn_matches_the_cache_free_step_and_evaluates_only_what_it_reads() {
        const STEPS: usize = 200;
        // (head, double) → (online rows, target rows) over the run, of
        // 6 400 samples. The sample stream does not depend on the
        // network, so neither do the counts.
        let pins = [
            ((Head::Dueling, true), (2_810, 1_041)),
            ((Head::Dueling, false), (0, 1_041)),
            ((Head::Plain, true), (2_810, 1_041)),
            ((Head::Plain, false), (0, 1_041)),
        ];
        for ((head, double), pin) in pins {
            let cfg = DqnConfig {
                state_dim: 6,
                n_actions: 5,
                hidden: vec![20, 12],
                gamma: 0.9,
                lr: 5e-3,
                batch_size: 32,
                target_sync_every: 40,
                buffer_capacity: 150,
                shards: 1,
                huber_delta: 1.0,
                double,
                head,
                seed: 21,
            };
            let (mut agent, mut reference) = (DqnAgent::new(cfg.clone()), DqnAgent::new(cfg));
            let mut steps = synthetic_steps(6, 5, 150 + 2 * STEPS, 4).into_iter();
            for t in steps.by_ref().take(150) {
                agent.remember(t.clone());
                reference.remember(t);
            }
            let (mut params, mut want_params) = (Vec::new(), Vec::new());
            for step in 0..STEPS {
                // Mid-period, so the load starts an epoch a sync does not.
                if step == 110 {
                    agent.online.write_params(&mut params);
                    for x in &mut params {
                        *x *= 0.75;
                    }
                    agent.load_weights(&params);
                    reference.load_weights(&params);
                }
                for t in steps.by_ref().take(2) {
                    agent.remember(t.clone());
                    reference.remember(t);
                }
                let at = format!("{head:?}, double {double}, step {step}");
                let loss = agent.learn().expect("the ring holds a batch");
                let want = learn_cache_free(&mut reference).expect("the ring holds a batch");
                assert_eq!(loss.to_bits(), want.to_bits(), "loss, {at}");
                agent.online.write_params(&mut params);
                reference.online.write_params(&mut want_params);
                assert_eq!(bits(&params), bits(&want_params), "weights, {at}");
                let ((m, v), (want_m, want_v)) = (agent.adam.moments(), reference.adam.moments());
                assert_eq!(bits(m), bits(want_m), "first moments, {at}");
                assert_eq!(bits(v), bits(want_v), "second moments, {at}");
            }
            let work = (agent.work.online_rows, agent.work.target_rows);
            let at = format!("{head:?}, double {double}");
            assert_eq!(work, pin, "(online rows, target rows), {at}");
            let samples = (STEPS * 32) as u64;
            assert!(
                5 * work.1 <= samples,
                "{at}: {} target rows for {samples} samples",
                work.1
            );
        }
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
