//! The generic RL interface: [`Env`] × [`Learner`] — the contract the
//! rollout/learner pipeline ([`crate::train::train_env`]) is written
//! against.
//!
//! The paper's formulation is *hierarchical* (a coarse MIG decision
//! level and a fine MPS level), but the original training code was
//! welded to one flat environment and one agent. These traits decouple
//! the pipeline from both sides:
//!
//! * [`Env`] is one episode's worth of decision process: a state
//!   encoding of fixed [`Env::state_dim`], a bitmask of currently valid
//!   actions, and a [`StepResult`]-producing `step`. Draining the
//!   episode yields an associated [`Env::Decision`] — for the
//!   co-scheduling envs, a [`crate::problem::ScheduleDecision`].
//! * [`EnvFactory`] stamps out one `Env` per episode (the pipeline's
//!   rollout workers construct envs concurrently, so the factory is the
//!   `Sync` object shared across threads, not the env).
//! * [`Learner`] is the single-threaded training side: it stores
//!   transitions, takes gradient steps, and can freeze a
//!   [`Learner::Snapshot`] — an immutable behaviour policy the rollout
//!   workers act against. Snapshots select actions through
//!   [`SnapshotPolicy`] with an explicit per-episode RNG, which is what
//!   makes rollouts worker-count invariant.
//!
//! [`DqnAgent`] implements [`Learner`] (its snapshot is the online
//! Q-network planned for single-sample inference),
//! [`crate::env::CoScheduleEnv`] and
//! [`crate::hierarchy::HierarchicalEnv`] implement [`Env`], and
//! [`crate::train::train`] wires the default pair together exactly as
//! before the redesign — bit-for-bit, as pinned by the golden-report
//! regression tests.

use crate::env::StepResult;
use hrp_nn::dqn::{epsilon_greedy_action_with, ActionScratch};
use hrp_nn::replay::Transition;
use hrp_nn::{DqnAgent, FastPolicy, QNet};
use rand::rngs::SmallRng;

/// Which environment formulation an experiment trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKind {
    /// The flat 29-action formulation ([`crate::env::CoScheduleEnv`]):
    /// one action picks concurrency and the full partition template.
    Flat,
    /// The paper's two-level hierarchy
    /// ([`crate::hierarchy::HierarchicalEnv`]): a MIG-level action
    /// (concurrency + physical partitioning) followed by an MPS-level
    /// action (the logical share allocation inside it).
    Hierarchical,
}

impl EnvKind {
    /// Parse a CLI-style name: exactly the strings [`EnvKind::name`]
    /// returns (`flat` / `hierarchical`).
    ///
    /// # Errors
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "flat" => Ok(Self::Flat),
            "hierarchical" => Ok(Self::Hierarchical),
            other => Err(other.to_owned()),
        }
    }

    /// The CLI-style name (`flat` / `hierarchical`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Flat => "flat",
            Self::Hierarchical => "hierarchical",
        }
    }
}

/// One episode of a co-scheduling decision process.
///
/// # Contract
///
/// The pipeline (and the property tests in `tests/env_contract.rs`)
/// relies on:
///
/// * `state_into` always encodes exactly [`Env::state_dim`] floats;
/// * while `!done()`, `valid_mask()` has at least one set bit, and all
///   set bits are `< n_actions()`;
/// * `step` on a valid action makes progress: a finite episode always
///   drains;
/// * `reset` returns the env to its exact initial state.
pub trait Env {
    /// What a drained episode produces.
    type Decision;

    /// Length of the state vector (constant over the episode).
    fn state_dim(&self) -> usize;

    /// Size of the action space (constant; masks fit in a `u64`).
    fn n_actions(&self) -> usize;

    /// Whether the episode is over.
    fn done(&self) -> bool;

    /// Encode the current state into `out` (resized to `state_dim`).
    fn state_into(&self, out: &mut Vec<f32>);

    /// Bitmask of currently valid actions.
    fn valid_mask(&self) -> u64;

    /// Take an action, returning the step outcome.
    fn step(&mut self, action: usize) -> StepResult;

    /// Return to the initial state (same queue, empty decision).
    fn reset(&mut self);

    /// Consume the episode, yielding the accumulated decision.
    fn into_decision(self) -> Self::Decision;
}

/// Stamps out one [`Env`] per episode over a given episode context.
///
/// The factory owns (or borrows) everything episode-invariant — suite,
/// profiles, scaler, action catalog — and is shared by reference across
/// the rollout worker threads, so it must be [`Sync`]. What varies per
/// episode is the [`EnvFactory::Ctx`]: a [`hrp_workloads::JobQueue`] for the
/// co-scheduling formulations, a cluster job trace for node placement —
/// the pipeline ([`crate::train::train_env`]) only ever hands contexts
/// back to the factory, so any episode description works.
pub trait EnvFactory: Sync {
    /// The per-episode context an env is built over (shared across the
    /// rollout worker threads by reference).
    type Ctx: Sync;

    /// The environment type, borrowing the factory and the context.
    type Env<'e>: Env
    where
        Self: 'e;

    /// Build a fresh episode over `ctx`.
    fn make<'e>(&'e self, ctx: &'e Self::Ctx) -> Self::Env<'e>;

    /// State dimension of every produced env.
    fn state_dim(&self) -> usize;

    /// Action-space size of every produced env.
    fn n_actions(&self) -> usize;

    /// Upper-bound hint for env steps per episode, used to scale the
    /// ε-decay schedule (the pipeline expects roughly
    /// `episodes × hint / 2` total steps). The flat env takes at most
    /// one step per job (`W`); the hierarchical env two.
    fn episode_steps_hint(&self) -> usize;
}

/// A frozen behaviour policy: how rollout workers select actions
/// against an immutable snapshot, with an explicit RNG stream.
///
/// Snapshots cross thread boundaries (each training round freezes one
/// and hands it to every worker), hence `Send + Sync`.
pub trait SnapshotPolicy: Send + Sync {
    /// ε-greedy action among the mask's valid bits.
    fn select_action(&self, state: &[f32], mask: u64, epsilon: f64, rng: &mut SmallRng) -> usize;

    /// [`SnapshotPolicy::select_action`] with caller-owned scratch, for
    /// hot rollout loops: implementations that run a network forward
    /// per call should override this to reuse `scratch` instead of
    /// allocating, keeping RNG draws and selected actions identical.
    /// The default ignores the scratch.
    fn select_action_with(
        &self,
        state: &[f32],
        mask: u64,
        epsilon: f64,
        rng: &mut SmallRng,
        scratch: &mut ActionScratch,
    ) -> usize {
        let _ = scratch;
        self.select_action(state, mask, epsilon, rng)
    }
}

/// A deployed greedy policy: ε = 0, deterministic, `&mut self` so
/// implementations can own preallocated inference scratch — the
/// contract [`crate::cluster_env::PolicySelector`] drives every
/// placement decision through.
///
/// Contrast with [`SnapshotPolicy`], which is `&self` (one snapshot is
/// shared across rollout worker threads) and therefore cannot reuse
/// mutable scratch; deployment owns its policy exclusively, so the
/// fast path can be allocation-free.
pub trait GreedyPolicy {
    /// Greedy action among the mask's valid bits (ties → lowest index).
    fn greedy(&mut self, state: &[f32], mask: u64) -> usize;
}

/// The learner side of the pipeline: remembers transitions, takes
/// gradient steps, freezes behaviour-policy snapshots.
pub trait Learner {
    /// The frozen behaviour policy handed to rollout workers.
    type Snapshot: SnapshotPolicy;

    /// Freeze the current policy for a rollout round.
    fn snapshot(&self) -> Self::Snapshot;

    /// ε-greedy action from the learner's own RNG stream (single-thread
    /// interactive use; the pipeline itself acts through snapshots).
    fn select_action(&mut self, state: &[f32], mask: u64, epsilon: f64) -> usize;

    /// Greedy (ε = 0) action — deterministic (single-state use;
    /// [`greedy_rollout`] acts through a snapshot).
    fn greedy_action(&self, state: &[f32], mask: u64) -> usize;

    /// Store a transition in the replay ring. The pipeline always
    /// passes `shard` = 0: the name and the argument stay only because
    /// the frozen `benchmark/` implements this method (ROADMAP item 2f).
    fn remember_to(&mut self, shard: usize, t: Transition);

    /// Take one learning step (a no-op until enough data is stored).
    fn learn(&mut self);
}

/// A frozen DQN policy: the online network planned once into the
/// single-sample inference path ([`FastPolicy`]), plus the scratch its
/// `&mut self` greedy deployment runs in. Rollout workers share it by
/// `&self`, each with its own [`ActionScratch`].
pub struct DqnSnapshot {
    plan: FastPolicy,
    scratch: ActionScratch,
}

impl DqnSnapshot {
    /// Freeze `net`.
    #[must_use]
    pub fn new(net: &QNet) -> Self {
        Self {
            plan: FastPolicy::new(net),
            scratch: ActionScratch::default(),
        }
    }
}

impl SnapshotPolicy for DqnSnapshot {
    fn select_action(&self, state: &[f32], mask: u64, epsilon: f64, rng: &mut SmallRng) -> usize {
        let mut scratch = ActionScratch::default();
        self.select_action_with(state, mask, epsilon, rng, &mut scratch)
    }

    fn select_action_with(
        &self,
        state: &[f32],
        mask: u64,
        epsilon: f64,
        rng: &mut SmallRng,
        scratch: &mut ActionScratch,
    ) -> usize {
        epsilon_greedy_action_with(&self.plan, state, mask, epsilon, rng, scratch)
    }
}

impl GreedyPolicy for DqnSnapshot {
    fn greedy(&mut self, state: &[f32], mask: u64) -> usize {
        // Ties break to the lowest index, as in
        // `DqnAgent::greedy_action`, which runs the same kernel.
        self.plan.greedy(state, mask, &mut self.scratch)
    }
}

impl Learner for DqnAgent {
    type Snapshot = DqnSnapshot;

    fn snapshot(&self) -> DqnSnapshot {
        DqnSnapshot::new(self.online_net())
    }

    fn select_action(&mut self, state: &[f32], mask: u64, epsilon: f64) -> usize {
        DqnAgent::select_action(self, state, mask, epsilon)
    }

    fn greedy_action(&self, state: &[f32], mask: u64) -> usize {
        DqnAgent::greedy_action(self, state, mask)
    }

    fn remember_to(&mut self, shard: usize, t: Transition) {
        DqnAgent::remember_to(self, shard, t);
    }

    fn learn(&mut self) {
        let _ = DqnAgent::learn(self);
    }
}

/// Greedy (ε = 0) rollout of one episode — the online decision making,
/// generic over the env/learner pair. The learner is frozen once, and
/// every decision runs through its snapshot's [`GreedyPolicy`], the path
/// a deployed selector takes.
pub fn greedy_rollout<E: Env, L: Learner + ?Sized>(mut env: E, learner: &L) -> E::Decision
where
    L::Snapshot: GreedyPolicy,
{
    let mut policy = learner.snapshot();
    let mut state = Vec::new();
    while !env.done() {
        env.state_into(&mut state);
        let action = policy.greedy(&state, env.valid_mask());
        env.step(action);
    }
    env.into_decision()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_nn::{DqnConfig, Head};
    use rand::SeedableRng;

    fn tiny_agent() -> DqnAgent {
        DqnAgent::new(DqnConfig {
            state_dim: 2,
            n_actions: 3,
            hidden: vec![8],
            gamma: 0.9,
            lr: 1e-3,
            batch_size: 4,
            target_sync_every: 10,
            buffer_capacity: 64,
            shards: 1,
            huber_delta: 1.0,
            double: true,
            head: Head::Dueling,
            seed: 7,
        })
    }

    #[test]
    fn dqn_snapshot_matches_live_agent_greedily() {
        let agent = tiny_agent();
        let snap = Learner::snapshot(&agent);
        let mut rng = SmallRng::seed_from_u64(1);
        for probe in [[0.1f32, 0.9], [0.5, 0.5], [0.0, 1.0]] {
            assert_eq!(
                snap.select_action(&probe, 0b111, 0.0, &mut rng),
                Learner::greedy_action(&agent, &probe, 0b111),
            );
        }
    }

    #[test]
    fn env_kind_parses_and_round_trips() {
        assert_eq!(EnvKind::parse("flat"), Ok(EnvKind::Flat));
        assert_eq!(EnvKind::parse("hierarchical"), Ok(EnvKind::Hierarchical));
        assert_eq!(EnvKind::parse("hier"), Err("hier".to_owned()));
        assert!(EnvKind::parse("heirarchical").is_err());
        for kind in [EnvKind::Flat, EnvKind::Hierarchical] {
            assert_eq!(EnvKind::parse(kind.name()), Ok(kind));
        }
    }
}
