//! Offline training (paper Fig. 7, left half) as a **round-based
//! rollout/learner pipeline**.
//!
//! The paper trains the dueling double DQN by repeatedly co-running job
//! mixes drawn from 20 random queues of the 18 *seen* programs, updating
//! the network from the measured rewards. Training happens once per
//! system; the frozen agent is then used online (ε = 0).
//!
//! # Architecture
//!
//! The pipeline is written against the [`crate::rl`] traits —
//! [`train_env`] takes any [`EnvFactory`] × [`Learner`] pair — and
//! proceeds in fixed-size **rounds** of [`TrainConfig::rollout_round`]
//! episodes, each in three steps:
//!
//! 1. the learner freezes a [`Learner::Snapshot`] of its policy;
//! 2. [`par::for_each_mut`] fills one slot per episode of the round, on
//!    up to [`TrainConfig::n_workers`] threads: each slot steps a
//!    factory-made episode against the frozen snapshot, with an
//!    **independent RNG stream seeded from `(seed, episode)`**;
//! 3. the learner, on the calling thread, takes the slots **in episode
//!    order**, stores their transitions in the replay ring and runs two
//!    gradient steps per environment step.
//!
//! The next round's snapshot is frozen only after this round is fully
//! learned, so every rollout acts on the freshest weights: roll out,
//! store, learn, as the paper trains.
//!
//! Because every episode's rollout depends only on its round's snapshot
//! and its own seed, and the learner takes the slots in a fixed order,
//! the trained weights are **bit-identical for any worker count**
//! (pinned by `tests/golden_train.rs`): worker parallelism is an
//! execution detail, not a semantic knob.
//!
//! [`train`] wires the default pair — [`CoScheduleEnv`] (or
//! [`crate::hierarchy::HierarchicalEnv`] under
//! [`TrainConfig::env`] = [`EnvKind::Hierarchical`]) with [`DqnAgent`] —
//! through [`train_env`].

use crate::actions::ActionCatalog;
use crate::env::{CoScheduleEnv, CoScheduleEnvFactory, EnvConfig, JOB_FEATURES};
use crate::hierarchy::{HierarchicalCatalog, HierarchicalEnv, HierarchicalEnvFactory};
use crate::par;
use crate::problem::ScheduleDecision;
use crate::rl::{greedy_rollout, Env, EnvFactory, EnvKind, Learner, SnapshotPolicy};
use hrp_gpusim::engine::EngineConfig;
use hrp_gpusim::rng::split_seed;
use hrp_nn::dqn::ActionScratch;
use hrp_nn::net::Head;
use hrp_nn::replay::Transition;
use hrp_nn::{DqnAgent, DqnConfig, EpsilonSchedule};
use hrp_profile::{FeatureScaler, ProfileRepository, Profiler};
use hrp_workloads::{JobQueue, QueueGenerator, Suite};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Training configuration.
///
/// [`TrainConfig::paper`] is the paper's Table VI setup;
/// [`TrainConfig::quick`] shrinks it for tests:
///
/// ```
/// use hrp_core::train::TrainConfig;
///
/// let cfg = TrainConfig {
///     n_workers: 4, // execution detail: results identical for any value
///     ..TrainConfig::paper()
/// };
/// assert_eq!(cfg.w, 12);
/// assert_eq!(cfg.hidden, vec![512, 256, 128]);
/// ```
///
/// Checkpointing a trained run: [`crate::experiment`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Window size `W`.
    pub w: usize,
    /// Concurrency cap `Cmax`.
    pub cmax: usize,
    /// Training episodes (each drains one window).
    pub episodes: usize,
    /// Number of random training queues (paper: 20).
    pub n_queues: usize,
    /// Master seed.
    pub seed: u64,
    /// Hidden-layer widths (paper: 512/256/128).
    pub hidden: Vec<usize>,
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Target-network sync period (learning steps).
    pub target_sync_every: u64,
    /// Replay capacity.
    pub buffer_capacity: usize,
    /// Double-DQN targets (ablation knob).
    pub double: bool,
    /// Dueling head (ablation knob).
    pub dueling: bool,
    /// Profile measurement noise level.
    pub profile_noise: f64,
    /// Intermediate-reward weight.
    pub ri_weight: f64,
    /// Final-reward weight.
    pub rf_weight: f64,
    /// Inert: the co-run engine takes no configuration. Kept only
    /// because the frozen `benchmark/` names it (ROADMAP item 2f).
    pub engine: EngineConfig,
    /// Final ε of the exploration schedule (paper: 0.01).
    pub eps_end: f64,
    /// Rollout worker threads (`0` = available parallelism). Changes
    /// wall-clock only — results are identical for any value.
    pub n_workers: usize,
    /// Episodes rolled out against one weight snapshot. Part of the
    /// training semantics (unlike `n_workers`): it sets how often the
    /// snapshot is refreshed and the worker parallelism usable per
    /// round.
    pub rollout_round: usize,
    /// Always `false`: the overlapped rounds are retired and [`train`]
    /// refuses `true`. Kept only because the frozen `benchmark/` names
    /// it (ROADMAP item 2f).
    pub overlap: bool,
    /// Always `1`: the agent keeps one replay ring and [`train`] refuses
    /// any other value. Kept only because the frozen `benchmark/` names
    /// it (ROADMAP item 2f).
    pub shards: usize,
    /// Which environment formulation to train on: the flat 29-action
    /// catalog, or the paper's two-level MIG → MPS hierarchy.
    pub env: EnvKind,
}

impl TrainConfig {
    /// The paper's setup (Table VI): W = 12, Cmax = 4, 512/256/128.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            w: 12,
            cmax: 4,
            episodes: 600,
            n_queues: 20,
            seed: 42,
            hidden: vec![512, 256, 128],
            gamma: 0.95,
            lr: 5e-4,
            batch_size: 32,
            target_sync_every: 100,
            buffer_capacity: 20_000,
            double: true,
            dueling: true,
            profile_noise: 0.03,
            // The r_i formula structurally favours large exclusive
            // allocations (SmAllocRatio = 1 for solo runs), so the
            // measured-throughput reward r_f carries the signal and r_i
            // is a small shaping term; the paper does not publish its
            // scaling. (r_i still fully controls job→slot binding
            // regardless of this weight.)
            ri_weight: 0.05,
            rf_weight: 0.05,
            engine: EngineConfig,
            eps_end: 0.01,
            n_workers: 0,
            rollout_round: 8,
            overlap: false,
            shards: 1,
            env: EnvKind::Flat,
        }
    }

    /// A small configuration for tests and quick smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            w: 6,
            cmax: 4,
            episodes: 250,
            n_queues: 6,
            hidden: vec![64, 32],
            lr: 1e-3,
            ..Self::paper()
        }
    }

    pub(crate) fn env_config(&self) -> EnvConfig {
        EnvConfig {
            w: self.w,
            cmax: self.cmax,
            ri_weight: self.ri_weight,
            rf_weight: self.rf_weight,
            engine: self.engine.clone(),
        }
    }
}

/// The pipeline-level slice of [`TrainConfig`]: what [`train_env`]
/// needs beyond the factory and learner. Derivable from a full config
/// via `From<&TrainConfig>`.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Training episodes.
    pub episodes: usize,
    /// Master seed (per-episode RNG streams derive from it).
    pub seed: u64,
    /// Final ε of the exploration schedule.
    pub eps_end: f64,
    /// Rollout worker threads (`0` = available parallelism).
    pub n_workers: usize,
    /// Episodes rolled out against one snapshot.
    pub rollout_round: usize,
    /// Always `false`, as [`TrainConfig::overlap`].
    pub overlap: bool,
    /// Always `1`, as [`TrainConfig::shards`].
    pub shards: usize,
}

impl From<&TrainConfig> for PipelineConfig {
    fn from(cfg: &TrainConfig) -> Self {
        Self {
            episodes: cfg.episodes,
            seed: cfg.seed,
            eps_end: cfg.eps_end,
            n_workers: cfg.n_workers,
            rollout_round: cfg.rollout_round,
            overlap: cfg.overlap,
            shards: cfg.shards,
        }
    }
}

/// A trained agent plus everything needed to deploy it online.
pub struct TrainedAgent {
    agent: DqnAgent,
    /// Feature scaler fitted on the profile repository.
    pub scaler: FeatureScaler,
    /// The 29-entry action catalog.
    pub catalog: ActionCatalog,
    /// The profile repository (pre-populated with the suite).
    pub repo: ProfileRepository,
    cfg: TrainConfig,
}

impl TrainedAgent {
    /// Reassemble a trained agent from its parts (checkpoint loading).
    #[must_use]
    pub(crate) fn from_parts(
        agent: DqnAgent,
        scaler: FeatureScaler,
        catalog: ActionCatalog,
        repo: ProfileRepository,
        cfg: TrainConfig,
    ) -> Self {
        Self {
            agent,
            scaler,
            catalog,
            repo,
            cfg,
        }
    }

    /// Greedy (ε = 0) rollout over a queue — the online decision
    /// making, through whichever environment formulation
    /// ([`TrainConfig::env`]) the agent was trained on.
    ///
    /// # Panics
    /// Panics if the queue exceeds the training window size or contains
    /// unprofiled jobs.
    #[must_use]
    pub fn greedy_decision(&self, suite: &Suite, queue: &JobQueue) -> ScheduleDecision {
        let flat = CoScheduleEnv::new(
            suite,
            queue,
            &self.repo,
            &self.scaler,
            &self.catalog,
            self.cfg.env_config(),
        );
        match self.cfg.env {
            EnvKind::Flat => greedy_rollout(flat, &self.agent),
            EnvKind::Hierarchical => {
                let hcat = HierarchicalCatalog::from_catalog(&self.catalog);
                greedy_rollout(HierarchicalEnv::new(flat, &hcat), &self.agent)
            }
        }
    }

    /// The training configuration used.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// The underlying DQN (weight export, inspection).
    #[must_use]
    pub fn dqn(&self) -> &DqnAgent {
        &self.agent
    }
}

/// Training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Episodes run.
    pub episodes: usize,
    /// Environment steps taken.
    pub total_steps: u64,
    /// Mean episode return over the first 10% of episodes.
    pub early_return: f64,
    /// Mean episode return over the last 10% of episodes.
    pub late_return: f64,
    /// Mean measured throughput gain (r_f) per group in the last 10%.
    pub late_rf: f64,
}

/// A completed rollout: one slot of a round, learned in episode order.
#[derive(Default)]
struct EpisodeResult {
    transitions: Vec<Transition>,
    ep_return: f64,
    rfs: Vec<f64>,
}

/// Per-episode RNG stream: independent of worker count and of every
/// other episode.
fn episode_rng(seed: u64, episode: usize) -> SmallRng {
    SmallRng::seed_from_u64(split_seed(seed, episode))
}

/// Roll one episode against a frozen policy snapshot.
fn rollout_episode<F: EnvFactory, S: SnapshotPolicy>(
    factory: &F,
    ctx: &F::Ctx,
    snapshot: &S,
    eps: &EpsilonSchedule,
    base_step: u64,
    mut rng: SmallRng,
) -> EpisodeResult {
    let mut env = factory.make(ctx);
    let mut state = Vec::new();
    let mut transitions = Vec::new();
    let mut rfs = Vec::new();
    let mut scratch = ActionScratch::default();
    let mut ep_return = 0.0;
    let mut local_step = 0u64;
    while !env.done() {
        env.state_into(&mut state);
        let mask = env.valid_mask();
        let epsilon = eps.value(base_step + local_step);
        let action = snapshot.select_action_with(&state, mask, epsilon, &mut rng, &mut scratch);
        let out = env.step(action);
        ep_return += out.reward;
        rfs.push(out.rf);
        let mut next_state = Vec::new();
        env.state_into(&mut next_state);
        transitions.push(Transition {
            state: state.clone(),
            action,
            reward: out.reward as f32,
            next_state,
            done: out.done,
            next_mask: env.valid_mask(),
        });
        local_step += 1;
    }
    EpisodeResult {
        transitions,
        ep_return,
        rfs,
    }
}

/// Run the rollout/learner pipeline for an arbitrary
/// [`EnvFactory`] × [`Learner`] pair — the generic engine behind
/// [`train`], reusable for any environment formulation or agent.
///
/// Episode `e` rolls over context `ctxs[e % ctxs.len()]` (a
/// [`JobQueue`] for the co-scheduling envs, a job trace for the
/// cluster-placement env in `hrp-cluster`) with an RNG stream seeded
/// from `(cfg.seed, e)`; the ε schedule decays over the first half of
/// `episodes × factory.episode_steps_hint() / 2` expected steps. All
/// pipeline guarantees of the [module docs](self) — worker-count
/// invariance, episode-order learning — hold for any pair.
///
/// Returns the learner (now trained) plus the [`TrainReport`].
///
/// # Panics
/// Panics if `ctxs` is empty, or if `cfg.overlap` is set or
/// `cfg.shards` is not `1` (both retired). If a rollout panics (an
/// environment invariant violation, such as a queue larger than the
/// window), `train_env` re-raises the environment's own panic, with its
/// payload: the round's first in episode order, for any worker count.
pub fn train_env<F: EnvFactory, L: Learner>(
    factory: &F,
    mut learner: L,
    ctxs: &[F::Ctx],
    cfg: &PipelineConfig,
) -> (L, TrainReport) {
    assert!(!ctxs.is_empty(), "need at least one training context");
    assert!(
        !cfg.overlap && cfg.shards == 1,
        "overlapped rounds and sharded replay are retired: overlap must be false \
         and shards 1 (ROADMAP item 2f)"
    );
    // ε decays over the first ~half of the expected steps, leaving the
    // rest for near-greedy fine-tuning.
    let expected_steps = (cfg.episodes * factory.episode_steps_hint() / 2).max(1) as u64;
    let eps = EpsilonSchedule {
        start: 1.0,
        end: cfg.eps_end,
        decay_steps: expected_steps / 2,
    };

    let round_len = cfg.rollout_round.max(1);
    let mut step_count = 0u64;
    let mut returns = Vec::with_capacity(cfg.episodes);
    let mut rf_hist = Vec::new();
    let mut round: Vec<EpisodeResult> = Vec::with_capacity(round_len);
    for round_start in (0..cfg.episodes).step_by(round_len) {
        // Freeze the snapshot the round rolls against: the weights
        // learned through the previous round.
        let snapshot = learner.snapshot();
        let base_step = step_count;
        round.resize_with(round_len.min(cfg.episodes - round_start), Default::default);
        par::for_each_mut(&mut round, cfg.n_workers, |k, slot| {
            let ep = round_start + k;
            *slot = rollout_episode(
                factory,
                &ctxs[ep % ctxs.len()],
                &snapshot,
                &eps,
                base_step,
                episode_rng(cfg.seed, ep),
            );
        });
        for (ep, result) in (round_start..).zip(round.drain(..)) {
            for (t, rf) in result.transitions.into_iter().zip(result.rfs) {
                rf_hist.push((ep, rf));
                learner.remember_to(0, t);
                // Two gradient steps per environment step: co-runs are
                // expensive to "measure", gradients are cheap.
                learner.learn();
                learner.learn();
                step_count += 1;
            }
            returns.push(result.ep_return);
        }
    }

    let tenth = (cfg.episodes / 10).max(1);
    let early_return = returns.iter().take(tenth).sum::<f64>() / tenth as f64;
    let late_return = returns.iter().rev().take(tenth).sum::<f64>() / tenth as f64;
    let late_cutoff = cfg.episodes.saturating_sub(tenth);
    let late_rfs: Vec<f64> = rf_hist
        .iter()
        .filter(|(ep, _)| *ep >= late_cutoff)
        .map(|(_, rf)| *rf)
        .collect();
    let late_rf = if late_rfs.is_empty() {
        0.0
    } else {
        late_rfs.iter().sum::<f64>() / late_rfs.len() as f64
    };

    let report = TrainReport {
        episodes: cfg.episodes,
        total_steps: step_count,
        early_return,
        late_return,
        late_rf,
    };
    (learner, report)
}

/// The [`DqnConfig`] a [`TrainConfig`] induces for a given state/action
/// geometry (shared by training and checkpoint loading, so a reloaded
/// agent always has the exact shape of the trained one).
pub(crate) fn dqn_config(cfg: &TrainConfig, state_dim: usize, n_actions: usize) -> DqnConfig {
    DqnConfig {
        state_dim,
        n_actions,
        hidden: cfg.hidden.clone(),
        gamma: cfg.gamma,
        lr: cfg.lr,
        batch_size: cfg.batch_size,
        target_sync_every: cfg.target_sync_every,
        buffer_capacity: cfg.buffer_capacity,
        shards: cfg.shards,
        huber_delta: 1.0,
        double: cfg.double,
        head: if cfg.dueling {
            Head::Dueling
        } else {
            Head::Plain
        },
        seed: cfg.seed,
    }
}

/// The state/action geometry of a config's environment formulation.
pub(crate) fn env_geometry(cfg: &TrainConfig, catalog: &ActionCatalog) -> (usize, usize) {
    match cfg.env {
        EnvKind::Flat => (cfg.w * JOB_FEATURES, catalog.len()),
        EnvKind::Hierarchical => {
            let hcat = HierarchicalCatalog::from_catalog(catalog);
            (cfg.w * JOB_FEATURES + 1 + hcat.n_groups(), hcat.n_actions())
        }
    }
}

/// Run offline training: the paper's Fig. 7 left half, executed as the
/// generic rollout/learner pipeline ([`train_env`]) over the
/// environment formulation selected by [`TrainConfig::env`].
///
/// Returns the deployable [`TrainedAgent`] plus a [`TrainReport`] of
/// learning statistics. For a fixed config the result is bit-identical
/// on every machine and for every [`TrainConfig::n_workers`] value.
///
/// ```no_run
/// use hrp_core::train::{train, TrainConfig};
/// use hrp_gpusim::GpuArch;
/// use hrp_workloads::Suite;
///
/// let suite = Suite::paper_suite(&GpuArch::a100());
/// let cfg = TrainConfig {
///     n_workers: 4,
///     ..TrainConfig::quick()
/// };
/// let (trained, report) = train(&suite, cfg);
/// assert_eq!(report.episodes, 250);
/// assert!(trained.dqn().learn_steps() > 0);
/// ```
///
/// # Panics
/// Panics if [`TrainConfig::overlap`] is set or [`TrainConfig::shards`]
/// is not `1` (both retired), and with the environment's own message if
/// a rollout panics (see [`train_env`]).
#[must_use]
pub fn train(suite: &Suite, cfg: TrainConfig) -> (TrainedAgent, TrainReport) {
    let arch = suite.arch().clone();
    let profiler = Profiler::new(arch, cfg.profile_noise, cfg.seed);
    let repo = ProfileRepository::for_suite(suite, &profiler);
    let scaler = FeatureScaler::fit(&repo);
    let catalog = ActionCatalog::paper_29();

    let mut gen = QueueGenerator::new(cfg.seed);
    let queues = gen.training_queues(suite, cfg.n_queues, cfg.w);

    let (state_dim, n_actions) = env_geometry(&cfg, &catalog);
    let agent = DqnAgent::new(dqn_config(&cfg, state_dim, n_actions));
    let pipeline = PipelineConfig::from(&cfg);

    let (agent, report) = match cfg.env {
        EnvKind::Flat => {
            let factory =
                CoScheduleEnvFactory::new(suite, &repo, &scaler, &catalog, cfg.env_config());
            train_env(&factory, agent, &queues, &pipeline)
        }
        EnvKind::Hierarchical => {
            let factory =
                HierarchicalEnvFactory::new(suite, &repo, &scaler, &catalog, cfg.env_config());
            train_env(&factory, agent, &queues, &pipeline)
        }
    };

    (
        TrainedAgent {
            agent,
            scaler,
            catalog,
            repo,
            cfg,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    #[test]
    fn quick_training_runs_and_improves() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let (trained, report) = train(&suite, TrainConfig::quick());
        assert_eq!(report.episodes, 250);
        assert!(report.total_steps > 0);
        // The agent should discover co-scheduling: late returns at least
        // match early (random) returns, and late groups gain throughput.
        assert!(
            report.late_return >= report.early_return * 0.8,
            "training regressed: early {} late {}",
            report.early_return,
            report.late_return
        );
        assert!(trained.dqn().learn_steps() > 0);
    }

    #[test]
    fn greedy_decision_is_valid_and_deterministic() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let (trained, _) = train(&suite, TrainConfig::quick());
        let mut gen = QueueGenerator::new(123);
        let queue = gen.category_queue(
            &suite,
            "test",
            6,
            hrp_workloads::MixCategory::Balanced,
            false,
        );
        let d1 = trained.greedy_decision(&suite, &queue);
        let d2 = trained.greedy_decision(&suite, &queue);
        assert_eq!(d1, d2, "greedy rollout must be deterministic");
        d1.validate(&queue, 4, false).unwrap();
    }

    #[test]
    fn training_is_reproducible() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.episodes = 10;
        let (_, r1) = train(&suite, cfg.clone());
        let (_, r2) = train(&suite, cfg);
        assert_eq!(r1, r2);
    }

    #[test]
    fn training_invariant_to_worker_count() {
        // The rollout/learner pipeline must produce bit-identical
        // results for any worker count: parallelism is an execution
        // detail, not a semantic knob.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.episodes = 16;
        cfg.n_workers = 1;
        let (trained_1, r1) = train(&suite, cfg.clone());
        cfg.n_workers = 4;
        let (trained_4, r4) = train(&suite, cfg);
        assert_eq!(r1, r4, "reports must match across worker counts");
        let probe = vec![0.25f32; trained_1.config().w * JOB_FEATURES];
        assert_eq!(
            trained_1.dqn().q_values(&probe),
            trained_4.dqn().q_values(&probe),
            "weights must match across worker counts"
        );
    }

    #[test]
    fn a_panicking_rollout_re_raises_the_env_panic() {
        // A queue of W + 3 jobs trips the env's own window check inside
        // a rollout. The caller gets that panic, at any worker count.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let cfg = TrainConfig {
            episodes: 4,
            ..TrainConfig::quick()
        };
        let profiler = Profiler::new(suite.arch().clone(), cfg.profile_noise, cfg.seed);
        let repo = ProfileRepository::for_suite(&suite, &profiler);
        let scaler = FeatureScaler::fit(&repo);
        let catalog = ActionCatalog::paper_29();
        let queues = QueueGenerator::new(cfg.seed).training_queues(&suite, 2, cfg.w + 3);
        let factory = CoScheduleEnvFactory::new(&suite, &repo, &scaler, &catalog, cfg.env_config());
        let (state_dim, n_actions) = env_geometry(&cfg, &catalog);
        for n_workers in [1, 2] {
            let pipeline = PipelineConfig {
                n_workers,
                ..PipelineConfig::from(&cfg)
            };
            let agent = DqnAgent::new(dqn_config(&cfg, state_dim, n_actions));
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(train_env(&factory, agent, &queues, &pipeline));
            }))
            .expect_err("an oversized queue must panic");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(
                message,
                Some("queue larger than the window"),
                "n_workers = {n_workers}"
            );
        }
    }

    #[test]
    fn hierarchical_training_runs_through_the_same_pipeline() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.env = EnvKind::Hierarchical;
        cfg.episodes = 24;
        let (trained, report) = train(&suite, cfg);
        // Two env steps per scheduling decision → more steps than the
        // flat env would take for the same episode count.
        assert!(report.total_steps > 24, "steps {}", report.total_steps);
        // Geometry: 17-action space, widened state.
        assert_eq!(trained.dqn().config().n_actions, 17);
        assert_eq!(
            trained.dqn().config().state_dim,
            trained.config().w * JOB_FEATURES + 1 + 10
        );
        // Greedy decisions deploy through the hierarchical env and stay
        // valid and deterministic.
        let mut gen = QueueGenerator::new(5);
        let queue = gen.category_queue(&suite, "h", 6, hrp_workloads::MixCategory::Balanced, false);
        let d1 = trained.greedy_decision(&suite, &queue);
        let d2 = trained.greedy_decision(&suite, &queue);
        assert_eq!(d1, d2);
        d1.validate(&queue, 4, false).unwrap();
    }

    #[test]
    fn hierarchical_training_invariant_to_worker_count() {
        // The worker-invariance guarantee is a property of the generic
        // pipeline, so it must hold for the second env implementation
        // too.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.env = EnvKind::Hierarchical;
        cfg.episodes = 12;
        cfg.rollout_round = 4;
        cfg.n_workers = 1;
        let (trained_1, r1) = train(&suite, cfg.clone());
        cfg.n_workers = 4;
        let (trained_4, r4) = train(&suite, cfg);
        assert_eq!(r1, r4);
        let dim = trained_1.dqn().config().state_dim;
        let probe = vec![0.25f32; dim];
        assert_eq!(
            trained_1.dqn().q_values(&probe),
            trained_4.dqn().q_values(&probe)
        );
    }
}
