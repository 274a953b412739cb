//! Offline training (paper Fig. 7, left half) as a **generic parallel
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
//! episodes:
//!
//! 1. the learner freezes a [`Learner::Snapshot`] of its policy;
//! 2. up to [`TrainConfig::n_workers`] rollout workers
//!    (`std::thread::scope`) claim the round's episodes from an atomic
//!    queue and step factory-made episodes against the frozen
//!    snapshot, each with an **independent RNG stream seeded from
//!    `(seed, episode)`**, streaming finished episodes through an mpsc
//!    channel;
//! 3. the single learner thread consumes episodes **in episode order**
//!    (buffering out-of-order arrivals), routes their transitions into
//!    the replay shard `episode % shards` (see
//!    [`hrp_nn::ShardedReplay`]), and runs two gradient steps per
//!    environment step — overlapping with the workers still rolling
//!    the rest of the round.
//!
//! With [`TrainConfig::overlap`] **off** (the barrier pipeline), round
//! `r + 1` only starts after round `r` is fully learned, so workers
//! always roll against the freshest weights. With overlap **on**
//! (double-buffered snapshots), round `r + 1` is launched *before* the
//! learner consumes round `r`: its snapshot reflects learning through
//! round `r − 1`, hiding the learner's gradient work behind the next
//! round's rollouts at a **policy staleness of exactly one round** —
//! measured by [`TrainReport::max_snapshot_lag`] (`0` barrier, `1`
//! overlapped) and pinned by the staleness tests.
//!
//! Because every episode's rollout depends only on its round's snapshot
//! (a deterministic function of which rounds were learned at spawn
//! time) and its own seed, and the learner consumes in a fixed order,
//! the trained weights are **bit-identical for any worker count** in
//! both modes: worker parallelism is an execution detail, not a
//! semantic knob. The `overlap`/`shards` pair *is* semantic (one round
//! of staleness, stratified sampling) — which is why the barrier
//! pipeline stays selectable for equivalence testing.
//!
//! [`train`] wires the default pair — [`CoScheduleEnv`] (or
//! [`crate::hierarchy::HierarchicalEnv`] under
//! [`TrainConfig::env`] = [`EnvKind::Hierarchical`]) with [`DqnAgent`] —
//! through [`train_env`]; for the flat pair the redesigned pipeline is
//! bit-for-bit identical to the pre-trait implementation (pinned by
//! `tests/golden_train.rs`).

use crate::actions::ActionCatalog;
use crate::env::{CoScheduleEnv, CoScheduleEnvFactory, EnvConfig, JOB_FEATURES};
use crate::hierarchy::{HierarchicalCatalog, HierarchicalEnv, HierarchicalEnvFactory};
use crate::par::resolve_threads;
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
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Training configuration.
///
/// [`TrainConfig::paper`] is the paper's Table VI setup with the
/// conservative pipeline (barrier rounds, single replay ring);
/// [`TrainConfig::quick`] shrinks it for tests. The scaling knobs
/// compose freely:
///
/// ```
/// use hrp_core::train::TrainConfig;
///
/// let cfg = TrainConfig {
///     n_workers: 4,  // execution detail: results identical for any value
///     overlap: true, // semantic: one round of policy staleness
///     shards: 4,     // semantic: stratified sampling over 4 rings
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
    /// Engine overheads during training runs.
    pub engine: EngineConfig,
    /// Final ε of the exploration schedule (paper: 0.01).
    pub eps_end: f64,
    /// Rollout worker threads (`0` = available parallelism). Changes
    /// wall-clock only — results are identical for any value.
    pub n_workers: usize,
    /// Episodes rolled out against one weight snapshot. Part of the
    /// training semantics (unlike `n_workers`): it bounds both policy
    /// staleness and the worker parallelism usable per round.
    pub rollout_round: usize,
    /// Overlap training rounds (double-buffered snapshots): roll round
    /// `r + 1` against the weights learned through round `r − 1` while
    /// the learner consumes round `r`. Hides learner latency behind
    /// rollouts at a fixed policy staleness of exactly one round; `false`
    /// keeps the hard rollout/learn barrier (the PR 1 pipeline).
    pub overlap: bool,
    /// Replay shards ([`hrp_nn::ShardedReplay`]): transitions are routed
    /// by episode index and minibatches drawn stratified across shards.
    /// `1` reproduces the single-ring sampling bit-for-bit; values `> 1`
    /// change the sampling schedule (semantic, like `overlap`) but stay
    /// invariant to the worker count.
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
            engine: EngineConfig::default(),
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
    /// Double-buffered rounds (one round of policy staleness).
    pub overlap: bool,
    /// Replay shards (episode-index routed).
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
            shards: cfg.shards.max(1),
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
    pub fn greedy_decision(
        &self,
        suite: &Suite,
        queue: &JobQueue,
        engine: &EngineConfig,
    ) -> ScheduleDecision {
        let mut env_cfg = self.cfg.env_config();
        env_cfg.engine = engine.clone();
        let flat = CoScheduleEnv::new(
            suite,
            queue,
            &self.repo,
            &self.scaler,
            &self.catalog,
            env_cfg,
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
    /// Maximum observed policy staleness, in rounds: for each round, how
    /// many rounds had been *rolled out but not yet learned* when its
    /// snapshot was frozen. `0` for the barrier pipeline, exactly `1`
    /// for [`TrainConfig::overlap`] (from the second round on).
    pub max_snapshot_lag: usize,
}

/// A completed rollout, queued for the learner.
struct EpisodeResult {
    transitions: Vec<Transition>,
    ep_return: f64,
    rfs: Vec<f64>,
}

/// An in-flight rollout round: its episode stream plus identity. In
/// overlap mode one of these is pending while the next round's workers
/// are already rolling.
struct InflightRound {
    rx: mpsc::Receiver<(usize, EpisodeResult)>,
    start: usize,
    len: usize,
}

/// The learner's mutable accumulators. Only the training thread touches
/// them; rollout workers communicate exclusively through the round
/// channel, so consumption order — and therefore every weight update —
/// is a pure function of the episode stream.
struct LearnerState<L: Learner> {
    learner: L,
    shards: usize,
    step_count: u64,
    returns: Vec<f64>,
    rf_hist: Vec<(usize, f64)>,
}

impl<L: Learner> LearnerState<L> {
    /// Drain one round: consume episodes **in episode order** (buffering
    /// out-of-order arrivals), route transitions to replay shard
    /// `episode % shards`, and take two gradient steps per environment
    /// step.
    fn consume(&mut self, round: InflightRound) {
        let mut stash: BTreeMap<usize, EpisodeResult> = BTreeMap::new();
        let mut next_to_learn = round.start;
        for (ep, result) in round.rx {
            stash.insert(ep, result);
            while let Some(result) = stash.remove(&next_to_learn) {
                for (t, rf) in result.transitions.into_iter().zip(result.rfs) {
                    self.rf_hist.push((next_to_learn, rf));
                    self.learner.remember_to(next_to_learn % self.shards, t);
                    // Two gradient steps per environment step: co-runs
                    // are expensive to "measure", gradients are cheap.
                    self.learner.learn();
                    self.learner.learn();
                    self.step_count += 1;
                }
                self.returns.push(result.ep_return);
                next_to_learn += 1;
            }
        }
        assert!(stash.is_empty(), "rollout worker lost an episode");
        assert_eq!(next_to_learn, round.start + round.len);
    }
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
/// invariance, barrier/overlap staleness bounds, episode-order
/// learning — hold for any pair.
///
/// Returns the learner (now trained) plus the [`TrainReport`].
///
/// # Panics
/// Panics if `ctxs` is empty or a rollout worker panics
/// (environment invariant violation).
pub fn train_env<F: EnvFactory, L: Learner>(
    factory: &F,
    learner: L,
    ctxs: &[F::Ctx],
    cfg: &PipelineConfig,
) -> (L, TrainReport) {
    assert!(!ctxs.is_empty(), "need at least one training context");
    // ε decays over the first ~half of the expected steps, leaving the
    // rest for near-greedy fine-tuning.
    let expected_steps = (cfg.episodes * factory.episode_steps_hint() / 2).max(1) as u64;
    let eps = EpsilonSchedule {
        start: 1.0,
        end: cfg.eps_end,
        decay_steps: expected_steps / 2,
    };

    let round_len_cfg = cfg.rollout_round.max(1);
    let workers = resolve_threads(cfg.n_workers);
    let shards = cfg.shards.max(1);
    let mut learner = LearnerState {
        learner,
        shards,
        step_count: 0,
        returns: Vec::with_capacity(cfg.episodes),
        rf_hist: Vec::new(),
    };
    let mut max_snapshot_lag = 0usize;

    // One scope spans all rounds so that, in overlap mode, the workers
    // of round r + 1 can already be rolling while round r is consumed.
    // Snapshots and the episode queue are Arc'd because two rounds'
    // workers are alive at once.
    std::thread::scope(|scope| {
        let mut inflight: Option<InflightRound> = None;
        let mut spawned_rounds = 0usize;
        let mut learned_rounds = 0usize;
        let mut round_start = 0usize;
        while round_start < cfg.episodes {
            let round_len = round_len_cfg.min(cfg.episodes - round_start);
            if !cfg.overlap {
                // Barrier pipeline: finish learning the previous round
                // before freezing this round's snapshot.
                if let Some(prev) = inflight.take() {
                    learner.consume(prev);
                    learned_rounds += 1;
                }
            }

            // Freeze the snapshot the round's workers act against. In
            // overlap mode the previous round is still unlearned here,
            // so the snapshot lags by exactly one round.
            let snapshot = Arc::new(learner.learner.snapshot());
            max_snapshot_lag = max_snapshot_lag.max(spawned_rounds - learned_rounds);

            let base_step = learner.step_count;
            let next_episode = Arc::new(AtomicUsize::new(0));
            let (tx, rx) = mpsc::channel::<(usize, EpisodeResult)>();
            for _ in 0..workers.min(round_len) {
                let tx = tx.clone();
                let next_episode = Arc::clone(&next_episode);
                let snapshot = Arc::clone(&snapshot);
                let eps = &eps;
                let seed = cfg.seed;
                scope.spawn(move || loop {
                    let k = next_episode.fetch_add(1, Ordering::Relaxed);
                    if k >= round_len {
                        break;
                    }
                    let ep = round_start + k;
                    let result = rollout_episode(
                        factory,
                        &ctxs[ep % ctxs.len()],
                        &*snapshot,
                        eps,
                        base_step,
                        episode_rng(seed, ep),
                    );
                    // The learner outlives the workers inside this
                    // scope, so the send only fails on learner panic.
                    let _ = tx.send((ep, result));
                });
            }
            drop(tx);
            let this = InflightRound {
                rx,
                start: round_start,
                len: round_len,
            };
            spawned_rounds += 1;

            if cfg.overlap {
                // Double buffering: learn the previous round while this
                // round's workers roll against their (one-round-stale)
                // snapshot.
                if let Some(prev) = inflight.take() {
                    learner.consume(prev);
                    learned_rounds += 1;
                }
            }
            inflight = Some(this);
            round_start += round_len;
        }
        if let Some(last) = inflight.take() {
            learner.consume(last);
        }
    });
    let LearnerState {
        learner,
        step_count,
        returns,
        rf_hist,
        ..
    } = learner;

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
        max_snapshot_lag,
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
        shards: cfg.shards.max(1),
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
/// on every machine and for every [`TrainConfig::n_workers`] value;
/// [`TrainConfig::overlap`] and [`TrainConfig::shards`] change the
/// result (deterministically) because staleness and sampling order are
/// training semantics.
///
/// ```no_run
/// use hrp_core::train::{train, TrainConfig};
/// use hrp_gpusim::GpuArch;
/// use hrp_workloads::Suite;
///
/// let suite = Suite::paper_suite(&GpuArch::a100());
/// let cfg = TrainConfig {
///     overlap: true,
///     shards: 4,
///     ..TrainConfig::quick()
/// };
/// let (trained, report) = train(&suite, cfg);
/// assert!(report.max_snapshot_lag <= 1);
/// assert!(trained.dqn().learn_steps() > 0);
/// ```
///
/// # Panics
/// Panics if a rollout worker panics (environment invariant violation).
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
        let engine = EngineConfig::default();
        let d1 = trained.greedy_decision(&suite, &queue, &engine);
        let d2 = trained.greedy_decision(&suite, &queue, &engine);
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
    fn overlapped_training_invariant_to_worker_count() {
        // The double-buffered pipeline keeps the same guarantee: with
        // overlap on and sharded replay, weights are still bit-identical
        // for any worker count.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.episodes = 16;
        cfg.rollout_round = 4;
        cfg.overlap = true;
        cfg.shards = 4;
        cfg.n_workers = 1;
        let (trained_1, r1) = train(&suite, cfg.clone());
        cfg.n_workers = 4;
        let (trained_4, r4) = train(&suite, cfg);
        assert_eq!(r1, r4, "overlap reports must match across worker counts");
        let probe = vec![0.25f32; trained_1.config().w * JOB_FEATURES];
        assert_eq!(
            trained_1.dqn().q_values(&probe),
            trained_4.dqn().q_values(&probe),
            "overlap weights must match across worker counts"
        );
    }

    #[test]
    fn single_round_overlap_equals_barrier_exactly() {
        // With everything in one round there is no previous round to
        // overlap with, so the two pipelines must coincide bit-for-bit —
        // the code-path equivalence check between overlap=true and the
        // PR 1 barrier pipeline.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.episodes = 8;
        cfg.rollout_round = 8;
        cfg.overlap = false;
        let (trained_b, rb) = train(&suite, cfg.clone());
        cfg.overlap = true;
        let (trained_o, ro) = train(&suite, cfg);
        assert_eq!(rb, ro);
        let probe = vec![0.25f32; trained_b.config().w * JOB_FEATURES];
        assert_eq!(
            trained_b.dqn().q_values(&probe),
            trained_o.dqn().q_values(&probe)
        );
    }

    #[test]
    fn snapshot_staleness_is_exactly_one_round_under_overlap() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.episodes = 24;
        cfg.rollout_round = 8;
        cfg.overlap = false;
        let (_, barrier) = train(&suite, cfg.clone());
        assert_eq!(barrier.max_snapshot_lag, 0, "barrier must never lag");
        cfg.overlap = true;
        let (_, overlapped) = train(&suite, cfg);
        assert_eq!(
            overlapped.max_snapshot_lag, 1,
            "overlap staleness is bounded at exactly one round"
        );
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
        let engine = EngineConfig::default();
        let d1 = trained.greedy_decision(&suite, &queue, &engine);
        let d2 = trained.greedy_decision(&suite, &queue, &engine);
        assert_eq!(d1, d2);
        d1.validate(&queue, 4, false).unwrap();
    }

    #[test]
    fn hierarchical_training_invariant_to_worker_count() {
        // The worker-invariance guarantee is a property of the generic
        // pipeline, so it must hold for the second env implementation
        // too — including under overlap + shards.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = TrainConfig::quick();
        cfg.env = EnvKind::Hierarchical;
        cfg.episodes = 12;
        cfg.rollout_round = 4;
        cfg.overlap = true;
        cfg.shards = 2;
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
