//! Delegating wrappers that put a span around each public layer
//! boundary: one per trait the workspace lets a caller implement.
//! Every wrapper forwards its arguments and results untouched, so a
//! traced run produces the digests and weights of a bare run (the
//! tests in `tests/transparent.rs` hold them to that).

use crate::tracer::{enter, Span};
use hrp::cluster::sim::{Dispatcher, Placement};
use hrp::cluster::ClusterJob;
use hrp::core::env::StepResult;
use hrp::core::{Env, EnvFactory, GreedyPolicy, Learner, NodeLoad, NodeSelector, SnapshotPolicy};
use hrp::nn::{ActionScratch, DqnAgent, Transition};
use hrp::serve::{ArrivalSource, SourcePoll};
use hrp::workloads::Suite;
use rand::rngs::SmallRng;
use std::time::Instant;

/// `serve.source.poll` around an [`ArrivalSource`].
pub struct TimedSource<S>(pub S);

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn poll(&mut self) -> SourcePoll {
        let _g = enter(Span::SourcePoll);
        self.0.poll()
    }

    fn consumed(&self) -> usize {
        self.0.consumed()
    }

    fn checkpoint_spec(&self) -> Option<Vec<(&'static str, String)>> {
        self.0.checkpoint_spec()
    }
}

/// A span around [`NodeSelector::select`]: `cluster.select.select` for
/// the heuristic tiers, `core.cluster_env.encode` for a policy selector
/// (whose inference is the child span [`TimedGreedy`] records, leaving
/// the fit mask and the state encoding as self time).
pub struct TimedSelector<S> {
    inner: S,
    span: Span,
}

impl<S: NodeSelector> TimedSelector<S> {
    /// Wrap a heuristic selector.
    pub fn heuristic(inner: S) -> Self {
        Self {
            inner,
            span: Span::SelectSelect,
        }
    }

    /// Wrap a policy selector built over a [`TimedGreedy`].
    pub fn policy(inner: S) -> Self {
        Self {
            inner,
            span: Span::StateEncode,
        }
    }
}

impl<S: NodeSelector> NodeSelector for TimedSelector<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, gpus: usize, work: f64, loads: &[NodeLoad]) -> usize {
        let _g = enter(self.span);
        self.inner.select(gpus, work, loads)
    }
}

/// `nn.infer.greedy` around a deployed [`GreedyPolicy`].
pub struct TimedGreedy<P>(pub P);

impl<P: GreedyPolicy> GreedyPolicy for TimedGreedy<P> {
    fn greedy(&mut self, state: &[f32], mask: u64) -> usize {
        let _g = enter(Span::InferGreedy);
        self.0.greedy(state, mask)
    }
}

/// A span around [`Dispatcher::next_placement`], named after the
/// dispatcher family (`cluster.cosched.*` or `cluster.backfill.*`).
#[derive(Clone)]
pub struct TimedDispatcher<D> {
    inner: D,
    span: Span,
}

impl<D: Dispatcher> TimedDispatcher<D> {
    /// Wrap `inner`, recording its placements under `span`.
    pub fn new(inner: D, span: Span) -> Self {
        Self { inner, span }
    }
}

impl<D: Dispatcher> Dispatcher for TimedDispatcher<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        let _g = enter(self.span);
        self.inner.next_placement(suite, waiting, free_gpus, now)
    }

    fn next_wakeup(&self, now: f64) -> Option<f64> {
        self.inner.next_wakeup(now)
    }
}

/// `core.rl.make_env` around an [`EnvFactory`]; the envs it makes are
/// [`TimedEnv`]s.
pub struct TimedFactory<F>(pub F);

impl<F: EnvFactory> EnvFactory for TimedFactory<F> {
    type Ctx = F::Ctx;
    type Env<'e>
        = TimedEnv<F::Env<'e>>
    where
        Self: 'e;

    fn make<'e>(&'e self, ctx: &'e Self::Ctx) -> Self::Env<'e> {
        let _g = enter(Span::MakeEnv);
        TimedEnv(self.0.make(ctx))
    }

    fn state_dim(&self) -> usize {
        self.0.state_dim()
    }

    fn n_actions(&self) -> usize {
        self.0.n_actions()
    }

    fn episode_steps_hint(&self) -> usize {
        self.0.episode_steps_hint()
    }
}

/// `core.env.step` and `core.env.state` around an [`Env`].
pub struct TimedEnv<E>(pub E);

impl<E: Env> Env for TimedEnv<E> {
    type Decision = E::Decision;

    fn state_dim(&self) -> usize {
        self.0.state_dim()
    }

    fn n_actions(&self) -> usize {
        self.0.n_actions()
    }

    fn done(&self) -> bool {
        self.0.done()
    }

    fn state_into(&self, out: &mut Vec<f32>) {
        let _g = enter(Span::EnvState);
        self.0.state_into(out);
    }

    fn valid_mask(&self) -> u64 {
        let _g = enter(Span::EnvState);
        self.0.valid_mask()
    }

    fn step(&mut self, action: usize) -> StepResult {
        let _g = enter(Span::EnvStep);
        self.0.step(action)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn into_decision(self) -> Self::Decision {
        self.0.into_decision()
    }
}

/// `core.rl.act` around a frozen behaviour policy.
pub struct TimedSnapshot<P>(pub P);

impl<P: SnapshotPolicy> SnapshotPolicy for TimedSnapshot<P> {
    fn select_action(&self, state: &[f32], mask: u64, epsilon: f64, rng: &mut SmallRng) -> usize {
        let _g = enter(Span::Act);
        self.0.select_action(state, mask, epsilon, rng)
    }

    fn select_action_with(
        &self,
        state: &[f32],
        mask: u64,
        epsilon: f64,
        rng: &mut SmallRng,
        scratch: &mut ActionScratch,
    ) -> usize {
        let _g = enter(Span::Act);
        self.0
            .select_action_with(state, mask, epsilon, rng, scratch)
    }
}

/// The learner the training workload hands to `train_env`: a
/// [`DqnAgent`] whose `learn` calls are timed one by one (the
/// workload's operation, timed from the caller's side like a service
/// `step`), with `nn.dqn.learn`, `nn.replay.remember` and
/// `core.rl.snapshot` spans around the three calls the pipeline makes.
pub struct TimedLearner {
    agent: DqnAgent,
    /// Duration of every `learn` that took a gradient step, µs.
    pub ops_us: Vec<f64>,
    /// `learn` calls made before the replay held a batch: counted,
    /// not timed, because they return at once.
    pub noop_learns: u64,
}

impl TimedLearner {
    /// Time `agent`'s learning steps.
    #[must_use]
    pub fn new(agent: DqnAgent) -> Self {
        Self {
            agent,
            ops_us: Vec::new(),
            noop_learns: 0,
        }
    }

    /// The wrapped agent.
    #[must_use]
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }
}

impl Learner for TimedLearner {
    type Snapshot = TimedSnapshot<<DqnAgent as Learner>::Snapshot>;

    fn snapshot(&self) -> Self::Snapshot {
        let _g = enter(Span::Snapshot);
        TimedSnapshot(Learner::snapshot(&self.agent))
    }

    fn select_action(&mut self, state: &[f32], mask: u64, epsilon: f64) -> usize {
        self.agent.select_action(state, mask, epsilon)
    }

    fn greedy_action(&self, state: &[f32], mask: u64) -> usize {
        self.agent.greedy_action(state, mask)
    }

    fn remember_to(&mut self, shard: usize, t: Transition) {
        let _g = enter(Span::Remember);
        self.agent.remember_to(shard, t);
    }

    fn learn(&mut self) {
        let _g = enter(Span::Learn);
        let started = Instant::now();
        if self.agent.learn().is_some() {
            self.ops_us.push(started.elapsed().as_secs_f64() * 1e6);
        } else {
            self.noop_learns += 1;
        }
    }
}
