//! RL-trained node placement: an [`Env`]-implementing [`ClusterEnv`]
//! whose rewards come from the **real multi-node simulation**, plus the
//! training, deployment, and `HRPP` checkpoint wiring around it. This
//! module is placement *learning* only: what a selector kind means for
//! the nodes under it, the policy kind included, is
//! [`crate::select`]'s.
//!
//! The PR-4 placement environment was a stub: its "load" was synthetic
//! accumulation (assigned work never drained) and its reward a
//! load-balance shaping term. This module closes the loop the paper's
//! §VI sketches: every episode replays a job trace through the exact
//! [`ClusterDrive`] cycle the evaluation simulator
//! ([`crate::multinode::MultiNodeSim`]) runs, so the states the agent
//! learns from are realized [`NodeLoad`] snapshots (running placements
//! drain, co-scheduling speedups show up, queues clear) and the
//! terminal signal is the realized cluster makespan.
//!
//! # Reward definition
//!
//! A step places the episode's next job on node `a` at its arrival
//! instant, against the barrier load snapshot `L` (updated
//! incrementally within a burst, exactly as a [`NodeSelector`](crate::NodeSelector) would
//! see it):
//!
//! * **Per-decision queue-delay delta** `r_i = (best − chosen) / norm`
//!   where `chosen = L[a].outstanding / L[a].total_gpus` is the
//!   realized queue-delay estimate the job faces on the chosen node,
//!   `best` is the minimum of that quantity over the nodes that can
//!   host the job, and `norm` is `1 +` the trace's mean solo time.
//!   `r_i ≤ 0`, and `0` exactly when the choice is (one of) the
//!   realized-least-loaded nodes — the greedy heuristic is the
//!   zero-regret point of the shaping term, but the loads it is
//!   measured against come from the live simulation, not synthetic
//!   accumulation.
//! * **Terminal makespan bonus** `r_f = RF_WEIGHT × bound / makespan`,
//!   paid on the last placement after the cluster drains: `makespan`
//!   is the realized [`MultiNodeReport`] makespan and `bound` the
//!   perfect-balance lower bound (total GPU-seconds over cluster
//!   GPUs). This is the signal that can push the policy *past*
//!   least-loaded: a placement that looks locally worse but shortens
//!   the realized schedule pays off here.
//!
//! Because the environment consults [`ClusterDrive::loads`] — the same
//! snapshots [`MultiNodeSim::run`](crate::multinode::MultiNodeSim::run)
//! hands a [`NodeSelector`](crate::NodeSelector) — a greedy rollout of a trained agent
//! through [`ClusterEnv`] produces **identical placements** to
//! deploying that agent as a [`PolicySelector`] inside the simulator
//! (asserted in this module's tests and pinned by
//! `tests/golden_placement.rs`). An episode's nodes are
//! [`dispatcher_for`]`(SelectorKind::Policy, ..)`, the nodes a policy
//! service places onto, so an agent is trained through exactly the
//! windows it is served through; the state is
//! [`placement_state_dim`]`(N)` floats wide.
//!
//! # Training and deployment
//!
//! [`train_placement`] runs the generic rollout/learner pipeline
//! ([`train_env`]) over seed-derived traces from the
//! [`crate::trace`] generator suite, with the worker-count invariance
//! that pipeline guarantees. A [`PlacementConfig`] holds what callers
//! vary: the cluster, the training traces, the episode count, the
//! network widths, the seed and the worker count. Everything else —
//! the DQN knobs, the reward weight and the rollout round — is a
//! constant of this module, and the node window one of
//! [`crate::select`]. The result is a [`PlacementAgent`]:
//! [`PlacementAgent::selector`] turns it into a drop-in
//! [`NodeSelector`](crate::NodeSelector), and [`PlacementAgent::save_bytes`] /
//! [`PlacementExperiment::load_bytes`] checkpoint spec + weights as an
//! `HRPP` blob on the shared codec ([`hrp_nn::serialize`]), reloading
//! to bit-identical placements.

use crate::job::ClusterJob;
use crate::multinode::{ClusterDrive, MultiNodeReport, MAX_GPUS_PER_NODE, MAX_NODES};
use crate::select::{dispatcher_for, NodeDispatcher, SelectorKind};
use crate::trace::{self, TraceConfig, TraceKind};
use hrp_core::cluster_env::{
    encode_placement_state, placement_fit_mask, placement_state_dim, NodeLoad, PolicySelector,
};
use hrp_core::env::StepResult;
use hrp_core::experiment::CheckpointError;
use hrp_core::rl::{greedy_rollout, DqnSnapshot, Env, EnvFactory, Learner};
use hrp_core::train::{train_env, PipelineConfig, TrainReport};
use hrp_gpusim::rng::split_seed;
use hrp_nn::net::Head;
use hrp_nn::serialize::{load_agent, save_weights, Reader, Spec, SpecWriter, Writer};
use hrp_nn::{DqnAgent, DqnConfig};
use hrp_workloads::Suite;

/// Magic prefix for placement checkpoints (the cluster-tier sibling of
/// `hrp-core`'s `HRPE`).
const MAGIC: &str = "HRPP";
/// Checkpoint format version.
const VERSION: u32 = 3;

/// Discount factor.
const GAMMA: f32 = 0.98;
/// Adam learning rate.
const LR: f32 = 1e-3;
/// Mini-batch size.
const BATCH_SIZE: usize = 32;
/// Target-network sync period (learning steps).
const TARGET_SYNC_EVERY: u64 = 200;
/// Replay capacity.
const BUFFER_CAPACITY: usize = 20_000;
/// Final ε of the exploration schedule.
const EPS_END: f64 = 0.02;
/// Terminal makespan-bonus weight (see the [module docs](self)).
const RF_WEIGHT: f64 = 0.5;
/// Episodes rolled out per weight snapshot.
const ROLLOUT_ROUND: usize = 8;

/// What a drained placement episode yields: the assignment vector plus
/// the realized simulation report (the makespan the terminal reward was
/// computed from).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementOutcome {
    /// One node id per trace job, in arrival order.
    pub assignment: Vec<usize>,
    /// The drained cluster report (`None` only if the episode was
    /// consumed before completion).
    pub report: Option<MultiNodeReport>,
}

/// One placement episode as an [`Env`]: route each job of a (sorted)
/// trace to one of `N` identical nodes, with rewards from the realized
/// simulation — see the [module docs](self) for the exact definition.
///
/// * **State** — [`encode_placement_state`] over the live
///   [`ClusterDrive::loads`] snapshots and the arriving job
///   ([`placement_state_dim`] floats; all-zero job features once
///   drained).
/// * **Action** — the node id (`N` actions; the mask drops nodes too
///   small for the job, so placement never dead-ends).
/// * **Decision** — a [`PlacementOutcome`].
pub struct ClusterEnv<'a> {
    suite: &'a Suite,
    trace: &'a [ClusterJob],
    nodes: usize,
    gpus_per_node: usize,
    /// Reward normaliser: `1 +` mean job solo time.
    norm: f64,
    /// Perfect-balance makespan lower bound (total GPU-seconds over
    /// cluster GPUs).
    bound: f64,
    drive: ClusterDrive<'a, NodeDispatcher>,
    pos: usize,
    assignment: Vec<usize>,
    report: Option<MultiNodeReport>,
}

/// A fresh cluster of `nodes` policy-tier nodes at time 0, reserved for
/// `trace` and advanced to its first arrival.
fn episode_drive<'a>(
    suite: &'a Suite,
    nodes: usize,
    gpus_per_node: usize,
    trace: &[ClusterJob],
) -> ClusterDrive<'a, NodeDispatcher> {
    let mut drive = ClusterDrive::new(suite, nodes, gpus_per_node, |_| {
        dispatcher_for(SelectorKind::Policy, gpus_per_node, 0.0)
    });
    drive.reserve_jobs(trace.len());
    drive.advance_to(trace[0].arrival);
    drive
}

impl<'a> ClusterEnv<'a> {
    /// A placement episode over `nodes` identical nodes of
    /// `gpus_per_node` GPUs, each running the policy tier's dispatcher
    /// ([`dispatcher_for`]). `trace` must be non-empty, sorted by
    /// arrival, and fit the nodes.
    ///
    /// # Panics
    /// Panics if `trace` is empty or unsorted, if `nodes` is outside
    /// `1..=64`, or if any job cannot fit on a node.
    pub fn new(
        suite: &'a Suite,
        nodes: usize,
        gpus_per_node: usize,
        trace: &'a [ClusterJob],
    ) -> Self {
        assert!(!trace.is_empty(), "a placement episode needs jobs");
        assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace must be sorted by arrival"
        );
        for j in trace {
            assert!(
                j.gpus >= 1 && usize::from(j.gpus) <= gpus_per_node,
                "job {} needs {} GPUs but nodes have {gpus_per_node}",
                j.id,
                j.gpus
            );
        }
        let total_work: f64 = trace.iter().map(|j| j.solo_time(suite)).sum();
        let gpu_seconds: f64 = trace
            .iter()
            .map(|j| j.solo_time(suite) * f64::from(j.gpus))
            .sum();
        Self {
            suite,
            trace,
            nodes,
            gpus_per_node,
            norm: 1.0 + total_work / trace.len() as f64,
            bound: gpu_seconds / (nodes * gpus_per_node) as f64,
            drive: episode_drive(suite, nodes, gpus_per_node, trace),
            pos: 0,
            assignment: Vec::with_capacity(trace.len()),
            report: None,
        }
    }

    /// The live load snapshots the next decision is made against.
    #[must_use]
    pub fn loads(&self) -> &[NodeLoad] {
        self.drive.loads()
    }
}

impl Env for ClusterEnv<'_> {
    type Decision = PlacementOutcome;

    fn state_dim(&self) -> usize {
        placement_state_dim(self.nodes)
    }

    fn n_actions(&self) -> usize {
        self.nodes
    }

    fn done(&self) -> bool {
        self.pos == self.trace.len()
    }

    fn state_into(&self, out: &mut Vec<f32>) {
        let (gpus, work) = self
            .trace
            .get(self.pos)
            .map_or((0, 0.0), |j| (usize::from(j.gpus), j.solo_time(self.suite)));
        encode_placement_state(self.drive.loads(), gpus, work, out);
    }

    fn valid_mask(&self) -> u64 {
        if self.done() {
            return 0;
        }
        placement_fit_mask(self.drive.loads(), usize::from(self.trace[self.pos].gpus))
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(!self.done(), "step on a drained placement episode");
        let mask = self.valid_mask();
        assert!(
            action < self.nodes && (mask >> action) & 1 == 1,
            "node {action} is not a valid placement"
        );
        let job = self.trace[self.pos].clone();
        let loads = self.drive.loads();
        let best = loads
            .iter()
            .filter(|l| l.total_gpus >= usize::from(job.gpus))
            .map(NodeLoad::per_gpu_outstanding)
            .fold(f64::INFINITY, f64::min);
        let ri = (best - loads[action].per_gpu_outstanding()) / self.norm;
        self.drive.place(action, job);
        self.assignment.push(action);
        self.pos += 1;
        if self.pos < self.trace.len() {
            let next = self.trace[self.pos].arrival;
            if next.total_cmp(&self.trace[self.pos - 1].arrival).is_ne() {
                self.drive.advance_to(next);
            }
            StepResult {
                reward: ri,
                done: false,
                rf: 0.0,
                ri_mean: ri,
            }
        } else {
            let report = self.drive.finish();
            let makespan = report.aggregate.makespan;
            let rf = RF_WEIGHT * self.bound / makespan.max(f64::MIN_POSITIVE);
            self.report = Some(report);
            StepResult {
                reward: ri + rf,
                done: true,
                rf,
                ri_mean: ri,
            }
        }
    }

    fn reset(&mut self) {
        self.drive = episode_drive(self.suite, self.nodes, self.gpus_per_node, self.trace);
        self.pos = 0;
        self.assignment.clear();
        self.report = None;
    }

    fn into_decision(self) -> PlacementOutcome {
        PlacementOutcome {
            assignment: self.assignment,
            report: self.report,
        }
    }
}

/// Stamps out [`ClusterEnv`] episodes over job traces: the
/// episode-invariant pieces (suite, cluster geometry) behind the
/// [`EnvFactory`] interface, so [`train_env`] runs placement training
/// with zero pipeline changes.
pub struct PlacementEnvFactory<'a> {
    suite: &'a Suite,
    nodes: usize,
    gpus_per_node: usize,
    steps_hint: usize,
}

impl<'a> PlacementEnvFactory<'a> {
    /// Bundle the episode-invariant state. `steps_hint` is the expected
    /// jobs per trace (scales the ε-decay schedule).
    #[must_use]
    pub fn new(suite: &'a Suite, nodes: usize, gpus_per_node: usize, steps_hint: usize) -> Self {
        Self {
            suite,
            nodes,
            gpus_per_node,
            steps_hint,
        }
    }
}

impl EnvFactory for PlacementEnvFactory<'_> {
    type Ctx = Vec<ClusterJob>;

    type Env<'e>
        = ClusterEnv<'e>
    where
        Self: 'e;

    fn make<'e>(&'e self, trace: &'e Vec<ClusterJob>) -> ClusterEnv<'e> {
        ClusterEnv::new(self.suite, self.nodes, self.gpus_per_node, trace)
    }

    fn state_dim(&self) -> usize {
        placement_state_dim(self.nodes)
    }

    fn n_actions(&self) -> usize {
        self.nodes
    }

    fn episode_steps_hint(&self) -> usize {
        self.steps_hint
    }
}

/// Placement-training configuration: cluster geometry, the training
/// trace family, and the training knobs callers vary (the rest are
/// constants of this module; see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Simulated nodes (= action-space size).
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// The training-trace family; episode `e` replays trace
    /// `e % n_traces`, generated with a seed derived from
    /// `trace.seed` (see [`training_traces`]).
    pub trace: TraceConfig,
    /// Number of distinct training traces.
    pub n_traces: usize,
    /// Training episodes.
    pub episodes: usize,
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Master seed (weights, ε draws, per-episode RNG streams).
    pub seed: u64,
    /// Rollout worker threads (execution detail; results identical for
    /// any value).
    pub n_workers: usize,
}

impl PlacementConfig {
    /// The evaluation-scale default: a 4-node × 2-GPU cluster trained
    /// on 32-job skewed traces.
    #[must_use]
    pub fn default_cfg() -> Self {
        Self {
            nodes: 4,
            gpus_per_node: 2,
            trace: TraceConfig::new(TraceKind::Skewed, 32, 42),
            n_traces: 12,
            episodes: 600,
            hidden: vec![64, 32],
            seed: 42,
            n_workers: 0,
        }
    }

    /// A small configuration for tests and `--quick` smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            episodes: 240,
            n_traces: 6,
            hidden: vec![32, 16],
            ..Self::default_cfg()
        }
    }

    /// The [`DqnConfig`] this placement geometry induces (shared by
    /// training and checkpoint loading, so a reloaded agent always has
    /// the trained shape).
    #[must_use]
    pub fn dqn_config(&self) -> DqnConfig {
        DqnConfig {
            state_dim: placement_state_dim(self.nodes),
            n_actions: self.nodes,
            hidden: self.hidden.clone(),
            gamma: GAMMA,
            lr: LR,
            batch_size: BATCH_SIZE,
            target_sync_every: TARGET_SYNC_EVERY,
            buffer_capacity: BUFFER_CAPACITY,
            shards: 1,
            huber_delta: 1.0,
            double: true,
            head: Head::Dueling,
            seed: self.seed,
        }
    }
}

/// Generate the config's training-trace family: `n_traces` traces of
/// the configured kind/size, seeds derived via [`split_seed`].
#[must_use]
pub fn training_traces(suite: &Suite, cfg: &PlacementConfig) -> Vec<Vec<ClusterJob>> {
    (0..cfg.n_traces.max(1))
        .map(|i| {
            let tc = cfg
                .trace
                .clone()
                .seed(split_seed(cfg.trace.seed, i))
                .max_gpus(cfg.gpus_per_node);
            trace::generate(suite, &tc)
        })
        .collect()
}

/// Train a placement agent end-to-end through the generic
/// rollout/learner pipeline: episodes replay seed-derived traces
/// through the simulation-backed [`ClusterEnv`], the learner is a
/// plain [`DqnAgent`] over the [`placement_state_dim`]-wide placement
/// state. Bit-identical for any [`PlacementConfig::n_workers`] value.
#[must_use]
pub fn train_placement(suite: &Suite, cfg: PlacementConfig) -> (PlacementAgent, TrainReport) {
    let traces = training_traces(suite, &cfg);
    let factory = PlacementEnvFactory::new(suite, cfg.nodes, cfg.gpus_per_node, cfg.trace.jobs);
    let agent = DqnAgent::new(cfg.dqn_config());
    let pipeline = PipelineConfig {
        episodes: cfg.episodes,
        seed: cfg.seed,
        eps_end: EPS_END,
        n_workers: cfg.n_workers,
        rollout_round: ROLLOUT_ROUND,
        overlap: false,
        shards: 1,
    };
    let (agent, report) = train_env(&factory, agent, &traces, &pipeline);
    (PlacementAgent { agent, cfg }, report)
}

/// A trained (or freshly initialised) placement agent: the DQN plus
/// the config that shaped it.
pub struct PlacementAgent {
    agent: DqnAgent,
    cfg: PlacementConfig,
}

impl PlacementAgent {
    /// An *untrained* agent of this geometry (deterministic initial
    /// weights from the config seed) — useful as a property-test
    /// selector and as the pre-training baseline.
    #[must_use]
    pub fn untrained(cfg: PlacementConfig) -> Self {
        Self {
            agent: DqnAgent::new(cfg.dqn_config()),
            cfg,
        }
    }

    /// The configuration used.
    #[must_use]
    pub fn config(&self) -> &PlacementConfig {
        &self.cfg
    }

    /// The underlying DQN (weight export, inspection).
    #[must_use]
    pub fn dqn(&self) -> &DqnAgent {
        &self.agent
    }

    /// Freeze the policy into a drop-in [`NodeSelector`](crate::NodeSelector) for
    /// [`crate::multinode::MultiNodeSim`] — greedy, deterministic, and
    /// placement-identical to a greedy [`ClusterEnv`] rollout.
    #[must_use]
    pub fn selector(&self) -> PolicySelector<DqnSnapshot> {
        PolicySelector::new(Learner::snapshot(&self.agent))
    }

    /// Greedy (ε = 0) rollout of one placement episode over `trace` —
    /// the assignment vector plus the realized simulation report.
    ///
    /// # Panics
    /// Panics if the trace is empty, unsorted, or does not fit the
    /// configured nodes.
    #[must_use]
    pub fn greedy_placements(&self, suite: &Suite, trace: &[ClusterJob]) -> PlacementOutcome {
        let env = ClusterEnv::new(suite, self.cfg.nodes, self.cfg.gpus_per_node, trace);
        greedy_rollout(env, &self.agent)
    }

    /// Serialise the full checkpoint: spec + online-network weights
    /// (`HRPP`, mirroring `hrp-core`'s `HRPE`).
    #[must_use]
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC, VERSION);
        w.spec(&encode_spec(&self.cfg));
        w.raw(&save_weights(self.agent.online_net()));
        w.finish()
    }
}

/// Where a placement checkpoint is reloaded: train with
/// [`train_placement`], checkpoint with [`PlacementAgent::save_bytes`],
/// rebuild with [`PlacementExperiment::load_bytes`] (the cluster-tier
/// mirror of `hrp-core`'s `TrainedAgent::load_bytes`; never constructed).
///
/// ```no_run
/// use hrp_cluster::place::{train_placement, PlacementConfig, PlacementExperiment};
///
/// let suite = hrp_workloads::Suite::paper_suite(&hrp_gpusim::GpuArch::a100());
/// let (agent, report) = train_placement(&suite, PlacementConfig::quick());
/// println!("late return: {:.3}", report.late_return);
/// let reloaded = PlacementExperiment::load_bytes(agent.save_bytes()).unwrap();
/// assert_eq!(reloaded.config(), agent.config());
/// ```
pub enum PlacementExperiment {}

impl PlacementExperiment {
    /// Rebuild a trained placement agent from a checkpoint blob:
    /// decode the spec, check the weights against the geometry it
    /// implies, then build the agent and load them.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] when the blob is not an `HRPP`
    /// checkpoint, has an unsupported version, a malformed or
    /// out-of-range spec, or weights of the wrong shape.
    pub fn load_bytes(blob: Vec<u8>) -> Result<PlacementAgent, CheckpointError> {
        let mut r = Reader::open(&blob, MAGIC, VERSION)?;
        let cfg = decode_spec(r.spec()?)?;
        let agent = load_agent(MAGIC, cfg.dqn_config(), r.rest())?;
        Ok(PlacementAgent { agent, cfg })
    }
}

/// Encode a config as `key=value` lines (floats shortest-round-trip).
fn encode_spec(cfg: &PlacementConfig) -> SpecWriter {
    let mut s = SpecWriter::new();
    s.kv("nodes", cfg.nodes);
    s.kv("gpus_per_node", cfg.gpus_per_node);
    for (key, value) in cfg.trace.spec_pairs() {
        s.kv(&format!("trace.{key}"), value);
    }
    s.kv("n_traces", cfg.n_traces);
    s.kv("episodes", cfg.episodes);
    s.list("hidden", &cfg.hidden);
    s.kv("seed", cfg.seed);
    s.kv("n_workers", cfg.n_workers);
    s
}

/// Decode the spec: every [`PlacementConfig`] field exactly once, in
/// any order. The cluster geometry is held to the bounds the simulator
/// and the `HRPS` snapshot enforce; the hidden widths are range-checked
/// by [`load_agent`] against the weights.
fn decode_spec(mut spec: Spec<'_>) -> Result<PlacementConfig, CheckpointError> {
    let cfg = PlacementConfig {
        nodes: spec.get_in("nodes", 1..=MAX_NODES)?,
        gpus_per_node: spec.get_in("gpus_per_node", 1..=MAX_GPUS_PER_NODE)?,
        trace: TraceConfig::from_spec(&mut spec, "trace.")?,
        n_traces: spec.get("n_traces")?,
        episodes: spec.get("episodes")?,
        hidden: spec.get_list("hidden")?,
        seed: spec.get("seed")?,
        n_workers: spec.get("n_workers")?,
    };
    spec.finish()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multinode::MultiNodeSim;
    use crate::select::LeastLoaded;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    fn skewed_trace(suite: &Suite, jobs: usize, seed: u64) -> Vec<ClusterJob> {
        trace::generate(suite, &TraceConfig::new(TraceKind::Skewed, jobs, seed))
    }

    fn make_env<'a>(s: &'a Suite, nodes: usize, trace: &'a [ClusterJob]) -> ClusterEnv<'a> {
        ClusterEnv::new(s, nodes, 2, trace)
    }

    /// What every policy-tier node runs.
    fn node() -> NodeDispatcher {
        dispatcher_for(SelectorKind::Policy, 2, 0.0)
    }

    #[test]
    fn env_contract_holds_over_an_episode() {
        let s = suite();
        let t = skewed_trace(&s, 12, 3);
        let mut env = make_env(&s, 3, &t);
        assert_eq!(env.state_dim(), 8);
        assert_eq!(env.n_actions(), 3);
        let mut state = Vec::new();
        let mut steps = 0;
        while !env.done() {
            assert_eq!(env.valid_mask(), 0b111, "all 2-GPU nodes fit 1-GPU jobs");
            env.state_into(&mut state);
            assert_eq!(state.len(), 8);
            let out = env.step(steps % 3);
            assert!(out.ri_mean <= 0.0, "queue-delay delta is a penalty");
            steps += 1;
        }
        env.state_into(&mut state);
        assert_eq!(state.len(), 8, "terminal state keeps the dim");
        assert_eq!(env.valid_mask(), 0);
        assert_eq!(steps, 12);
        let outcome = env.into_decision();
        assert_eq!(outcome.assignment.len(), 12);
        let report = outcome.report.expect("drained episode has a report");
        assert_eq!(report.completed_jobs(), 12);
        assert!(report.aggregate.makespan > 0.0);
    }

    #[test]
    fn least_loaded_choices_pay_zero_delay_penalty() {
        let s = suite();
        let t = skewed_trace(&s, 8, 1);
        let mut env = make_env(&s, 2, &t);
        while !env.done() {
            // Mirror least-loaded per-GPU with low-id ties.
            let best = env
                .loads()
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.per_gpu_outstanding()
                        .total_cmp(&b.1.per_gpu_outstanding())
                        .then(a.0.cmp(&b.0))
                })
                .map(|(i, _)| i)
                .unwrap();
            let out = env.step(best);
            assert_eq!(out.ri_mean, 0.0, "least-loaded is the zero-regret point");
        }
    }

    #[test]
    fn terminal_bonus_rewards_shorter_makespans() {
        let s = suite();
        let t = skewed_trace(&s, 16, 7);
        let run_all_on = |node: usize| {
            let mut env = make_env(&s, 2, &t);
            let mut last = 0.0;
            while !env.done() {
                last = env.step(node).rf;
            }
            last
        };
        let run_spread = || {
            let mut env = make_env(&s, 2, &t);
            let mut i = 0;
            let mut last = 0.0;
            while !env.done() {
                last = env.step(i % 2).rf;
                i += 1;
            }
            last
        };
        let piled = run_all_on(0);
        let spread = run_spread();
        assert!(
            spread > piled,
            "spreading must earn a larger terminal bonus: {spread} vs {piled}"
        );
    }

    #[test]
    fn reset_restores_the_initial_state_exactly() {
        let s = suite();
        let t = skewed_trace(&s, 10, 5);
        let mut env = make_env(&s, 3, &t);
        let mut before = Vec::new();
        env.state_into(&mut before);
        while !env.done() {
            env.step(1);
        }
        env.reset();
        assert!(!env.done());
        let mut after = Vec::new();
        env.state_into(&mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn single_node_cluster_has_an_action_space_of_one() {
        let s = suite();
        let t = skewed_trace(&s, 6, 2);
        let mut env = make_env(&s, 1, &t);
        assert_eq!(env.n_actions(), 1);
        assert_eq!(env.state_dim(), 4);
        while !env.done() {
            assert_eq!(env.valid_mask(), 0b1);
            let out = env.step(0);
            assert_eq!(out.ri_mean, 0.0, "the only node is always the best node");
        }
        let outcome = env.into_decision();
        assert!(outcome.assignment.iter().all(|&n| n == 0));
        // And it reproduces the least-loaded single-node schedule.
        let mut ll = LeastLoaded;
        let direct = MultiNodeSim::new(1, 2).run(&s, t.clone(), &mut ll, |_| node());
        assert_eq!(outcome.report.unwrap(), direct);
    }

    #[test]
    fn saturated_nodes_stay_placeable() {
        // All nodes busy (zero free GPUs) must NOT mask anything:
        // placement queues, it never dead-ends.
        let s = suite();
        // A burst far larger than cluster capacity at t = 0.
        let t: Vec<ClusterJob> = (0..12)
            .map(|i| ClusterJob::new(i, "lavaMD", 0.0, 1, &s))
            .collect();
        let mut env = make_env(&s, 2, &t);
        let mut saw_saturated = false;
        while !env.done() {
            if env.loads().iter().all(|l| l.free_gpus == 0) {
                saw_saturated = true;
            }
            assert_eq!(env.valid_mask(), 0b11, "saturation must not mask");
            env.step(0);
        }
        // The 2-GPU cluster saturates only once the first window
        // dispatches — at the t = 0 barrier all GPUs are still free, so
        // drive the episode to completion and check the queues cleared.
        let outcome = env.into_decision();
        assert_eq!(outcome.report.unwrap().completed_jobs(), 12);
        let _ = saw_saturated; // informational; saturation timing is dispatcher-dependent
    }

    #[test]
    fn wide_jobs_mask_too_small_nodes() {
        let s = suite();
        let t = vec![ClusterJob::new(0, "lavaMD", 0.0, 2, &s)];
        let env = make_env(&s, 2, &t);
        // Both nodes have 2 GPUs, so both fit.
        assert_eq!(env.valid_mask(), 0b11);
    }

    #[test]
    fn greedy_env_rollout_matches_policy_selector_deployment() {
        // The core equivalence: rolling the env greedily with a frozen
        // agent must produce the same placements — and therefore the
        // bit-identical timeline — as deploying that agent's
        // PolicySelector inside MultiNodeSim.
        let s = suite();
        let cfg = PlacementConfig::quick();
        let agent = PlacementAgent::untrained(cfg.clone());
        let t = skewed_trace(&s, 20, 9);
        let outcome = agent.greedy_placements(&s, &t);
        let mut sel = agent.selector();
        let direct =
            MultiNodeSim::new(cfg.nodes, cfg.gpus_per_node)
                .run(&s, t.clone(), &mut sel, |_| node());
        assert_eq!(outcome.report.unwrap(), direct);
    }

    fn decode_text(text: &str) -> Result<PlacementConfig, CheckpointError> {
        decode_spec(Spec::parse(MAGIC, text)?)
    }

    #[test]
    fn spec_round_trips_every_field() {
        let mut cfg = PlacementConfig::default_cfg();
        cfg.trace = TraceConfig::new(TraceKind::HeavyTail, 48, 7)
            .max_gpus(4)
            .mean_gap(2.25)
            .gang_share(0.5)
            .users(5)
            .user_skew(1.3);
        cfg.hidden = vec![48, 24];
        cfg.n_workers = 3;
        let text = encode_spec(&cfg);
        assert_eq!(text.as_str().lines().count(), 15, "HRPP v3 writes 15 keys");
        assert_eq!(decode_text(text.as_str()).unwrap(), cfg);
        // Geometry beyond what the simulator accepts is a typed error, a
        // key of the retired v1 spec is unknown, and the tenant keys are
        // required like every other key.
        for (from, to) in [
            ("nodes=4", "nodes=0"),
            ("nodes=4", "nodes=65"),
            ("gpus_per_node=2", "gpus_per_node=0"),
            ("gpus_per_node=2", "gpus_per_node=99999"),
            ("n_workers=3\n", "n_workers=3\nbackfill=none\n"),
            ("trace.users=5\n", ""),
        ] {
            assert!(text.as_str().contains(from), "spec has no '{from}'");
            assert!(
                matches!(
                    decode_text(&text.as_str().replace(from, to)),
                    Err(CheckpointError::Invalid { format: "HRPP", .. })
                ),
                "'{from}' -> '{to}' must be a typed error"
            );
        }
    }

    #[test]
    fn checkpoint_reload_reproduces_placements_bit_for_bit() {
        let s = suite();
        let mut cfg = PlacementConfig::quick();
        cfg.episodes = 24; // enough to move the weights off init
        let (agent, _) = train_placement(&s, cfg);
        let blob = agent.save_bytes();
        let reloaded = PlacementExperiment::load_bytes(blob).unwrap();
        assert_eq!(reloaded.config(), agent.config());
        for seed in [1u64, 2, 3] {
            let t = skewed_trace(&s, 16, seed);
            let a = agent.greedy_placements(&s, &t);
            let b = reloaded.greedy_placements(&s, &t);
            assert_eq!(a.assignment, b.assignment, "trace seed {seed}");
            assert_eq!(
                a.report.unwrap().timeline.digest(),
                b.report.unwrap().timeline.digest()
            );
        }
    }

    #[test]
    fn load_rejects_garbage_and_bad_versions() {
        assert_eq!(
            PlacementExperiment::load_bytes(b"nope".to_vec()).err(),
            Some(CheckpointError::NotACheckpoint { expected: "HRPP" })
        );
        let agent = PlacementAgent::untrained(PlacementConfig::quick());
        // Version 1 carried the six retired planner / fair-share keys,
        // version 2 the fourteen training and node-window keys that are
        // now constants.
        for found in [1, 2, 99] {
            let mut raw = agent.save_bytes();
            raw[4] = found;
            assert_eq!(
                PlacementExperiment::load_bytes(raw).err(),
                Some(CheckpointError::BadVersion {
                    format: "HRPP",
                    found: u32::from(found)
                })
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs 4 GPUs")]
    fn oversized_jobs_are_rejected_at_construction() {
        let s = suite();
        let t = vec![ClusterJob::new(0, "lavaMD", 0.0, 4, &s)];
        let _ = make_env(&s, 2, &t);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_traces_are_rejected() {
        let s = suite();
        let t = vec![
            ClusterJob::new(0, "stream", 5.0, 1, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let _ = make_env(&s, 2, &t);
    }
}
