//! `train_hier`: offline training of the hierarchical MIG→MPS agent at
//! the paper's geometry, through the generic `train_env` pipeline.
//!
//! `hrp::core::train::train` runs a fixed number of episodes and
//! cannot be stopped by a clock, so the workload composes the same
//! pipeline itself ([`Composition`], checked against `train` bit for
//! bit in [`Train::verify`]) and trains in passes of one rollout round
//! each, handing the learner from pass to pass. After a cycle of
//! passes it starts over from a fresh warm learner: the window then
//! repeats the same work, which lets the timing take every part at
//! its fastest repetition and lets every cycle be checked against the
//! first, weight for weight. One operation is one `Learner::learn`
//! call that took a gradient step.

use super::{build_suite, timed, Exact, Layers, Params, Workload};
use crate::stats::Slice;
use crate::tracer::{self, enter, Span};
use crate::wrappers::{TimedFactory, TimedLearner};
use hrp::core::rl::greedy_rollout;
use hrp::core::train::TrainReport;
use hrp::core::{
    train, train_env, ActionCatalog, EnvConfig, EnvFactory, EnvKind, HierarchicalEnvFactory,
    PipelineConfig, TrainConfig,
};
use hrp::nn::{DqnAgent, DqnConfig, Head};
use hrp::profile::{FeatureScaler, ProfileRepository, Profiler};
use hrp::workloads::queue::table_v_queues;
use hrp::workloads::{JobQueue, QueueGenerator, Suite};

/// Everything `hrp::core::train::train` builds before it calls
/// `train_env`, built the same way from the same config.
struct Composition {
    cfg: TrainConfig,
    repo: ProfileRepository,
    scaler: FeatureScaler,
    catalog: ActionCatalog,
    queues: Vec<JobQueue>,
}

impl Composition {
    fn new(suite: &Suite, cfg: TrainConfig) -> Self {
        let profiler = Profiler::new(suite.arch().clone(), cfg.profile_noise, cfg.seed);
        let repo = {
            let _g = enter(Span::RepoBuild);
            ProfileRepository::for_suite(suite, &profiler)
        };
        let scaler = FeatureScaler::fit(&repo);
        let queues = QueueGenerator::new(cfg.seed).training_queues(suite, cfg.n_queues, cfg.w);
        Self {
            cfg,
            repo,
            scaler,
            catalog: ActionCatalog::paper_29(),
            queues,
        }
    }

    fn factory<'a>(&'a self, suite: &'a Suite) -> HierarchicalEnvFactory<'a> {
        let env = EnvConfig {
            w: self.cfg.w,
            cmax: self.cfg.cmax,
            ri_weight: self.cfg.ri_weight,
            rf_weight: self.cfg.rf_weight,
            engine: self.cfg.engine.clone(),
        };
        HierarchicalEnvFactory::new(suite, &self.repo, &self.scaler, &self.catalog, env)
    }

    /// A fresh agent of the geometry the factory induces.
    fn agent(&self, suite: &Suite) -> DqnAgent {
        let factory = self.factory(suite);
        DqnAgent::new(DqnConfig {
            state_dim: factory.state_dim(),
            n_actions: factory.n_actions(),
            hidden: self.cfg.hidden.clone(),
            gamma: self.cfg.gamma,
            lr: self.cfg.lr,
            batch_size: self.cfg.batch_size,
            target_sync_every: self.cfg.target_sync_every,
            buffer_capacity: self.cfg.buffer_capacity,
            shards: self.cfg.shards.max(1),
            huber_delta: 1.0,
            double: self.cfg.double,
            head: if self.cfg.dueling {
                Head::Dueling
            } else {
                Head::Plain
            },
            seed: self.cfg.seed,
        })
    }

    /// Train `learner` for `episodes` more episodes with episode RNG
    /// streams derived from `seed`. `timed` wraps factory and envs.
    fn train(
        &self,
        suite: &Suite,
        learner: TimedLearner,
        episodes: usize,
        seed: u64,
        timed: bool,
    ) -> (TimedLearner, TrainReport) {
        let pipeline = PipelineConfig {
            episodes,
            seed,
            ..PipelineConfig::from(&self.cfg)
        };
        let factory = self.factory(suite);
        let _g = enter(Span::TrainEnv);
        if timed {
            train_env(&TimedFactory(factory), learner, &self.queues, &pipeline)
        } else {
            train_env(&factory, learner, &self.queues, &pipeline)
        }
    }
}

fn weights(agent: &DqnAgent) -> Vec<f32> {
    let mut out = Vec::new();
    agent.online_net().write_params(&mut out);
    out
}

fn same_bits(what: &str, a: &[f32], b: &[f32]) -> Result<(), String> {
    if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()) {
        Ok(())
    } else {
        Err(format!("{what}: online-net weights differ"))
    }
}

fn same_weights(what: &str, a: &DqnAgent, b: &DqnAgent) -> Result<(), String> {
    same_bits(what, &weights(a), &weights(b))
}

/// The workload, set up: pipeline composed, learner warm.
pub struct Train {
    params: Params,
    suite: Suite,
    comp: Composition,
    /// The learner between passes (`None` only while a pass holds it).
    learner: Option<TimedLearner>,
    episodes_per_pass: usize,
    first_cycle: usize,
    /// The online-net weights the first cycle ended with.
    cycle_weights: Option<Vec<f32>>,
    table_v: Vec<JobQueue>,
    exact: Exact,
}

impl Train {
    /// Compose the pipeline and run the warm-up pass, after which every
    /// measured `learn` call takes a gradient step.
    ///
    /// # Errors
    /// Never, today; the signature matches the other workloads.
    pub fn new(params: Params) -> Result<Self, String> {
        let suite = build_suite();
        // The smoke run keeps the paper's window (the Table-V queues
        // need W = 12) and shrinks the network.
        let base = if params.quick {
            TrainConfig {
                hidden: vec![64, 32],
                ..TrainConfig::paper()
            }
        } else {
            TrainConfig::paper()
        };
        let cfg = TrainConfig {
            seed: params.seed,
            n_workers: 1,
            overlap: false,
            shards: 1,
            env: EnvKind::Hierarchical,
            ..base
        };
        let comp = Composition::new(&suite, cfg);
        let table_v = table_v_queues(&suite);
        let mut this = Self {
            params,
            episodes_per_pass: comp.cfg.rollout_round,
            suite,
            comp,
            learner: None,
            first_cycle: if params.quick { 2 } else { 8 },
            cycle_weights: None,
            table_v,
            exact: Exact::default(),
        };
        this.learner = Some(this.warm_learner());
        Ok(this)
    }

    /// A fresh agent after the warm-up pass (two rollout rounds, which
    /// fill the replay well past one batch) — the state every cycle
    /// starts from.
    fn warm_learner(&self) -> TimedLearner {
        let learner = TimedLearner::new(self.comp.agent(&self.suite));
        let (episodes, seed) = (2 * self.episodes_per_pass, self.params.seed);
        let (mut learner, _) = self.comp.train(&self.suite, learner, episodes, seed, false);
        learner.ops_us.clear();
        learner
    }

    /// Schedule the twelve Table-V queues greedily with `agent`; the
    /// summed drain time and how many jobs were scheduled exactly once.
    fn evaluate(&self, agent: &DqnAgent) -> Result<Exact, String> {
        let factory = self.comp.factory(&self.suite);
        let mut exact = Exact::default();
        for queue in &self.table_v {
            let decision = greedy_rollout(factory.make(queue), agent);
            decision
                .validate(queue, self.comp.cfg.cmax, false)
                .map_err(|e| format!("queue {}: {e}", queue.label))?;
            exact.makespan_sim_s += decision.total_time();
            exact.offered += queue.jobs.len() as u64;
            exact.served += decision
                .groups
                .iter()
                .map(|g| g.job_ids.len() as u64)
                .sum::<u64>();
        }
        Ok(exact)
    }
}

impl Workload for Train {
    fn first_cycle(&self) -> usize {
        self.first_cycle
    }

    fn pass(&mut self, index: usize) -> Result<Slice, String> {
        let position = index % self.first_cycle;
        if position == 0 && index > 0 {
            self.learner = Some(self.warm_learner());
        }
        let learner = self
            .learner
            .take()
            .ok_or("the learner was lost in a failed pass")?;
        let seed = self.params.seed + 1 + position as u64;
        let ((mut learner, report), wall_s) = timed(|| {
            self.comp
                .train(&self.suite, learner, self.episodes_per_pass, seed, false)
        });
        let ops_us = std::mem::take(&mut learner.ops_us);
        // The quality figure sums the second half of the first cycle:
        // the first evaluations follow a nearly untrained policy.
        if (self.first_cycle / 2..self.first_cycle).contains(&index) {
            let eval = self.evaluate(learner.agent())?;
            self.exact.makespan_sim_s += eval.makespan_sim_s;
            self.exact.offered += eval.offered;
            self.exact.served += eval.served;
        }
        if position + 1 == self.first_cycle {
            let ended_with = weights(learner.agent());
            match &self.cycle_weights {
                Some(first) => same_bits("a repeated training cycle", &ended_with, first)?,
                None => self.cycle_weights = Some(ended_with),
            }
        }
        self.learner = Some(learner);
        Ok(Slice {
            input: position,
            wall_s,
            units: report.total_steps,
            ops_us,
        })
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn traced_cycle(&mut self, layers: &mut Layers) -> Result<(), String> {
        // Two fresh agents in lockstep, one through the bare types and
        // one through the wrappers: identical work, so the wall ratio
        // is the tracing overhead and the weights must stay equal.
        let mut bare = TimedLearner::new(self.comp.agent(&self.suite));
        let mut traced = TimedLearner::new(self.comp.agent(&self.suite));
        for pass in 0..self.first_cycle {
            let seed = self.params.seed + pass as u64;
            tracer::set_enabled(false);
            let ((learner, _), bare_s) = timed(|| {
                self.comp
                    .train(&self.suite, bare, self.episodes_per_pass, seed, false)
            });
            bare = learner;

            tracer::set_enabled(true);
            let _ = tracer::take_allocs();
            let ((learner, report), traced_s) = timed(|| {
                self.comp
                    .train(&self.suite, traced, self.episodes_per_pass, seed, true)
            });
            traced = learner;
            let (calls, bytes) = tracer::take_allocs();
            tracer::set_enabled(false);
            same_weights(&format!("traced pass {pass}"), bare.agent(), traced.agent())?;

            layers.allocs.0 += calls;
            layers.allocs.1 += bytes;
            layers.overhead_ratios.push(traced_s / bare_s);
            layers.add("core.train.episodes", report.episodes as f64);
            layers.add("core.train.env_steps", report.total_steps as f64);
        }
        layers.traced_ops += traced.ops_us.len() as u64;
        layers.add("nn.dqn.learn_steps", traced.agent().learn_steps() as f64);
        layers.add("nn.dqn.noop_learns", traced.noop_learns as f64);
        self.evaluate(traced.agent()).map(|_| ())
    }

    fn verify(&mut self) -> Result<(), String> {
        // The composition above against the library's own `train`, on a
        // config small enough to run after every window.
        let cfg = TrainConfig {
            episodes: 32,
            seed: self.params.seed,
            n_workers: 1,
            env: EnvKind::Hierarchical,
            ..TrainConfig::quick()
        };
        let (reference, _) = train(&self.suite, cfg.clone());
        let comp = Composition::new(&self.suite, cfg);
        let learner = TimedLearner::new(comp.agent(&self.suite));
        let (learner, _) = comp.train(
            &self.suite,
            learner,
            comp.cfg.episodes,
            comp.cfg.seed,
            false,
        );
        if self.params.corrupt_oracle {
            let other = comp.agent(&self.suite);
            return same_weights(
                "own composition vs hrp::core::train",
                &other,
                reference.dqn(),
            );
        }
        same_weights(
            "own composition vs hrp::core::train",
            learner.agent(),
            reference.dqn(),
        )
    }
}
