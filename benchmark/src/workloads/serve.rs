//! The two `hrp-serve` workloads: a trained placement policy over
//! streamed traces with a kill/restore in every pass, and EASY
//! backfilling under sustained overload with quota and SLO admission.
//!
//! Both drive `SchedulerService::step` in a closed loop from one
//! thread with no think time; the arrival schedules themselves are
//! open-loop in simulated time, which is what builds the backlog the
//! admission tier defers and rejects from.

use super::{
    build_suite, same_digest, timed, Exact, Layers, Params, Workload, GPUS_PER_NODE, NODES,
};
use crate::stats::Slice;
use crate::tracer::{self, enter, Span};
use crate::wrappers::{TimedDispatcher, TimedGreedy, TimedSelector, TimedSource};
use hrp::cluster::fair::user_fairness;
use hrp::cluster::place::{train_placement, PlacementAgent, PlacementConfig, PlacementExperiment};
use hrp::cluster::trace::generate;
use hrp::cluster::{
    BackfillTier, ClusterJob, MultiNodeReport, MultiNodeSim, SelectorKind, TraceConfig, TraceKind,
};
use hrp::core::{Learner, PolicySelector};
use hrp::serve::{
    dispatcher_for, restore, AdmissionConfig, ArrivalSource, LoadGen, LoadShape, SchedulerService,
    ServeConfig, ServeReport, ServiceStep, SourcePoll, TraceSource,
};
use hrp::workloads::Suite;
use std::time::Instant;

/// Tenants of both workloads (Zipf-skewed; tenant 0 is the heavy one).
const USERS: u32 = 6;

/// What distinguishes the two workloads.
enum Plan {
    /// `serve_policy_steady`.
    Policy {
        /// The trained agent as an `HRPP` blob, reloaded for every pass.
        agent_blob: Vec<u8>,
        /// Jobs per pass; the kill/restore happens at half of them.
        jobs: usize,
    },
    /// `serve_backfill_overload`.
    Overload {
        /// Simulated seconds of offered load per pass.
        duration: f64,
    },
}

/// What happens at the midpoint of a pass.
#[derive(Clone, Copy)]
enum Midpoint {
    /// Nothing: the uninterrupted reference.
    None,
    /// Checkpoint at this many consumed jobs, drop the service, restore
    /// the blob and finish on the restored service — the measured path.
    KillRestore(usize),
    /// Checkpoint and restore as above, but finish on the original
    /// service: the traced path, which keeps its `TimedSource` (a
    /// restored service builds its own source) and its complete
    /// effective-trace log (a restored service logs admissions since
    /// the restore only).
    CheckpointOnly(usize),
}

/// One drained service.
struct PassResult {
    slice: Slice,
    served: ServeReport,
    /// Arrivals the source handed out.
    offered: usize,
    digest: u64,
    adm_digest: u64,
    ckpt_bytes: usize,
}

/// Everything a pass is built from.
struct Scenario {
    params: Params,
    suite: Suite,
    plan: Plan,
}

impl PassResult {
    /// The admitted trace the pass logged (complete only when the pass
    /// finished on the service it started on).
    fn admitted(&self) -> Result<Vec<ClusterJob>, String> {
        let admission = self.served.admission.as_ref();
        admission
            .map(|a| a.effective.clone())
            .ok_or_else(|| "the admission tier was off".to_owned())
    }
}

/// A serve workload, set up.
pub struct Serve {
    scenario: Scenario,
    inputs: usize,
    /// Input 0, uninterrupted: the warm-up pass, and the run every
    /// kill/restore pass over input 0 must reproduce.
    reference: PassResult,
    /// `(timeline digest, admission digest)` first seen per input.
    seen: Vec<Option<(u64, u64)>>,
    exact: Exact,
}

#[derive(PartialEq)]
enum Stop {
    Closed,
    Reached,
}

/// Step `svc` until its source closes and its deferred queue drains,
/// or until it consumed `stop_at` jobs, timing every cycle.
fn drive<S: ArrivalSource>(
    svc: &mut SchedulerService<'_, S>,
    stop_at: usize,
    ops_us: &mut Vec<f64>,
) -> Result<Stop, String> {
    loop {
        let started = Instant::now();
        let step = {
            let _g = enter(Span::ServiceStep);
            svc.step()
        };
        match step {
            ServiceStep::Cycle { .. } => {
                ops_us.push(started.elapsed().as_secs_f64() * 1e6);
                if svc.consumed() >= stop_at {
                    return Ok(Stop::Reached);
                }
            }
            ServiceStep::Closed if svc.deferred_jobs() == 0 => return Ok(Stop::Closed),
            // Pending never happens with a trace or a load generator;
            // Closed with parked jobs wakes through their releases.
            ServiceStep::Pending | ServiceStep::Closed => {
                let _g = enter(Span::ServiceWake);
                if svc.wake_cycle().is_none() {
                    return Err("the service stalled: nothing to ingest and no wake-up".into());
                }
            }
        }
    }
}

/// Drain the cluster and check that no arrival was lost.
fn finish<S: ArrivalSource>(svc: SchedulerService<'_, S>) -> Result<(ServeReport, usize), String> {
    let offered = svc.consumed();
    let served = {
        let _g = enter(Span::ServiceFinish);
        svc.finish()
    };
    let placed = served.stats.decisions + served.stats.rejected;
    if offered as u64 != placed {
        return Err(format!(
            "{offered} arrivals consumed but {placed} placed or rejected"
        ));
    }
    let completed = served.report.completed_jobs() as u64;
    if completed != served.stats.decisions {
        return Err(format!(
            "{} jobs placed but {completed} completed",
            served.stats.decisions
        ));
    }
    Ok((served, offered))
}

/// Run one service to completion. `started` is when the pass began
/// (before the service and its source were built).
fn run_service<S: ArrivalSource>(
    suite: &Suite,
    mut svc: SchedulerService<'_, S>,
    midpoint: Midpoint,
    started: Instant,
) -> Result<PassResult, String> {
    let mut ops_us = Vec::new();
    let mut ckpt_bytes = 0;
    let (served, offered) = match midpoint {
        Midpoint::None => {
            drive(&mut svc, usize::MAX, &mut ops_us)?;
            finish(svc)?
        }
        Midpoint::KillRestore(at) | Midpoint::CheckpointOnly(at) => {
            if drive(&mut svc, at, &mut ops_us)? == Stop::Closed {
                return Err(format!("the source closed before {at} jobs"));
            }
            let blob = {
                let _g = enter(Span::CheckpointEncode);
                svc.checkpoint().map_err(|e| format!("checkpoint: {e}"))?
            };
            ckpt_bytes = blob.len();
            let consumed = svc.consumed();
            let restore_checked = || {
                let _g = enter(Span::CheckpointRestore);
                let restored = restore(suite, blob.clone()).map_err(|e| format!("restore: {e}"))?;
                if restored.consumed() == consumed {
                    Ok(restored)
                } else {
                    Err(format!(
                        "restored at {} consumed jobs, checkpointed at {consumed}",
                        restored.consumed()
                    ))
                }
            };
            if matches!(midpoint, Midpoint::KillRestore(_)) {
                drop(svc);
                let mut restored = restore_checked()?;
                drive(&mut restored, usize::MAX, &mut ops_us)?;
                finish(restored)?
            } else {
                drop(restore_checked()?);
                drive(&mut svc, usize::MAX, &mut ops_us)?;
                finish(svc)?
            }
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let adm_digest = served
        .admission
        .as_ref()
        .map(|a| a.digest)
        .ok_or("the admission tier was off")?;
    Ok(PassResult {
        slice: Slice {
            input: 0,
            wall_s,
            units: 0,
            ops_us,
        },
        digest: served.report.timeline.digest(),
        served,
        offered,
        adm_digest,
        ckpt_bytes,
    })
}

impl Serve {
    /// `serve_policy_steady`: train the placement agent, then run the
    /// uninterrupted reference pass.
    ///
    /// # Errors
    /// A failed gate in the reference pass.
    pub fn policy_steady(params: Params) -> Result<Self, String> {
        let suite = build_suite();
        let mut cfg = PlacementConfig::default_cfg();
        cfg.nodes = NODES;
        cfg.gpus_per_node = GPUS_PER_NODE;
        cfg.n_workers = 1;
        cfg.seed = params.seed;
        cfg.trace = cfg.trace.seed(params.seed);
        // Half the default 600 episodes: training is set-up cost here,
        // paid three times a run. At a fifth, one seed in twelve trained
        // a policy that piles jobs onto few nodes and quadruples the
        // tail latency; at half, none of twelve did.
        cfg.episodes = if params.quick { 24 } else { 300 };
        let agent_blob = {
            let _g = enter(Span::PlaceTrain);
            train_placement(&suite, cfg).0.save_bytes().to_vec()
        };
        let plan = Plan::Policy {
            agent_blob,
            jobs: if params.quick { 2_000 } else { 25_000 },
        };
        Self::with_plan(params, suite, plan)
    }

    /// `serve_backfill_overload`: run the reference pass.
    ///
    /// # Errors
    /// A failed gate in the reference pass.
    pub fn backfill_overload(params: Params) -> Result<Self, String> {
        let plan = Plan::Overload {
            duration: if params.quick { 4_000.0 } else { 200_000.0 },
        };
        Self::with_plan(params, build_suite(), plan)
    }

    fn with_plan(params: Params, suite: Suite, plan: Plan) -> Result<Self, String> {
        let scenario = Scenario {
            params,
            suite,
            plan,
        };
        let inputs = if params.quick { 2 } else { 8 };
        let reference = scenario.run_input(0, Midpoint::None, false)?;
        let mut seen = vec![None; inputs];
        seen[0] = Some((reference.digest, reference.adm_digest));
        Ok(Self {
            scenario,
            inputs,
            reference,
            seen,
            exact: Exact::default(),
        })
    }

    /// Check a pass over `input` against the first pass over it.
    fn check_repeat(&mut self, input: usize, pass: &PassResult) -> Result<(), String> {
        match self.seen[input] {
            Some((digest, adm)) => {
                same_digest(&format!("input {input} timeline"), pass.digest, digest)?;
                same_digest(&format!("input {input} admission"), pass.adm_digest, adm)
            }
            None => {
                self.seen[input] = Some((pass.digest, pass.adm_digest));
                Ok(())
            }
        }
    }
}

impl Scenario {
    fn serve_cfg(&self) -> ServeConfig {
        let cfg = ServeConfig::new(NODES, GPUS_PER_NODE);
        match self.plan {
            Plan::Policy { .. } => cfg.admission(AdmissionConfig::new().quota(4)),
            Plan::Overload { .. } => cfg
                .walltime_err(0.3)
                .admission(AdmissionConfig::new().quota(8).slo(20.0)),
        }
    }

    fn trace_cfg(&self, input: usize, jobs: usize) -> TraceConfig {
        TraceConfig::new(TraceKind::Bursty, jobs, self.params.seed + input as u64)
            .mean_gap(12.0)
            .max_gpus(GPUS_PER_NODE)
            .users(USERS)
    }

    fn load_gen(&self, input: usize, duration: f64) -> LoadGen<'_> {
        // 0.5 jobs/s is about 1.4× what 8 × 2 GPUs can run.
        let seed = self.params.seed + input as u64;
        LoadGen::new(&self.suite, LoadShape::Bursty, 0.5, duration, seed).with_users(USERS, 1.2)
    }

    fn load_agent(blob: &[u8]) -> Result<PlacementAgent, String> {
        PlacementExperiment::load_bytes(blob.to_vec().into()).map_err(|e| format!("agent: {e}"))
    }

    /// The midpoint action of a measured pass.
    fn measured_midpoint(&self) -> Midpoint {
        match self.plan {
            Plan::Policy { jobs, .. } => Midpoint::KillRestore(jobs / 2),
            Plan::Overload { .. } => Midpoint::None,
        }
    }

    /// Serve input `input` once. With `timed_source` the arrival source
    /// is wrapped in a [`TimedSource`].
    fn run_input(
        &self,
        input: usize,
        midpoint: Midpoint,
        timed_source: bool,
    ) -> Result<PassResult, String> {
        let started = Instant::now();
        let suite = &self.suite;
        let cfg = self.serve_cfg();
        let mut result = match &self.plan {
            Plan::Policy { agent_blob, jobs } => {
                let agent = Self::load_agent(agent_blob)?;
                let source = TraceSource::new(suite, self.trace_cfg(input, *jobs));
                if timed_source {
                    let svc = SchedulerService::with_agent(suite, cfg, agent, TimedSource(source));
                    run_service(suite, svc, midpoint, started)?
                } else {
                    let svc = SchedulerService::with_agent(suite, cfg, agent, source);
                    run_service(suite, svc, midpoint, started)?
                }
            }
            Plan::Overload { duration } => {
                let source = self.load_gen(input, *duration);
                if timed_source {
                    let svc =
                        SchedulerService::new(suite, cfg, SelectorKind::Easy, TimedSource(source));
                    run_service(suite, svc, midpoint, started)?
                } else {
                    let svc = SchedulerService::new(suite, cfg, SelectorKind::Easy, source);
                    run_service(suite, svc, midpoint, started)?
                }
            }
        };
        result.slice.input = input;
        result.slice.units = match self.plan {
            Plan::Policy { .. } => result.served.stats.decisions,
            Plan::Overload { .. } => result.offered as u64,
        };
        Ok(result)
    }

    /// Replay an admitted trace through the batch engine — the oracle
    /// the service's timeline must equal. `timed` wraps selector and
    /// dispatchers and records `cluster.multinode.run`.
    fn replay(
        &self,
        jobs: Vec<ClusterJob>,
        timed: bool,
        threads: usize,
    ) -> Result<MultiNodeReport, String> {
        let suite = &self.suite;
        let sim = MultiNodeSim::new(NODES, GPUS_PER_NODE).with_threads(threads);
        Ok(match &self.plan {
            Plan::Policy { agent_blob, .. } => {
                let agent = Self::load_agent(agent_blob)?;
                let make = |_| dispatcher_for(SelectorKind::Policy, GPUS_PER_NODE, 0.0);
                if timed {
                    let frozen = TimedGreedy(Learner::snapshot(agent.dqn()));
                    let mut selector = TimedSelector::policy(PolicySelector::new(frozen));
                    let _g = enter(Span::MultinodeRun);
                    sim.run(suite, jobs, &mut selector, |n| {
                        TimedDispatcher::new(make(n), Span::CoschedPlacement)
                    })
                } else {
                    sim.run(suite, jobs, &mut agent.selector(), make)
                }
            }
            Plan::Overload { .. } => {
                let kind = SelectorKind::Easy;
                let policy = kind.backfill_policy().expect("easy is a backfill tier");
                let err = self.serve_cfg().walltime_err;
                let make = |_| dispatcher_for(kind, GPUS_PER_NODE, err);
                if timed {
                    let mut selector = TimedSelector::heuristic(BackfillTier::new(policy));
                    let _g = enter(Span::MultinodeRun);
                    sim.run(suite, jobs, &mut selector, |n| {
                        TimedDispatcher::new(make(n), Span::BackfillPlacement)
                    })
                } else {
                    sim.run(suite, jobs, &mut BackfillTier::new(policy), make)
                }
            }
        })
    }

    /// The arrivals of `input` as submitted, before admission moved them.
    fn submissions(&self, input: usize) -> Vec<ClusterJob> {
        match self.plan {
            Plan::Policy { jobs, .. } => {
                let _g = enter(Span::TraceGenerate);
                generate(&self.suite, &self.trace_cfg(input, jobs))
            }
            Plan::Overload { duration } => {
                let mut source = self.load_gen(input, duration);
                let mut jobs = Vec::new();
                while let SourcePoll::Job(job) = source.poll() {
                    jobs.push(job);
                }
                jobs
            }
        }
    }
}

impl Workload for Serve {
    fn first_cycle(&self) -> usize {
        self.inputs
    }

    fn pass(&mut self, index: usize) -> Result<Slice, String> {
        let input = index % self.inputs;
        let pass = self
            .scenario
            .run_input(input, self.scenario.measured_midpoint(), false)?;
        self.check_repeat(input, &pass)?;
        if index < self.inputs {
            self.exact.makespan_sim_s += pass.served.report.aggregate.makespan;
            self.exact.offered += pass.offered as u64;
            self.exact.served += pass.served.stats.decisions;
        }
        Ok(pass.slice)
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn traced_cycle(&mut self, layers: &mut Layers) -> Result<(), String> {
        for input in 0..self.inputs {
            tracer::set_enabled(false);
            let bare = self
                .scenario
                .run_input(input, self.scenario.measured_midpoint(), false)?;
            self.check_repeat(input, &bare)?;

            tracer::set_enabled(true);
            let _ = tracer::take_allocs();
            let root = enter(Span::BenchPass);
            let midpoint = match self.scenario.measured_midpoint() {
                Midpoint::KillRestore(at) => Midpoint::CheckpointOnly(at),
                other => other,
            };
            let traced = self.scenario.run_input(input, midpoint, true)?;
            let (calls, bytes) = tracer::take_allocs();
            let admitted = traced.admitted()?;
            let replayed_jobs = admitted.len();
            let replay = self.scenario.replay(admitted, true, 1)?;
            let jain = user_fairness(
                &self.scenario.suite,
                &self.scenario.submissions(input),
                &traced.served.report.timeline.events,
            )
            .jain;
            drop(root);
            tracer::set_enabled(false);

            self.check_repeat(input, &traced)?;
            same_digest(
                &format!("input {input} traced batch replay"),
                replay.timeline.digest(),
                traced.digest,
            )?;

            layers.allocs.0 += calls;
            layers.allocs.1 += bytes;
            layers.traced_ops += traced.slice.ops_us.len() as u64;
            layers
                .overhead_ratios
                .push(traced.slice.wall_s / bare.slice.wall_s);
            let stats = traced.served.stats;
            for (name, value) in [
                ("serve.service.cycles", stats.cycles),
                ("serve.service.wake_cycles", stats.wake_cycles),
                ("serve.service.decisions", stats.decisions),
                ("serve.service.nodes_replanned", stats.nodes_replanned),
                ("serve.service.nodes_skipped", stats.nodes_skipped),
                ("deferred", stats.deferred),
                ("rejected", stats.rejected),
                ("offered", traced.offered as u64),
                ("serve.checkpoint.bytes", traced.ckpt_bytes as u64),
                ("cluster.multinode.sync_rounds", replay.sync.sync_rounds),
                ("cluster.multinode.node_advances", replay.sync.node_advances),
                ("events", replay.timeline.len() as u64),
                ("replayed_jobs", replayed_jobs as u64),
                ("inputs", 1),
            ] {
                layers.add(name, value as f64);
            }
            layers.add("jain", jain);
        }
        if layers.threads2_ratio.is_none() {
            let (jobs, again) = (self.reference.admitted()?, self.reference.admitted()?);
            let (one_thread, one) = timed(|| self.scenario.replay(jobs, false, 1));
            let (two_threads, two) = timed(|| self.scenario.replay(again, false, 2));
            same_digest(
                "replay at two threads",
                two_threads?.timeline.digest(),
                one_thread?.timeline.digest(),
            )?;
            layers.threads2_ratio = Some(two / one);
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let admitted = self.reference.admitted()?;
        if admitted.len() as u64 != self.reference.served.stats.decisions {
            return Err("the reference pass did not log every admission".into());
        }
        let replay = self.scenario.replay(admitted, false, 1)?;
        let want = self.reference.digest ^ u64::from(self.scenario.params.corrupt_oracle);
        same_digest(
            "batch replay of the admitted trace",
            replay.timeline.digest(),
            want,
        )
    }
}
