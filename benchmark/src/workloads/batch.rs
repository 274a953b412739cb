//! `batch_des_heavytail`: the batch multi-node engine alone, on
//! heavy-tail traces generated during set-up. One operation, and one
//! slice, is one whole `MultiNodeSim::run` over one of the traces.

use super::{
    build_suite, same_digest, timed, Exact, Layers, Params, Workload, GPUS_PER_NODE, NODES,
};
use crate::stats::Slice;
use crate::tracer::{self, enter, Span};
use crate::wrappers::{TimedDispatcher, TimedSelector};
use hrp::cluster::select::LeastLoaded;
use hrp::cluster::trace::generate;
use hrp::cluster::{
    ClusterJob, MultiNodeReport, MultiNodeSim, SelectorKind, TraceConfig, TraceKind,
};
use hrp::serve::dispatcher_for;
use hrp::workloads::Suite;

const KIND: SelectorKind = SelectorKind::LeastLoaded;

/// The workload, set up: traces generated, every one run once.
pub struct Batch {
    params: Params,
    suite: Suite,
    traces: Vec<Vec<ClusterJob>>,
    /// Timeline digest of each trace, from the warm-up cycle.
    digests: Vec<u64>,
    exact: Exact,
}

impl Batch {
    /// Generate the traces and run the warm-up cycle.
    ///
    /// # Errors
    /// A warm-up run that lost a job.
    pub fn new(params: Params) -> Result<Self, String> {
        let suite = build_suite();
        let (inputs, jobs) = if params.quick {
            (4, 1_000)
        } else {
            (8, 10_000)
        };
        let traces: Vec<Vec<ClusterJob>> = (0..inputs)
            .map(|i| {
                let cfg = TraceConfig::new(TraceKind::HeavyTail, jobs, params.seed + i)
                    .max_gpus(GPUS_PER_NODE);
                let _g = enter(Span::TraceGenerate);
                generate(&suite, &cfg)
            })
            .collect();
        let mut this = Self {
            params,
            suite,
            traces,
            digests: Vec::new(),
            exact: Exact::default(),
        };
        for input in 0..this.traces.len() {
            let report = this.run(this.traces[input].clone(), false, 1);
            this.check_complete(input, &report)?;
            this.exact.makespan_sim_s += report.aggregate.makespan;
            this.exact.offered += this.traces[input].len() as u64;
            this.exact.served += report.completed_jobs() as u64;
            this.digests.push(report.timeline.digest());
        }
        Ok(this)
    }

    /// One pass of the engine over `jobs` (a copy of one of the traces,
    /// made by the caller so that copying is not part of the pass).
    fn run(&self, jobs: Vec<ClusterJob>, timed: bool, threads: usize) -> MultiNodeReport {
        let sim = MultiNodeSim::new(NODES, GPUS_PER_NODE).with_threads(threads);
        let make = |_| dispatcher_for(KIND, GPUS_PER_NODE, 0.0);
        if timed {
            let mut selector = TimedSelector::heuristic(LeastLoaded);
            let _g = enter(Span::MultinodeRun);
            sim.run(&self.suite, jobs, &mut selector, |n| {
                TimedDispatcher::new(make(n), Span::CoschedPlacement)
            })
        } else {
            sim.run(&self.suite, jobs, &mut LeastLoaded, make)
        }
    }

    fn check_complete(&self, input: usize, report: &MultiNodeReport) -> Result<(), String> {
        let (done, all) = (report.completed_jobs(), self.traces[input].len());
        if done == all {
            Ok(())
        } else {
            Err(format!("trace {input}: {done} of {all} jobs completed"))
        }
    }

    fn check(&self, input: usize, report: &MultiNodeReport) -> Result<(), String> {
        self.check_complete(input, report)?;
        same_digest(
            &format!("trace {input} timeline"),
            report.timeline.digest(),
            self.digests[input],
        )
    }
}

impl Workload for Batch {
    fn first_cycle(&self) -> usize {
        self.traces.len()
    }

    fn pass(&mut self, index: usize) -> Result<Slice, String> {
        let input = index % self.traces.len();
        let jobs = self.traces[input].clone();
        let (report, wall_s) = timed(|| self.run(jobs, false, 1));
        self.check(input, &report)?;
        Ok(Slice {
            input,
            wall_s,
            units: self.traces[input].len() as u64,
            ops_us: vec![wall_s * 1e6],
        })
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn traced_cycle(&mut self, layers: &mut Layers) -> Result<(), String> {
        for input in 0..self.traces.len() {
            tracer::set_enabled(false);
            let jobs = self.traces[input].clone();
            let (report, bare) = timed(|| self.run(jobs, false, 1));
            self.check(input, &report)?;

            tracer::set_enabled(true);
            let _ = tracer::take_allocs();
            let jobs = self.traces[input].clone();
            let (report, traced) = timed(|| {
                let _root = enter(Span::BenchPass);
                self.run(jobs, true, 1)
            });
            let (calls, bytes) = tracer::take_allocs();
            tracer::set_enabled(false);
            self.check(input, &report)?;

            layers.allocs.0 += calls;
            layers.allocs.1 += bytes;
            layers.traced_ops += 1;
            layers.overhead_ratios.push(traced / bare);
            layers.add(
                "cluster.multinode.sync_rounds",
                report.sync.sync_rounds as f64,
            );
            layers.add(
                "cluster.multinode.node_advances",
                report.sync.node_advances as f64,
            );
            layers.add("events", report.timeline.len() as f64);
            layers.add("replayed_jobs", self.traces[input].len() as f64);
        }
        if layers.threads2_ratio.is_none() {
            let (jobs, again) = (self.traces[0].clone(), self.traces[0].clone());
            let (_, one) = timed(|| self.run(jobs, false, 1));
            let (report, two) = timed(|| self.run(again, false, 2));
            layers.threads2_ratio = Some(two / one);
            self.check(0, &report)?;
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        // The oracle of a batch pass is the engine's own determinism
        // contract: the same trace at two DES threads merges into the
        // identical timeline.
        let report = self.run(self.traces[0].clone(), false, 2);
        self.check_complete(0, &report)?;
        let want = self.digests[0] ^ u64::from(self.params.corrupt_oracle);
        same_digest("trace 0 at two threads", report.timeline.digest(), want)
    }
}
