//! Event-driven cluster simulation scaffolding.
//!
//! The cluster is a pool of identical GPUs. Dispatchers (FCFS, the
//! co-scheduling extension) decide what to start whenever a GPU frees or
//! a job arrives; the simulator advances time between those events and
//! collects the report.
//!
//! # The per-node event loop
//!
//! [`NodeRun`] is the reusable core: one node's clock, GPU pool,
//! waiting queue, and dispatcher, advanced event by event up to a
//! horizon. Every state change is recorded as a [`NodeEvent`] with a
//! per-node sequence number, so a run leaves behind a totally ordered
//! event stream. [`ClusterSim`] (the original single-node-pool
//! simulator) is now a thin wrapper: preload every arrival, advance to
//! the end of time. The multi-node simulator
//! ([`crate::multinode::MultiNodeSim`]) instead drives many `NodeRun`s
//! epoch by epoch, injecting arrivals between horizons — the two paths
//! execute the *same* absorb → dispatch → advance → release cycle, which
//! is what makes a one-node cluster event-for-event identical to
//! [`ClusterSim::run`].

use crate::job::ClusterJob;
use hrp_core::cluster_env::NodeLoad;
use hrp_workloads::Suite;
use std::collections::VecDeque;

/// Absolute slack when comparing event times: arrivals and finishes
/// within this window coalesce into one instant.
pub const TIME_EPS: f64 = 1e-12;

/// A unit of work the dispatcher starts on one or more GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Job ids covered by this placement (one for exclusive runs, many
    /// for a co-scheduled window).
    pub job_ids: Vec<usize>,
    /// Number of GPUs occupied.
    pub gpus: usize,
    /// Wall time the placement occupies its GPUs.
    pub duration: f64,
}

/// Cluster-run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Time the last job finished.
    pub makespan: f64,
    /// Mean job wait time (start − arrival).
    pub avg_wait: f64,
    /// Mean GPU busy fraction over the makespan.
    pub utilization: f64,
    /// Number of placements executed.
    pub placements: usize,
}

/// A dispatcher decides what to run next given the waiting jobs and the
/// number of currently free GPUs.
pub trait Dispatcher {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Choose the next placement, or `None` to stay idle until the next
    /// event. `waiting` is sorted by arrival; every returned job id must
    /// come from it. `now` is the simulation clock.
    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement>;

    /// Earliest future instant the dispatcher wants to be consulted
    /// again even though no job event falls there. A backfilling
    /// planner holding an advance reservation returns its expiry —
    /// otherwise an idle node with a blocked queue would never wake.
    /// The default (`None`, for purely event-driven dispatchers)
    /// leaves the simulator's behaviour untouched.
    fn next_wakeup(&self, _now: f64) -> Option<f64> {
        None
    }
}

/// What happened at one point of a node's simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A job joined the node's waiting queue.
    Arrival {
        /// Cluster job id.
        job: usize,
    },
    /// A placement started occupying GPUs.
    Start {
        /// Jobs covered by the placement.
        job_ids: Vec<usize>,
        /// GPUs occupied.
        gpus: usize,
        /// Planned wall time.
        duration: f64,
    },
    /// A placement released its GPUs.
    Finish {
        /// Jobs that completed.
        job_ids: Vec<usize>,
        /// GPUs released.
        gpus: usize,
    },
}

/// One entry of a node's (or the merged cluster's) event stream.
///
/// `(time, node, seq)` is a total order: `seq` increases monotonically
/// within a node, so merging per-node streams under this key yields one
/// deterministic cluster timeline regardless of how node simulations
/// were interleaved across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEvent {
    /// Simulation time of the event.
    pub time: f64,
    /// Node the event happened on.
    pub node: usize,
    /// Per-node sequence number (ties on `time` resolve by `seq`).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Raw per-node counters a finished [`NodeRun`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node id.
    pub node: usize,
    /// Jobs that arrived on this node.
    pub jobs: usize,
    /// Jobs whose placements finished.
    pub completed: usize,
    /// Placements executed.
    pub placements: usize,
    /// Node clock after the final drain (0 for an idle node).
    pub makespan: f64,
    /// `Σ duration × gpus` over the node's placements.
    pub busy_gpu_seconds: f64,
    /// `Σ (start − arrival)` over the node's jobs.
    pub wait_sum: f64,
}

/// One node's resumable event loop: a clock, `n_gpus` GPUs, a waiting
/// queue, a dispatcher, and the event stream produced so far.
///
/// The loop body is the exact cycle the original single-node simulator
/// ran — absorb due arrivals, let the dispatcher start work, advance to
/// the next event, release finished placements — except that it stops
/// at a `horizon` so a multi-node driver can inject the next epoch's
/// arrivals. A dispatch falling exactly *on* the horizon is deferred to
/// the next [`NodeRun::advance_until`] call: co-timed arrivals must be
/// on the queue before the dispatcher sees the freed GPUs, exactly as
/// if all events lived in one merged queue.
#[derive(Debug)]
pub struct NodeRun<D: Dispatcher> {
    node: usize,
    n_gpus: usize,
    dispatcher: D,
    clock: f64,
    free: usize,
    /// Future arrivals, non-decreasing in time.
    arrivals: VecDeque<ClusterJob>,
    waiting: Vec<ClusterJob>,
    /// `(finish_time, gpus, job_ids)` of running placements.
    running: Vec<(f64, usize, Vec<usize>)>,
    busy_gpu_seconds: f64,
    wait_sum: f64,
    placements: usize,
    jobs: usize,
    completed: usize,
    seq: u64,
    /// Whether the waiting queue / GPU pool changed since the last
    /// dispatch, i.e. whether the dispatcher must be consulted again.
    dirty: bool,
    events: Vec<NodeEvent>,
    /// Scratch of [`NodeRun::dispatch`]: the arrival time of each job
    /// of the placement being started.
    placed_arrivals: Vec<f64>,
}

impl<D: Dispatcher> NodeRun<D> {
    /// A fresh node with `n_gpus` idle GPUs at time 0.
    #[must_use]
    pub fn new(node: usize, n_gpus: usize, dispatcher: D) -> Self {
        assert!(n_gpus >= 1);
        Self {
            node,
            n_gpus,
            dispatcher,
            clock: 0.0,
            free: n_gpus,
            arrivals: VecDeque::new(),
            waiting: Vec::new(),
            running: Vec::new(),
            busy_gpu_seconds: 0.0,
            wait_sum: 0.0,
            placements: 0,
            jobs: 0,
            completed: 0,
            seq: 0,
            dirty: true,
            events: Vec::new(),
            placed_arrivals: Vec::new(),
        }
    }

    /// The node's current clock.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Queue a future arrival. Arrivals must be pushed in non-decreasing
    /// time order and must not lie in the node's simulated past.
    ///
    /// # Panics
    /// Panics on out-of-order or past arrivals.
    pub fn push_arrival(&mut self, job: ClusterJob) {
        assert!(
            job.arrival + TIME_EPS >= self.clock,
            "arrival at {} is in the node's past (clock {})",
            job.arrival,
            self.clock
        );
        assert!(
            self.arrivals
                .back()
                .is_none_or(|b| b.arrival <= job.arrival + TIME_EPS),
            "arrivals must be pushed in time order"
        );
        self.jobs += 1;
        self.arrivals.push_back(job);
    }

    /// The node's load as a [`NodeSelector`](hrp_core::cluster_env::NodeSelector)
    /// sees it at time `now`: idle GPUs, queue length, and outstanding
    /// GPU-work (remaining run time of active placements plus the
    /// solo-time of everything queued).
    #[must_use]
    pub fn load(&self, suite: &Suite, now: f64) -> NodeLoad {
        let mut outstanding = 0.0;
        for (t, g, _) in &self.running {
            outstanding += (t - now).max(0.0) * *g as f64;
        }
        for j in self.waiting.iter().chain(self.arrivals.iter()) {
            outstanding += j.solo_time(suite);
        }
        NodeLoad {
            node: self.node,
            total_gpus: self.n_gpus,
            free_gpus: self.free,
            queued_jobs: self.waiting.len() + self.arrivals.len(),
            outstanding,
        }
    }

    /// Reserve room for `additional` more events. Million-job drivers
    /// pre-size the stream once instead of doubling through it.
    pub fn reserve_events(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    fn record(&mut self, time: f64, kind: EventKind) {
        self.events.push(NodeEvent {
            time,
            node: self.node,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Move due arrivals onto the waiting queue.
    fn absorb_arrivals(&mut self) {
        while let Some(j) = self.arrivals.front() {
            if j.arrival <= self.clock + TIME_EPS {
                let job = self.arrivals.pop_front().expect("peeked");
                self.record(job.arrival, EventKind::Arrival { job: job.id });
                self.waiting.push(job);
                self.dirty = true;
            } else {
                break;
            }
        }
    }

    /// Let the dispatcher start as much as it wants at the current
    /// clock.
    fn dispatch(&mut self, suite: &Suite) {
        while let Some(p) =
            self.dispatcher
                .next_placement(suite, &self.waiting, self.free, self.clock)
        {
            assert!(p.gpus <= self.free, "dispatcher over-allocated");
            assert!(!p.job_ids.is_empty());
            // Resolve every placed id in one sweep of the queue, accrue
            // waits in placement order (the f64 sum order the old
            // per-id scan used), then compact the queue once: the old
            // per-id `Vec::remove` cost O(|window| · queue) memmoves,
            // which dominates crowded drains at 100k+ jobs.
            let ids = &p.job_ids;
            let arrivals = &mut self.placed_arrivals;
            arrivals.clear();
            arrivals.resize(ids.len(), f64::NAN);
            let mut found = 0usize;
            for j in &self.waiting {
                if let Some(k) = ids.iter().position(|id| *id == j.id) {
                    if arrivals[k].is_nan() {
                        arrivals[k] = j.arrival;
                        found += 1;
                        if found == ids.len() {
                            break;
                        }
                    }
                }
            }
            assert!(found == ids.len(), "placement references waiting job");
            for a in arrivals.iter() {
                self.wait_sum += self.clock - a;
            }
            self.waiting.retain(|j| !ids.contains(&j.id));
            self.free -= p.gpus;
            self.busy_gpu_seconds += p.duration * p.gpus as f64;
            self.running
                .push((self.clock + p.duration, p.gpus, p.job_ids.clone()));
            self.placements += 1;
            self.record(
                self.clock,
                EventKind::Start {
                    job_ids: p.job_ids,
                    gpus: p.gpus,
                    duration: p.duration,
                },
            );
        }
    }

    /// Release placements that finished by the current clock.
    fn release_finished(&mut self) {
        // Stable in-place compaction: finish events are recorded in
        // the same entry order as before (seq assignment depends on
        // it) but without the per-release buffer allocation — this is
        // the hottest loop at million-job scale.
        let mut kept = 0;
        for i in 0..self.running.len() {
            if self.running[i].0 <= self.clock + TIME_EPS {
                let (t, g, ids) = std::mem::replace(&mut self.running[i], (0.0, 0, Vec::new()));
                self.free += g;
                self.completed += ids.len();
                self.record(
                    t,
                    EventKind::Finish {
                        job_ids: ids,
                        gpus: g,
                    },
                );
                self.dirty = true;
            } else {
                self.running.swap(kept, i);
                kept += 1;
            }
        }
        self.running.truncate(kept);
    }

    /// Advance the node through every event up to `horizon`.
    ///
    /// With `horizon = f64::INFINITY` the node drains completely (the
    /// end-of-trace deadlock check fires if the dispatcher strands
    /// waiting jobs). With a finite horizon the node stops with its
    /// clock at or before the horizon; a dispatch due exactly at the
    /// horizon stays pending until the next call, so the caller can
    /// first push the arrivals belonging to that instant.
    ///
    /// # Panics
    /// Panics if the dispatcher over-allocates, references unknown
    /// jobs, or (on a full drain) strands waiting jobs forever.
    pub fn advance_until(&mut self, suite: &Suite, horizon: f64) {
        loop {
            self.absorb_arrivals();
            // At the horizon: defer the dispatch to the next call (the
            // caller is about to push this instant's arrivals).
            if self.clock + TIME_EPS >= horizon {
                break;
            }
            if self.dirty {
                self.dispatch(suite);
                self.dirty = false;
            }
            let next_finish = self
                .running
                .iter()
                .map(|(t, _, _)| *t)
                .fold(f64::INFINITY, f64::min);
            let next_arrival = self.arrivals.front().map_or(f64::INFINITY, |j| j.arrival);
            // A strictly-future wakeup hint (e.g. a backfill
            // reservation expiring) counts as an event: without it a
            // reservation could wedge an otherwise idle node forever.
            let wake = self
                .dispatcher
                .next_wakeup(self.clock)
                .map_or(f64::INFINITY, |w| {
                    if w > self.clock + TIME_EPS {
                        w
                    } else {
                        f64::INFINITY
                    }
                });
            let next = next_finish.min(next_arrival).min(wake);
            if !next.is_finite() {
                if horizon.is_finite() {
                    break;
                }
                assert!(
                    self.waiting.is_empty(),
                    "deadlock: {} jobs waiting, dispatcher idle",
                    self.waiting.len()
                );
                break;
            }
            if next > horizon + TIME_EPS {
                break;
            }
            self.clock = next;
            self.release_finished();
            if wake <= next + TIME_EPS {
                // The wakeup instant arrived: consult the dispatcher
                // again even though no queue/pool event fired.
                self.dirty = true;
            }
        }
    }

    /// Finish the run: per-node counters plus the recorded event
    /// stream (and the dispatcher, for callers that want its state).
    #[must_use]
    pub fn finish(self) -> (NodeStats, Vec<NodeEvent>, D) {
        (
            NodeStats {
                node: self.node,
                jobs: self.jobs,
                completed: self.completed,
                placements: self.placements,
                makespan: self.clock,
                busy_gpu_seconds: self.busy_gpu_seconds,
                wait_sum: self.wait_sum,
            },
            self.events,
            self.dispatcher,
        )
    }

    /// `true` when the node holds no work at all: nothing running,
    /// nothing waiting, no future arrivals queued.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.running.is_empty() && self.waiting.is_empty() && self.arrivals.is_empty()
    }

    /// Whether the dispatcher must be consulted at the next advance
    /// (the queue or GPU pool changed since the last dispatch).
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The dispatcher's strictly-future wakeup hint at the node's
    /// current clock, if any — the instant an otherwise event-free
    /// node wants to be advanced again (e.g. a backfill reservation
    /// expiring). This is the hint [`NodeRun::advance_until`] consumes
    /// internally, exposed so an online driver can size its idle sleep.
    #[must_use]
    pub fn wakeup_hint(&self) -> Option<f64> {
        self.dispatcher
            .next_wakeup(self.clock)
            .filter(|w| *w > self.clock + TIME_EPS)
    }

    /// Shared access to the dispatcher (checkpointing reads its state).
    #[must_use]
    pub fn dispatcher(&self) -> &D {
        &self.dispatcher
    }

    /// Snapshot the node's full interior state for serialization. The
    /// dispatcher is not included — capture it separately through
    /// [`NodeRun::dispatcher`].
    #[must_use]
    pub fn export_state(&self) -> NodeRunState {
        NodeRunState {
            node: self.node,
            n_gpus: self.n_gpus,
            clock: self.clock,
            free: self.free,
            arrivals: self.arrivals.iter().cloned().collect(),
            waiting: self.waiting.clone(),
            running: self.running.clone(),
            busy_gpu_seconds: self.busy_gpu_seconds,
            wait_sum: self.wait_sum,
            placements: self.placements,
            jobs: self.jobs,
            completed: self.completed,
            seq: self.seq,
            dirty: self.dirty,
            events: self.events.clone(),
        }
    }

    /// Rebuild a node mid-run from an exported state and a dispatcher
    /// restored to the matching point. The pair resumes bit-identically
    /// to the run the state was captured from.
    ///
    /// # Panics
    /// Panics on inconsistent geometry (`n_gpus` zero or `free`
    /// exceeding the pool).
    #[must_use]
    pub fn from_state(state: NodeRunState, dispatcher: D) -> Self {
        assert!(state.n_gpus >= 1);
        assert!(state.free <= state.n_gpus, "more free GPUs than exist");
        Self {
            node: state.node,
            n_gpus: state.n_gpus,
            dispatcher,
            clock: state.clock,
            free: state.free,
            arrivals: state.arrivals.into(),
            waiting: state.waiting,
            running: state.running,
            busy_gpu_seconds: state.busy_gpu_seconds,
            wait_sum: state.wait_sum,
            placements: state.placements,
            jobs: state.jobs,
            completed: state.completed,
            seq: state.seq,
            dirty: state.dirty,
            events: state.events,
            placed_arrivals: Vec::new(),
        }
    }
}

/// A [`NodeRun`]'s complete interior state, exported for live
/// checkpointing (the `HRPS` snapshot in `hrp-serve`) and restored via
/// [`NodeRun::from_state`]. Every field that influences the event
/// stream is here — including the already-recorded events, so a merged
/// timeline digest survives a kill/restore cycle bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRunState {
    /// Node id.
    pub node: usize,
    /// GPU pool size.
    pub n_gpus: usize,
    /// Simulation clock.
    pub clock: f64,
    /// Currently idle GPUs.
    pub free: usize,
    /// Future arrivals, non-decreasing in time.
    pub arrivals: Vec<ClusterJob>,
    /// Absorbed jobs awaiting dispatch.
    pub waiting: Vec<ClusterJob>,
    /// `(finish_time, gpus, job_ids)` of running placements.
    pub running: Vec<(f64, usize, Vec<usize>)>,
    /// `Σ duration × gpus` over placements so far.
    pub busy_gpu_seconds: f64,
    /// `Σ (start − arrival)` over placed jobs so far.
    pub wait_sum: f64,
    /// Placements executed so far.
    pub placements: usize,
    /// Jobs that arrived on this node so far.
    pub jobs: usize,
    /// Jobs whose placements finished so far.
    pub completed: usize,
    /// Next event sequence number.
    pub seq: u64,
    /// Whether the dispatcher must be consulted at the next advance.
    pub dirty: bool,
    /// Events recorded so far (not yet drained).
    pub events: Vec<NodeEvent>,
}

/// Delegating shim so `&mut dyn Dispatcher` drives a [`NodeRun`].
struct DynDispatcher<'a>(&'a mut dyn Dispatcher);

impl Dispatcher for DynDispatcher<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        self.0.next_placement(suite, waiting, free_gpus, now)
    }

    fn next_wakeup(&self, now: f64) -> Option<f64> {
        self.0.next_wakeup(now)
    }
}

/// The simulator: runs a job trace through a dispatcher on `n_gpus`.
#[derive(Debug)]
pub struct ClusterSim {
    n_gpus: usize,
}

impl ClusterSim {
    /// A cluster with `n_gpus` identical GPUs.
    #[must_use]
    pub fn new(n_gpus: usize) -> Self {
        assert!(n_gpus >= 1);
        Self { n_gpus }
    }

    /// Run the trace to completion.
    ///
    /// # Panics
    /// Panics if the dispatcher returns inconsistent placements (unknown
    /// job ids or more GPUs than free).
    pub fn run(
        &self,
        suite: &Suite,
        jobs: Vec<ClusterJob>,
        dispatcher: &mut dyn Dispatcher,
    ) -> ClusterReport {
        self.run_traced(suite, jobs, dispatcher).0
    }

    /// Like [`ClusterSim::run`], also returning the event stream (all
    /// events carry node id 0).
    ///
    /// # Panics
    /// Same conditions as [`ClusterSim::run`].
    pub fn run_traced(
        &self,
        suite: &Suite,
        mut jobs: Vec<ClusterJob>,
        dispatcher: &mut dyn Dispatcher,
    ) -> (ClusterReport, Vec<NodeEvent>) {
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let total_jobs = jobs.len();
        let mut node = NodeRun::new(0, self.n_gpus, DynDispatcher(dispatcher));
        // One arrival per job plus at most one start and one finish
        // event per job (windows batch several jobs per placement).
        node.reserve_events(2 * total_jobs);
        for job in jobs {
            node.push_arrival(job);
        }
        node.advance_until(suite, f64::INFINITY);
        let (stats, events, _) = node.finish();
        let makespan = stats.makespan;
        let report = ClusterReport {
            makespan,
            avg_wait: if total_jobs > 0 {
                stats.wait_sum / total_jobs as f64
            } else {
                0.0
            },
            utilization: if makespan > 0.0 {
                stats.busy_gpu_seconds / (makespan * self.n_gpus as f64)
            } else {
                0.0
            },
            placements: stats.placements,
        };
        (report, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    /// Trivial dispatcher: one waiting job per free GPU, exclusively.
    struct OneByOne;

    impl Dispatcher for OneByOne {
        fn name(&self) -> &'static str {
            "one-by-one"
        }

        fn next_placement(
            &mut self,
            suite: &Suite,
            waiting: &[ClusterJob],
            free_gpus: usize,
            _now: f64,
        ) -> Option<Placement> {
            let job = waiting.iter().find(|j| j.gpus <= free_gpus)?;
            Some(Placement {
                job_ids: vec![job.id],
                gpus: job.gpus,
                duration: job.solo_time(suite),
            })
        }
    }

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    #[test]
    fn single_gpu_serialises_jobs() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let report = ClusterSim::new(1).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 20.0).abs() < 1e-9);
        assert!((report.avg_wait - 5.0).abs() < 1e-9, "{}", report.avg_wait);
        assert!((report.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_gpus_run_in_parallel() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let report = ClusterSim::new(2).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 10.0).abs() < 1e-9);
        assert!(report.avg_wait.abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_respected() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 100.0, 1, &s), // arrives late
        ];
        let report = ClusterSim::new(1).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 110.0).abs() < 1e-9);
        // Utilization counts idle waiting time.
        assert!(report.utilization < 0.2);
    }

    #[test]
    fn multi_gpu_job_takes_gang() {
        let s = suite();
        let jobs = vec![ClusterJob::new(0, "lavaMD", 0.0, 2, &s)];
        let report = ClusterSim::new(2).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 19.0).abs() < 1e-9);
        assert!((report.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_drains_to_a_zeroed_report() {
        let s = suite();
        let (report, events) = ClusterSim::new(2).run_traced(&s, Vec::new(), &mut OneByOne);
        assert_eq!(
            report,
            ClusterReport {
                makespan: 0.0,
                avg_wait: 0.0,
                utilization: 0.0,
                placements: 0,
            }
        );
        assert!(events.is_empty());
    }

    #[test]
    fn simultaneous_arrivals_keep_submission_order() {
        let s = suite();
        // Four jobs at the same instant on one GPU: OneByOne must serve
        // them in submission order (the waiting queue is arrival-stable).
        let jobs: Vec<ClusterJob> = ["stream", "kmeans", "pathfinder", "lud_A"]
            .iter()
            .enumerate()
            .map(|(i, n)| ClusterJob::new(i, n, 5.0, 1, &s))
            .collect();
        let (report, events) = ClusterSim::new(1).run_traced(&s, jobs, &mut OneByOne);
        assert_eq!(report.placements, 4);
        let started: Vec<usize> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Start { job_ids, .. } => Some(job_ids[0]),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![0, 1, 2, 3]);
        // All four arrivals were recorded at the shared instant, before
        // any start.
        assert!(events[..4]
            .iter()
            .all(|e| matches!(e.kind, EventKind::Arrival { .. }) && e.time == 5.0));
    }

    #[test]
    fn traced_run_reports_exactly_what_run_reports() {
        let s = suite();
        let jobs = |arr: f64| {
            vec![
                ClusterJob::new(0, "stream", arr, 1, &s),
                ClusterJob::new(1, "lavaMD", arr + 2.0, 1, &s),
                ClusterJob::new(2, "kmeans", arr + 2.0, 1, &s),
            ]
        };
        let plain = ClusterSim::new(2).run(&s, jobs(1.0), &mut OneByOne);
        let (traced, events) = ClusterSim::new(2).run_traced(&s, jobs(1.0), &mut OneByOne);
        assert_eq!(plain, traced);
        // 3 arrivals + 3 starts + 3 finishes, seq strictly increasing.
        assert_eq!(events.len(), 9);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.iter().all(|e| e.node == 0));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn stranded_jobs_are_a_deadlock() {
        let s = suite();
        // A 4-GPU job on a 2-GPU pool can never start; OneByOne skips
        // it, and the drain must flag the stranded queue rather than
        // spin or exit silently.
        let jobs = vec![ClusterJob::new(0, "lavaMD", 0.0, 4, &s)];
        let _ = ClusterSim::new(2).run(&s, jobs, &mut OneByOne);
    }

    #[test]
    fn node_run_defers_the_horizon_dispatch() {
        let s = suite();
        // stream solo = 10 s. Advance to the exact finish time of the
        // first placement: the release happens, but the freed GPU must
        // not be re-dispatched until the caller had a chance to push
        // co-timed arrivals.
        let mut node = NodeRun::new(0, 1, OneByOne);
        node.push_arrival(ClusterJob::new(0, "stream", 0.0, 1, &s));
        node.advance_until(&s, 5.0);
        assert_eq!(node.load(&s, 5.0).free_gpus, 0, "stream still running");
        node.push_arrival(ClusterJob::new(1, "kmeans", 5.0, 1, &s));
        node.advance_until(&s, 10.0);
        // The finish at t = 10 released the GPU, but the dispatch at
        // t = 10 is deferred to the next call.
        let load = node.load(&s, 10.0);
        assert_eq!(load.free_gpus, 1);
        assert_eq!(load.queued_jobs, 1);
        node.push_arrival(ClusterJob::new(2, "pathfinder", 10.0, 1, &s));
        node.advance_until(&s, f64::INFINITY);
        let (stats, events, _) = node.finish();
        assert_eq!(stats.completed, 3);
        // kmeans (id 1, waiting since 5) starts before pathfinder.
        let starts: Vec<usize> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Start { job_ids, .. } => Some(job_ids[0]),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "node's past")]
    fn past_arrivals_are_rejected() {
        let s = suite();
        let mut node = NodeRun::new(0, 1, OneByOne);
        node.push_arrival(ClusterJob::new(0, "stream", 20.0, 1, &s));
        node.advance_until(&s, f64::INFINITY);
        node.push_arrival(ClusterJob::new(1, "stream", 5.0, 1, &s));
    }
}
