//! Multi-node cluster simulation with deterministic event-stream
//! merging (the paper's §VI "many nodes" future work).
//!
//! A [`MultiNodeSim`] is `N` simulated nodes, each running its own
//! dispatcher over its own [`crate::sim::NodeRun`] event loop, fed from
//! one global arrival queue by a pluggable [`NodeSelector`]
//! (round-robin, least-loaded, or an RL policy — see [`crate::select`]).
//!
//! # Epochs and the merge barrier
//!
//! The global trace is processed arrival-instant by arrival-instant by
//! the stepped [`ClusterDrive`] core (also driven action-by-action by
//! the RL placement environment in [`crate::place`]):
//!
//! 1. **Advance** — every node simulates up to the next arrival time
//!    `t`, one after another on the calling thread (nodes are
//!    independent between arrivals, so the order does not matter; an
//!    epoch holds a few microseconds of node work, less than spawning
//!    a thread would cost);
//! 2. **Barrier + select** — with all nodes parked at `t`, their load
//!    snapshots are taken and the selector assigns the instant's jobs
//!    one by one, each assignment updating the snapshot it hands the
//!    next (a burst spreads out instead of dog-piling one node);
//! 3. after the last arrival, a final advance drains every node, and
//!    the nodes' [`EventLog`]s are merged into the timeline
//!    ([`EventLog::merge`]: a k-way merge of the node logs that frees
//!    each node's record chunks as it empties them, the job-id arenas
//!    concatenated and the ranges rebased).
//!
//! # Determinism contract
//!
//! Selector decisions depend only on the (deterministic) barrier
//! snapshots, and every node's event stream carries a per-node sequence
//! number, so merging the streams under the stable `(time, node, seq)`
//! key yields **one bit-identical cluster timeline** for the batch
//! driver and the incremental one (the online service, killed and
//! restored or not). A one-node cluster executes the exact event cycle
//! of [`ClusterSim::run`](crate::sim::ClusterSim::run) and is
//! event-for-event identical to it (both checked on every case of
//! the oracle harness, `tests/common/harness.rs`; the `cluster/` rows
//! of `tests/golden_cluster.rs` pin the schedules).
//!
//! ```
//! use hrp_cluster::multinode::MultiNodeSim;
//! use hrp_cluster::select::{dispatcher_for, SelectorKind};
//! use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
//! use hrp_gpusim::GpuArch;
//! use hrp_workloads::Suite;
//!
//! let suite = Suite::paper_suite(&GpuArch::a100());
//! let jobs = generate(&suite, &TraceConfig::new(TraceKind::Staggered, 12, 0));
//! let kind = SelectorKind::LeastLoaded;
//! let mut selector = kind.build();
//! let report = MultiNodeSim::new(2, 2).run(&suite, jobs, selector.as_mut(), |_| {
//!     dispatcher_for(kind, 2, 0.0)
//! });
//! assert_eq!(report.completed_jobs(), 12);
//! assert_eq!(report.per_node.len(), 2);
//! assert!(report.aggregate.makespan > 0.0);
//! ```

use crate::job::ClusterJob;
use crate::sim::{ClusterReport, Dispatcher, EventKind, EventLog, NodeRun, NodeStats};
use hrp_core::cluster_env::{NodeLoad, NodeSelector};
use hrp_gpusim::rng::{fnv1a, FNV_OFFSET};
use hrp_workloads::Suite;

/// The merged, `(time, node, seq)`-ordered cluster event stream. Two
/// timelines are equal when they show the same events
/// ([`EventLog`]'s logical equality).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterTimeline {
    /// Merged events in deterministic order.
    pub events: EventLog,
}

impl ClusterTimeline {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a hash over the canonical encoding of every event — the
    /// "schedule fingerprint" golden tests pin. Two runs share a digest
    /// iff they produced the identical event sequence (times compared
    /// bit-for-bit).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let word = |h: u64, v: u64| fnv1a(h, &v.to_le_bytes());
        let mut h = FNV_OFFSET;
        for e in self.events.iter() {
            h = word(h, e.time.to_bits());
            h = word(h, e.node as u64);
            h = word(h, e.seq);
            match e.kind {
                EventKind::Arrival { job } => {
                    h = fnv1a(h, &[0]);
                    h = word(h, job as u64);
                }
                EventKind::Start {
                    job_ids,
                    gpus,
                    duration,
                } => {
                    h = fnv1a(h, &[1]);
                    h = word(h, job_ids.len() as u64);
                    for id in job_ids {
                        h = word(h, *id as u64);
                    }
                    h = word(h, gpus as u64);
                    h = word(h, duration.to_bits());
                }
                EventKind::Finish { job_ids, gpus } => {
                    h = fnv1a(h, &[2]);
                    h = word(h, job_ids.len() as u64);
                    for id in job_ids {
                        h = word(h, *id as u64);
                    }
                    h = word(h, gpus as u64);
                }
            }
        }
        h
    }
}

/// One node's digest of a multi-node run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// Node id.
    pub node: usize,
    /// Jobs the selector routed here.
    pub jobs: usize,
    /// Placements the node's dispatcher executed.
    pub placements: usize,
    /// Time the node's last placement finished (0 for an idle node).
    pub makespan: f64,
    /// Mean GPU busy fraction over the node's makespan.
    pub utilization: f64,
    /// Mean wait of the node's jobs.
    pub avg_wait: f64,
}

impl NodeSummary {
    /// Completed jobs per second of node makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.jobs as f64 / self.makespan
        } else {
            0.0
        }
    }
}

/// How much synchronization work a multi-node run performed.
///
/// The counters are *logical*: they count epoch barriers and the node
/// advances issued at them, not wall-clock work, so they are part of a
/// report's `PartialEq`. The batch driver pays one round per arrival
/// instant plus the final drain; an incremental driver pays one round
/// per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Epoch barriers (batch) or scheduling cycles (incremental).
    pub sync_rounds: u64,
    /// Node advances issued across those rounds.
    pub node_advances: u64,
}

/// Results of a multi-node run: per-node digests, cluster-level
/// aggregates, and the merged deterministic timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiNodeReport {
    /// One summary per node, indexed by node id.
    pub per_node: Vec<NodeSummary>,
    /// Cluster-level aggregate (for one node, bit-identical to the
    /// single-node [`ClusterSim::run`](crate::sim::ClusterSim::run)
    /// report on the same trace).
    pub aggregate: ClusterReport,
    /// The merged `(time, node, seq)`-ordered event stream.
    pub timeline: ClusterTimeline,
    /// Synchronization-work counters (they differ between the batch
    /// driver and an incremental one; everything else in the report is
    /// driver-invariant, bit for bit).
    pub sync: SyncStats,
}

impl MultiNodeReport {
    /// Jobs whose placements finished, summed over the timeline's
    /// finish events — the conservation check the property suite pins.
    #[must_use]
    pub fn completed_jobs(&self) -> usize {
        self.timeline
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Finish { job_ids, .. } => job_ids.len(),
                _ => 0,
            })
            .sum()
    }

    /// Completed jobs per second of cluster makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.aggregate.makespan > 0.0 {
            self.completed_jobs() as f64 / self.aggregate.makespan
        } else {
            0.0
        }
    }
}

/// Most nodes a cluster may have: selector and placement masks are
/// `u64`, one bit per node. Checkpoint decoders hold forged geometry to
/// the same bound before any constructor asserts it.
pub const MAX_NODES: usize = 64;

/// Most GPUs a checkpoint may claim per node (the pool sizes slot
/// trees and per-GPU bookkeeping, so a blob does not get to pick it
/// freely).
pub const MAX_GPUS_PER_NODE: usize = 1024;

/// A resumable multi-node simulation, stepped placement by placement —
/// the shared core under [`MultiNodeSim::run`] (which drives it from a
/// [`NodeSelector`]) and the RL placement environment in
/// [`crate::place`] (which drives it action by action, so training
/// rewards come from exactly the simulation the evaluation runs).
///
/// The cycle per arrival instant `t` is the epoch of the module docs:
/// [`ClusterDrive::advance_to`]`(t)`, one [`ClusterDrive::place`] per job
/// of the instant, and after the last instant [`ClusterDrive::finish`].
pub struct ClusterDrive<'a, D: Dispatcher> {
    suite: &'a Suite,
    gpus_per_node: usize,
    runs: Vec<NodeRun<D>>,
    loads: Vec<NodeLoad>,
    placed: usize,
    sync: SyncStats,
}

impl<'a, D: Dispatcher> ClusterDrive<'a, D> {
    /// A fresh cluster of `nodes` nodes at time 0, with load snapshots
    /// taken (all idle). `nodes` is capped at 64 (selector masks are
    /// `u64`).
    pub fn new<F: FnMut(usize) -> D>(
        suite: &'a Suite,
        nodes: usize,
        gpus_per_node: usize,
        mut make_dispatcher: F,
    ) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes),
            "1..={MAX_NODES} nodes, got {nodes}"
        );
        assert!(gpus_per_node >= 1);
        let runs: Vec<NodeRun<D>> = (0..nodes)
            .map(|i| NodeRun::new(i, gpus_per_node, make_dispatcher(i)))
            .collect();
        let loads = runs.iter().map(|run| run.load(suite, 0.0)).collect();
        Self {
            suite,
            gpus_per_node,
            runs,
            loads,
            placed: 0,
            sync: SyncStats::default(),
        }
    }

    /// Pre-size every node's event log for a trace of `expected_jobs`
    /// jobs (spread evenly; skewed routing just grows the hot node's
    /// log as usual).
    pub fn reserve_jobs(&mut self, expected_jobs: usize) {
        let per_node = expected_jobs / self.runs.len().max(1);
        for run in &mut self.runs {
            run.reserve_jobs(per_node);
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.runs.len()
    }

    /// The current per-node load snapshots (refreshed by
    /// [`ClusterDrive::advance_to`], updated incrementally by
    /// [`ClusterDrive::place`]) — exactly what a [`NodeSelector`] is
    /// consulted with.
    #[must_use]
    pub fn loads(&self) -> &[NodeLoad] {
        &self.loads
    }

    fn advance_nodes(&mut self, horizon: f64) {
        self.sync.sync_rounds += 1;
        self.sync.node_advances += self.runs.len() as u64;
        for run in &mut self.runs {
            run.advance_until(self.suite, horizon);
        }
    }

    /// Advance every node to the arrival instant `t` and refresh the
    /// load snapshots — the epoch barrier.
    pub fn advance_to(&mut self, t: f64) {
        self.advance_nodes(t);
        for (load, run) in self.loads.iter_mut().zip(&self.runs) {
            *load = run.load(self.suite, t);
        }
    }

    /// Route `job` to `node`: the snapshot is updated incrementally (so
    /// the next decision of the same burst sees this assignment) and
    /// the job joins the node's arrival queue.
    ///
    /// # Panics
    /// Panics if `node` is out of range or the job cannot fit on a
    /// node.
    pub fn place(&mut self, node: usize, job: ClusterJob) {
        assert!(node < self.nodes(), "node {node} of {}", self.nodes());
        assert!(
            usize::from(job.gpus) <= self.gpus_per_node,
            "job {} needs {} GPUs but nodes have {}",
            job.id,
            job.gpus,
            self.gpus_per_node
        );
        self.loads[node].outstanding += job.solo_time(self.suite);
        self.loads[node].queued_jobs += 1;
        self.placed += 1;
        self.runs[node].push_arrival(job);
    }

    /// Drain every node to the end of time, merge the per-node event
    /// streams under the `(time, node, seq)` key, and assemble the
    /// report. The drive is spent afterwards.
    ///
    /// # Panics
    /// Panics if called twice, or if a node's dispatcher strands jobs
    /// (the per-node deadlock check).
    pub fn finish(&mut self) -> MultiNodeReport {
        assert!(!self.runs.is_empty(), "drive already finished");
        self.advance_nodes(f64::INFINITY);
        let (stats, streams): (Vec<NodeStats>, Vec<EventLog>) = std::mem::take(&mut self.runs)
            .into_iter()
            .map(|run| {
                let (stats, events, _) = run.finish();
                (stats, events)
            })
            .unzip();
        let events = EventLog::merge(streams);
        assemble_report(stats, events, self.gpus_per_node, self.placed, self.sync)
    }

    /// Jobs routed through [`ClusterDrive::place`] so far.
    #[must_use]
    pub fn placed(&self) -> usize {
        self.placed
    }

    /// `true` when `node` is *quiescent*: nothing running, waiting, or
    /// queued, and no pending dispatch.
    /// Advancing a quiescent node to any horizon is a no-op and its
    /// [`NodeLoad`] is time-invariant (outstanding exactly `0.0`), so
    /// an incremental driver may skip it without perturbing the
    /// timeline or the selector inputs — the dirty-set contract the
    /// online service (`hrp-serve`) builds on.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node_is_quiescent(&self, node: usize) -> bool {
        let run = &self.runs[node];
        run.is_idle() && !run.is_dirty()
    }

    /// Advance a *single* node to `t` and refresh its load snapshot —
    /// the incremental counterpart of [`ClusterDrive::advance_to`],
    /// used by dirty-set drivers that re-plan only non-quiescent
    /// nodes. Counts one node-advance; the per-cycle round counter is
    /// bumped separately via [`ClusterDrive::note_round`].
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn advance_node_to(&mut self, node: usize, t: f64) {
        self.sync.node_advances += 1;
        let run = &mut self.runs[node];
        run.advance_until(self.suite, t);
        self.loads[node] = run.load(self.suite, t);
    }

    /// Count one incremental scheduling cycle as a synchronization
    /// round, so [`SyncStats::sync_rounds`] stays comparable between
    /// the batch barrier driver (one round per epoch) and an
    /// incremental driver (one round per cycle).
    pub fn note_round(&mut self) {
        self.sync.sync_rounds += 1;
    }

    /// One node's [`NodeRun`] (checkpointing reads node state through
    /// this).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node(&self, node: usize) -> &NodeRun<D> {
        &self.runs[node]
    }

    /// Rebuild a drive mid-run from exported node states (paired with
    /// dispatchers restored to the matching point), the instant `now`
    /// of the last advance, and the sync counters. Resumes
    /// bit-identically to the drive the states were captured from.
    ///
    /// The rest is worked out from the states. Every routed job arrived
    /// on one node, so the routing count is the sum of the nodes' jobs.
    /// The load snapshots are taken again at `now`: a node advanced
    /// there gets the snapshot that advance took plus the solo times of
    /// the jobs placed on it since, summed in the same order, and a node
    /// skipped since its last advance is quiescent, so its snapshot does
    /// not depend on the instant.
    ///
    /// # Panics
    /// Panics on inconsistent geometry (no nodes, more than 64, or a
    /// state whose GPU pool disagrees with `gpus_per_node`).
    #[must_use]
    pub fn from_states(
        suite: &'a Suite,
        gpus_per_node: usize,
        parts: Vec<(crate::sim::NodeRunState, D)>,
        now: f64,
        sync: SyncStats,
    ) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&parts.len()),
            "1..={MAX_NODES} nodes, got {}",
            parts.len()
        );
        let placed = parts.iter().map(|(state, _)| state.jobs).sum();
        let runs: Vec<NodeRun<D>> = parts
            .into_iter()
            .map(|(state, dispatcher)| {
                assert_eq!(state.n_gpus, gpus_per_node, "node geometry mismatch");
                NodeRun::from_state(state, dispatcher)
            })
            .collect();
        let loads = runs.iter().map(|run| run.load(suite, now)).collect();
        Self {
            suite,
            gpus_per_node,
            runs,
            loads,
            placed,
            sync,
        }
    }
}

/// Assemble the report around the merged event stream.
fn assemble_report(
    stats: Vec<NodeStats>,
    events: EventLog,
    gpus_per_node: usize,
    total_jobs: usize,
    sync: SyncStats,
) -> MultiNodeReport {
    debug_assert_eq!(
        stats.iter().map(|s| s.completed).sum::<usize>(),
        total_jobs,
        "every job must complete"
    );

    let makespan = stats.iter().map(|s| s.makespan).fold(0.0, f64::max);
    let wait_sum: f64 = stats.iter().map(|s| s.wait_sum).sum();
    let busy: f64 = stats.iter().map(|s| s.busy_gpu_seconds).sum();
    let total_gpus = stats.len() * gpus_per_node;
    let aggregate = ClusterReport {
        makespan,
        avg_wait: if total_jobs > 0 {
            wait_sum / total_jobs as f64
        } else {
            0.0
        },
        utilization: if makespan > 0.0 {
            busy / (makespan * total_gpus as f64)
        } else {
            0.0
        },
        placements: stats.iter().map(|s| s.placements).sum(),
    };
    let per_node = stats
        .into_iter()
        .map(|s| NodeSummary {
            node: s.node,
            jobs: s.jobs,
            placements: s.placements,
            makespan: s.makespan,
            utilization: if s.makespan > 0.0 {
                s.busy_gpu_seconds / (s.makespan * gpus_per_node as f64)
            } else {
                0.0
            },
            avg_wait: if s.jobs > 0 {
                s.wait_sum / s.jobs as f64
            } else {
                0.0
            },
        })
        .collect();
    MultiNodeReport {
        per_node,
        aggregate,
        timeline: ClusterTimeline { events },
        sync,
    }
}

/// Group a sorted trace into `(instant, burst)` pairs of co-timed
/// arrivals (the epoch structure both the simulator and the placement
/// environment walk).
pub(crate) fn burst_bounds(jobs: &[ClusterJob]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut start = 0;
    while start < jobs.len() {
        let t = jobs[start].arrival;
        let mut end = start + 1;
        while end < jobs.len() && jobs[end].arrival.total_cmp(&t).is_eq() {
            end += 1;
        }
        bounds.push((start, end));
        start = end;
    }
    bounds
}

/// A cluster of `nodes` identical nodes with `gpus_per_node` GPUs each.
#[derive(Debug)]
pub struct MultiNodeSim {
    nodes: usize,
    gpus_per_node: usize,
    fair_order: bool,
}

impl MultiNodeSim {
    /// New cluster. `nodes` is capped at 64 (selector masks are `u64`).
    #[must_use]
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes),
            "1..={MAX_NODES} nodes, got {nodes}"
        );
        assert!(gpus_per_node >= 1);
        Self {
            nodes,
            gpus_per_node,
            fair_order: false,
        }
    }

    /// Does nothing: every node advances on the calling thread. The
    /// name stays only because the frozen benchmark package calls it;
    /// ROADMAP item 2f releases it from there and deletes it.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Per-user fair-share ordering: each same-instant burst is
    /// reordered by tenant karma ([`crate::fair::apply_fair_order`]).
    /// The reorder happens once on the sorted trace, before the first
    /// epoch; the result is the oracle the service's ordering-only
    /// admission tier is held to. A no-op on untagged (`user: 0`) traces.
    #[must_use]
    pub fn with_fair_order(mut self) -> Self {
        self.fair_order = true;
        self
    }

    /// Run a global job trace through the cluster: `selector` routes
    /// each arrival to a node, `make_dispatcher(node)` builds the
    /// node-local dispatcher.
    ///
    /// # Panics
    /// Panics if a job requests more GPUs than a node has, if the
    /// selector returns an out-of-range node, or if a node's dispatcher
    /// strands jobs (the per-node deadlock check).
    pub fn run<D, F>(
        &self,
        suite: &Suite,
        mut jobs: Vec<ClusterJob>,
        selector: &mut dyn NodeSelector,
        make_dispatcher: F,
    ) -> MultiNodeReport
    where
        D: Dispatcher,
        F: FnMut(usize) -> D,
    {
        for j in &jobs {
            assert!(
                usize::from(j.gpus) <= self.gpus_per_node,
                "job {} needs {} GPUs but nodes have {}",
                j.id,
                j.gpus,
                self.gpus_per_node
            );
        }
        // Stable by arrival: simultaneous submissions keep their order,
        // exactly like the single-node simulator. Fair-share ordering
        // then reorders *within* each same-instant burst only.
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        if self.fair_order {
            crate::fair::apply_fair_order(suite, &mut jobs);
        }

        let mut drive = ClusterDrive::new(suite, self.nodes, self.gpus_per_node, make_dispatcher);
        drive.reserve_jobs(jobs.len());

        for (start, end) in burst_bounds(&jobs) {
            // Epoch: advance every node to this arrival instant, then
            // place the instant's jobs against the barrier snapshots.
            drive.advance_to(jobs[start].arrival);
            for job in &jobs[start..end] {
                let work = job.solo_time(suite);
                let node = selector.select(usize::from(job.gpus), work, drive.loads());
                assert!(
                    node < self.nodes,
                    "selector picked node {node} of {}",
                    self.nodes
                );
                drive.place(node, job.clone());
            }
        }
        drive.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosched::CoSchedulingDispatcher;
    use crate::select::{LeastLoaded, RoundRobin, SelectorKind};
    use crate::sim::ClusterSim;
    use crate::trace::{generate, TraceConfig, TraceKind};
    use hrp_core::policies::MpsOnly;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// The `n`-job staggered demo trace (seed-independent).
    fn staggered(suite: &Suite, n: usize) -> Vec<ClusterJob> {
        generate(suite, &TraceConfig::new(TraceKind::Staggered, n, 0))
    }

    fn dispatcher() -> CoSchedulingDispatcher<MpsOnly> {
        CoSchedulingDispatcher::new(MpsOnly, 4, 4)
    }

    #[test]
    fn one_node_matches_the_single_node_simulator_bit_for_bit() {
        let s = suite();
        let jobs = staggered(&s, 20);
        let mut rr = RoundRobin::default();
        let multi = MultiNodeSim::new(1, 2).run(&s, jobs.clone(), &mut rr, |_| dispatcher());
        let mut single = dispatcher();
        let (base, base_events) = ClusterSim::new(2).run_traced(&s, jobs, &mut single);
        assert_eq!(multi.aggregate, base);
        assert_eq!(multi.timeline.events, base_events);
        assert_eq!(multi.per_node.len(), 1);
        assert_eq!(multi.per_node[0].jobs, 20);
    }

    #[test]
    fn round_robin_cycles_and_least_loaded_balances() {
        let s = suite();
        let jobs = staggered(&s, 16);
        let mut rr = RoundRobin::default();
        let a = MultiNodeSim::new(4, 2).run(&s, jobs.clone(), &mut rr, |_| dispatcher());
        assert!(
            a.per_node.iter().all(|n| n.jobs == 4),
            "round-robin spreads 16 jobs evenly: {:?}",
            a.per_node.iter().map(|n| n.jobs).collect::<Vec<_>>()
        );
        let mut ll = LeastLoaded;
        let b = MultiNodeSim::new(4, 2).run(&s, jobs, &mut ll, |_| dispatcher());
        assert_eq!(b.completed_jobs(), 16);
        assert!(b.per_node.iter().all(|n| n.jobs > 0), "no node starves");
    }

    #[test]
    fn more_nodes_shorten_the_makespan() {
        let s = suite();
        let jobs = staggered(&s, 24);
        let mut one = SelectorKind::LeastLoaded.build();
        let single = MultiNodeSim::new(1, 2).run(&s, jobs.clone(), one.as_mut(), |_| dispatcher());
        let mut four = SelectorKind::LeastLoaded.build();
        let quad = MultiNodeSim::new(4, 2).run(&s, jobs, four.as_mut(), |_| dispatcher());
        assert!(
            quad.aggregate.makespan < single.aggregate.makespan,
            "4 nodes {} should beat 1 node {}",
            quad.aggregate.makespan,
            single.aggregate.makespan
        );
    }

    #[test]
    fn digest_tracks_the_event_sequence() {
        let s = suite();
        let jobs = staggered(&s, 12);
        let mut rr = RoundRobin::default();
        let a = MultiNodeSim::new(2, 2).run(&s, jobs.clone(), &mut rr, |_| dispatcher());
        let mut ll = LeastLoaded;
        let b = MultiNodeSim::new(2, 2).run(&s, jobs, &mut ll, |_| dispatcher());
        assert_eq!(a.timeline.digest(), a.timeline.digest(), "digest is pure");
        // The two selectors place differently on this trace, and the
        // digest must see it.
        assert_ne!(a.timeline.events, b.timeline.events);
        assert_ne!(a.timeline.digest(), b.timeline.digest());
    }

    #[test]
    #[should_panic(expected = "needs 4 GPUs")]
    fn oversized_jobs_are_rejected_up_front() {
        let s = suite();
        let jobs = vec![ClusterJob::new(0, "lavaMD", 0.0, 4, &s)];
        let mut rr = RoundRobin::default();
        let _ = MultiNodeSim::new(2, 2).run(&s, jobs, &mut rr, |_| dispatcher());
    }

    #[test]
    fn counters_are_fanout_invariant() {
        // SyncStats counts logical rounds: one per arrival instant plus
        // the final drain, each advancing every node.
        let s = suite();
        let jobs = staggered(&s, 16);
        let mut sel = SelectorKind::LeastLoaded.build();
        let report = MultiNodeSim::new(4, 2).run(&s, jobs, sel.as_mut(), |_| dispatcher());
        assert_eq!(report.sync.sync_rounds, 5, "4 instants + final drain");
        assert_eq!(report.sync.node_advances, 20);
    }

    #[test]
    fn digest_mixes_every_bit_of_a_sequence_number() {
        // A record holds a node's seq in 32 bits (`EventLog::push`
        // refuses a wider one), and the digest must see the top one: a
        // truncation to 31 bits would alias these two timelines.
        let timeline = |seq: u64| {
            let mut events = EventLog::default();
            let kind = EventKind::Arrival { job: 0 };
            let event = crate::sim::NodeEvent {
                time: 1.0,
                node: 0,
                seq,
                kind,
            };
            events.push(event).expect("fits a record");
            ClusterTimeline { events }
        };
        let a = timeline(1);
        let b = timeline(1 + (1 << 31));
        assert_eq!(b.events.get(0).seq, 1 + (1 << 31));
        assert_ne!(a.digest(), b.digest());
    }
}
