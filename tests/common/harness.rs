//! One differential oracle for the scheduler stack.
//!
//! A [`Case`] is a job source, `nodes` nodes of [`GPUS`] GPUs, a
//! selector (which also picks the node dispatchers, `dispatcher_for`),
//! a walltime-estimate error and an optional admission tier. [`run`]
//! runs it every way it can be run:
//!
//! * the uninterrupted service (`SchedulerService::run_to_close`);
//! * the service killed at each of the case's [`Cut`]s, checkpointed to
//!   an `HRPS` blob, restored and drained;
//! * the batch `MultiNodeSim`, over the admitted trace when the
//!   admission tier is on and the offered one otherwise;
//! * the batch fair-order oracle when the admission tier only reorders.
//!
//! A one-node case needs no further run: a one-node `MultiNodeSim` is
//! the single-node simulator.
//!
//! Every run must show the same events, per-node rows and aggregate,
//! and the served runs the same `ServeStats`, admission digest and
//! offer. The named checkers then hold for every run, and a pin row
//! ([`check_pin`]) for every run that measures its keys.
//!
//! The properties draw their cases as a [`Draw`]: the whole space, or
//! the slice of it a property names.

use hrp::cluster::fair::{job_cost, user_fairness};
use hrp::cluster::multinode::SyncStats;
use hrp::cluster::sim::EventKind;
use hrp::cluster::trace::{generate, TraceKind, TRACE_KINDS};
use hrp::cluster::{
    ClusterJob, ClusterReport, ClusterTimeline, FairShare, MultiNodeReport, MultiNodeSim,
    NodeSummary, SelectorKind, TraceConfig,
};
use hrp::prelude::*;
use hrp::serve::{
    dispatcher_for, restore, AdmissionConfig, ArrivalSource, LoadGen, LoadShape, SchedulerService,
    ServeConfig, ServeStats, ServiceStep, SourcePoll, TraceSource,
};
use proptest::prelude::*;

/// GPUs per node of every case.
pub const GPUS: usize = 2;

/// Where a case's jobs come from.
#[derive(Clone, Debug)]
pub enum Source {
    /// A generated trace, served through a `TraceSource`.
    Trace(TraceConfig),
    /// An open-loop load generator whose `users` tenants are Zipf(1.2)
    /// skewed.
    Load {
        shape: LoadShape,
        rate: f64,
        duration: f64,
        seed: u64,
        users: u32,
    },
    /// A hand-shaped trace, one `(benchmark pick, arrival slot of 3 s,
    /// two GPUs)` per job. No source serves it: it runs in batch only.
    Shape(Vec<(usize, u32, bool)>),
}

impl Source {
    /// The jobs the source offers, at their submission instants.
    pub fn jobs(&self, suite: &Suite) -> Vec<ClusterJob> {
        match self {
            Self::Trace(cfg) => generate(suite, cfg),
            Self::Load { .. } => {
                let mut source = self.served(suite).expect("a load generator serves");
                std::iter::from_fn(|| match source.poll() {
                    SourcePoll::Job(job) => Some(job),
                    _ => None,
                })
                .collect()
            }
            Self::Shape(shape) => shape
                .iter()
                .enumerate()
                .map(|(id, &(pick, slot, wide))| {
                    let name = &suite.by_index(pick % suite.len()).app.name;
                    let gpus = 1 + usize::from(wide);
                    ClusterJob::new(id, name, f64::from(slot) * 3.0, gpus, suite)
                })
                .collect(),
        }
    }

    fn served<'a>(&self, suite: &'a Suite) -> Option<Box<dyn ArrivalSource + 'a>> {
        Some(match *self {
            Self::Trace(ref cfg) => Box::new(TraceSource::new(suite, cfg.clone())),
            Self::Load {
                shape,
                rate,
                duration,
                seed,
                users,
            } => Box::new(LoadGen::new(suite, shape, rate, duration, seed).with_users(users, 1.2)),
            Self::Shape(_) => return None,
        })
    }
}

/// Where a served case is killed, checkpointed and restored.
#[derive(Clone, Copy, Debug)]
pub enum Cut {
    /// Once the source has handed out this many jobs (or closed).
    Consumed(usize),
    /// At the first cycle past this many arrivals that leaves jobs
    /// parked.
    Parked(usize),
    /// Past this many arrivals, with jobs parked, just before a cycle
    /// that comes earlier than the next estimated release: the restored
    /// door's first walk finds every tenant still at quota.
    QuietDoor(usize),
    /// This many wake cycles after the source closed, mid-drain.
    Draining(usize),
}

/// One configuration of the scheduler stack.
#[derive(Clone, Debug)]
pub struct Case {
    pub source: Source,
    pub nodes: usize,
    pub selector: SelectorKind,
    pub walltime_err: f64,
    pub admission: Option<AdmissionConfig>,
    pub cuts: Vec<Cut>,
}

impl Case {
    /// A case with exact estimates, no admission tier and no cuts.
    pub fn new(source: Source, nodes: usize, selector: SelectorKind) -> Self {
        Self {
            source,
            nodes,
            selector,
            walltime_err: 0.0,
            admission: None,
            cuts: Vec::new(),
        }
    }

    /// Whether the admission tier admits everything and only reorders.
    fn ordering_only(&self) -> bool {
        (self.admission.as_ref()).is_some_and(|a| *a == AdmissionConfig::new())
    }

    fn service<'a>(
        &self,
        suite: &'a Suite,
    ) -> Option<SchedulerService<'a, Box<dyn ArrivalSource + 'a>>> {
        let mut cfg = ServeConfig::new(self.nodes, GPUS).walltime_err(self.walltime_err);
        cfg.admission = self.admission.clone();
        let source = self.source.served(suite)?;
        Some(SchedulerService::new(suite, cfg, self.selector, source))
    }
}

/// What a served run adds to its schedule.
#[derive(Debug, PartialEq)]
pub struct Served {
    pub stats: ServeStats,
    pub admission_digest: Option<u64>,
    /// Jobs the source handed out.
    pub offered: usize,
}

/// One way of running a case, and what it produced.
pub struct Run {
    pub how: String,
    pub timeline: ClusterTimeline,
    pub aggregate: ClusterReport,
    pub per_node: Vec<NodeSummary>,
    pub sync: SyncStats,
    pub served: Option<Served>,
}

impl Run {
    /// The record of a batch engine's run.
    pub fn batch(how: String, report: MultiNodeReport) -> Self {
        Self {
            how,
            timeline: report.timeline,
            aggregate: report.aggregate,
            per_node: report.per_node,
            sync: report.sync,
            served: None,
        }
    }
}

/// Every run of one case: the uninterrupted service first (the batch
/// engine for a batch-only case).
pub struct Outcome {
    /// The jobs offered, at their submission instants.
    pub jobs: Vec<ClusterJob>,
    pub runs: Vec<Run>,
}

impl Outcome {
    /// Jain's index over the tenants' mean slowdowns in `run`.
    pub fn jain(&self, suite: &Suite, run: &Run) -> f64 {
        user_fairness(suite, &self.jobs, &run.timeline.events).jain
    }
}

/// The served case killed at `cut` and restored from its `HRPS` blob.
pub fn restored_at<'a>(
    suite: &'a Suite,
    case: &Case,
    cut: Cut,
) -> SchedulerService<'a, Box<dyn ArrivalSource + 'a>> {
    let mut service = case.service(suite).expect("a served case");
    let cycle = |service: &mut SchedulerService<'a, _>| match service.step() {
        ServiceStep::Cycle { time, .. } => time,
        other => panic!("{cut:?}: the source ran out first ({other:?})"),
    };
    let blob = match cut {
        // No source of a case pends: each hands out a job or closes.
        Cut::Consumed(n) => {
            while service.consumed() < n && service.step() != ServiceStep::Closed {}
            service.checkpoint()
        }
        Cut::Parked(after) | Cut::QuietDoor(after) => {
            while service.consumed() < after || service.deferred_jobs() == 0 {
                cycle(&mut service);
            }
            loop {
                // With jobs parked the wake-up is the next release.
                let release = service.next_wakeup().expect("parked jobs await a release");
                let blob = service.checkpoint();
                if matches!(cut, Cut::Parked(_)) || cycle(&mut service) < release {
                    break blob;
                }
            }
        }
        Cut::Draining(wakes) => {
            while !matches!(service.step(), ServiceStep::Closed) {}
            for _ in 0..wakes {
                service.wake_cycle().expect("parked jobs wake the service");
            }
            service.checkpoint()
        }
    };
    drop(service); // the kill
    let blob = blob.expect("deterministic sources checkpoint");
    let restored = restore(suite, blob).expect("restore from the HRPS blob");
    assert_eq!(restored.selector_kind(), case.selector, "{cut:?}");
    restored
}

/// Drain a service; the run and the admitted trace.
fn drain<S: ArrivalSource>(
    how: String,
    mut service: SchedulerService<'_, S>,
) -> (Run, Vec<ClusterJob>) {
    service.run_to_close();
    let offered = service.consumed();
    let served = service.finish();
    let admission = served.admission.map(|a| (a.digest, a.effective));
    let (admission_digest, effective) = admission.unzip();
    let stats = served.stats;
    let run = Run {
        served: Some(Served {
            stats,
            admission_digest,
            offered,
        }),
        ..Run::batch(how, served.report)
    };
    (run, effective.unwrap_or_default())
}

/// Run `case` every way it can be run, assert that the runs agree and
/// that the checkers hold for each, and return them.
pub fn run(suite: &Suite, case: &Case) -> Outcome {
    let jobs = case.source.jobs(suite);
    let mut runs = Vec::new();
    let mut admitted = jobs.clone();
    if let Some(service) = case.service(suite) {
        let (uninterrupted, effective) = drain("service".into(), service);
        if case.admission.is_some() {
            check_admission(suite, case, &uninterrupted, &effective);
            admitted = effective;
        }
        runs.push(uninterrupted);
        for &cut in &case.cuts {
            let restored = restored_at(suite, case, cut);
            runs.push(drain(format!("killed at {cut:?}, restored"), restored).0);
        }
    }
    let mut batches = vec![("batch", &admitted, false)];
    if case.ordering_only() {
        batches.push(("fair-order batch", &jobs, true));
    }
    for (label, input, fair_order) in batches {
        let mut sim = MultiNodeSim::new(case.nodes, GPUS);
        if fair_order {
            sim = sim.with_fair_order();
        }
        let report = sim.run(suite, input.clone(), case.selector.build().as_mut(), |_| {
            dispatcher_for(case.selector, GPUS, case.walltime_err)
        });
        runs.push(Run::batch(label.into(), report));
    }
    let first = &runs[0];
    let batch = runs.iter().find(|run| run.served.is_none());
    for run in &runs {
        let ctx = format!("{} (vs {}): {case:?}", run.how, first.how);
        assert!(run.timeline == first.timeline, "events differ, {ctx}");
        assert_eq!(run.timeline.digest(), first.timeline.digest(), "{ctx}");
        assert_eq!(run.aggregate, first.aggregate, "{ctx}");
        let bits = |r: &ClusterReport| [r.makespan, r.avg_wait, r.utilization].map(f64::to_bits);
        assert_eq!(bits(&run.aggregate), bits(&first.aggregate), "{ctx}");
        assert_eq!(run.per_node, first.per_node, "{ctx}");
        if let (Some(served), Some(first_served)) = (&run.served, &first.served) {
            assert_eq!(served, first_served, "{ctx}");
            cycle_accounting(served, case.nodes, admitted.len(), &ctx);
            // Every admitted job was placed at a cycle, so a service with
            // no wake-ups and no cycle that placed nothing (a burst all
            // rejected or parked) cycled at the batch epochs, and the one
            // advance rule moved the same nodes.
            let batch = batch.expect("a batch run");
            let s = served.stats;
            if s.wake_cycles == 0 && s.cycles + 1 == batch.sync.sync_rounds {
                assert_eq!(run.sync, batch.sync, "sync vs {}, {ctx}", batch.how);
            }
        }
        conservation(run, admitted.len(), &ctx);
        no_start_before_arrival(run, &ctx);
        occupancy_within_the_pool(run, &ctx);
        if case.selector == SelectorKind::Fcfs {
            strict_fcfs_order(run, &ctx);
        }
    }
    Outcome { jobs, runs }
}

// ---- drawn cases ----------------------------------------------------

/// Where a drawn case's jobs come from.
#[derive(Clone, Copy, Debug)]
pub enum Origin {
    /// A generated trace of the drawn kind.
    Trace,
    /// A load generator of this shape.
    Load(LoadShape),
    /// The drawn hand-shaped trace, run in batch only.
    Shape,
}

/// The admission tier of a drawn served case.
#[derive(Clone, Copy, Debug)]
pub enum Tier {
    Off,
    /// Admit everything, only reorder.
    OrderingOnly,
    /// The drawn quota.
    Quota,
    /// The drawn quota and SLO.
    QuotaSlo,
}

pub const SELECTORS: [SelectorKind; 5] = [
    SelectorKind::RoundRobin,
    SelectorKind::LeastLoaded,
    SelectorKind::Fcfs,
    SelectorKind::Easy,
    SelectorKind::Conservative,
];

/// A hand-shaped trace: up to nine jobs on five 3 s arrival slots
/// (duplicates make same-instant bursts), some two GPUs wide.
pub fn shape_strategy() -> impl Strategy<Value = Vec<(usize, u32, bool)>> {
    proptest::collection::vec((0usize..1000, 0u32..5, any::<bool>()), 1..=9)
}

/// One drawn case. A property draws the whole space
/// ([`Draw::strategy`]) and may pin some fields to the slice it names.
#[derive(Clone, Debug)]
pub struct Draw {
    pub origin: Origin,
    pub kind: TraceKind,
    pub seed: u64,
    pub jobs: usize,
    /// Mean inter-arrival gap, s.
    pub gap: f64,
    pub gang: f64,
    pub nodes: usize,
    pub selector: SelectorKind,
    pub walltime_err: f64,
    pub tier: Tier,
    pub users: u32,
    pub quota: usize,
    pub slo: f64,
    /// Kill points, as fractions of the jobs.
    pub cuts: Vec<f64>,
    pub shape: Vec<(usize, u32, bool)>,
}

impl Draw {
    /// The whole space: a generated trace, a Poisson or a bursty load
    /// generator, or a hand-shaped trace (6 : 1 : 1 : 1); a mean gap
    /// log-uniform over 1–60 s; any selector; admission off,
    /// ordering-only, a quota or a quota and an SLO; two cuts.
    pub fn strategy() -> impl Strategy<Value = Self> {
        let source = (
            0usize..9,
            0usize..TRACE_KINDS.len(),
            0u64..u64::MAX,
            1usize..=40,
            0.0f64..4.1,
            0.0f64..0.5,
        );
        let cluster = (
            1usize..=4,
            0usize..SELECTORS.len(),
            0.0f64..0.7,
            shape_strategy(),
        );
        let door = (0usize..4, 0u32..=5, 1usize..=3, 1.2f64..6.0);
        let cuts = (0.0f64..1.0, 0.0f64..1.0);
        (source, cluster, door, cuts).prop_map(|(source, cluster, door, cuts)| {
            let (origin, kind, seed, jobs, log_gap, gang) = source;
            let (nodes, selector, walltime_err, shape) = cluster;
            let (tier, users, quota, slo) = door;
            Self {
                origin: match origin {
                    0 => Origin::Load(LoadShape::Poisson),
                    1 => Origin::Load(LoadShape::Bursty),
                    2 => Origin::Shape,
                    _ => Origin::Trace,
                },
                kind: TRACE_KINDS[kind],
                seed,
                jobs,
                gap: log_gap.exp(),
                gang,
                nodes,
                selector: SELECTORS[selector],
                walltime_err,
                tier: [Tier::Off, Tier::OrderingOnly, Tier::Quota, Tier::QuotaSlo][tier],
                users,
                quota,
                slo,
                cuts: vec![cuts.0, cuts.1],
                shape,
            }
        })
    }

    /// The case the draw stands for. A hand-shaped trace is not served,
    /// so neither an admission tier nor a cut applies to it.
    pub fn case(&self) -> Case {
        let source = match self.origin {
            Origin::Trace => Source::Trace(
                TraceConfig::new(self.kind, self.jobs, self.seed)
                    .max_gpus(GPUS)
                    .mean_gap(self.gap)
                    .gang_share(self.gang)
                    .users(self.users),
            ),
            Origin::Load(shape) => Source::Load {
                shape,
                rate: 1.0 / self.gap,
                duration: self.jobs as f64 * self.gap,
                seed: self.seed,
                users: self.users,
            },
            Origin::Shape => Source::Shape(self.shape.clone()),
        };
        let admission = match (self.origin, self.tier) {
            (Origin::Shape, _) | (_, Tier::Off) => None,
            (_, Tier::OrderingOnly) => Some(AdmissionConfig::new()),
            (_, Tier::Quota) => Some(AdmissionConfig::new().quota(self.quota)),
            (_, Tier::QuotaSlo) => Some(AdmissionConfig::new().quota(self.quota).slo(self.slo)),
        };
        let at = |fraction: f64| Cut::Consumed((self.jobs as f64 * fraction) as usize);
        Case {
            walltime_err: self.walltime_err,
            admission,
            cuts: self.cuts.iter().map(|&fraction| at(fraction)).collect(),
            ..Case::new(source, self.nodes, self.selector)
        }
    }

    /// Run the drawn case every way it can be run ([`run`]).
    pub fn run(&self) -> Outcome {
        run(&Suite::paper_suite(&GpuArch::a100()), &self.case())
    }
}

// ---- the checkers ---------------------------------------------------

/// Every admitted job arrives, starts and finishes exactly once, and
/// the per-node rows account for all of them.
pub fn conservation(run: &Run, admitted: usize, ctx: &str) {
    let mut seen = std::collections::BTreeMap::<usize, [usize; 3]>::new();
    for e in run.timeline.events.iter() {
        match e.kind {
            EventKind::Arrival { job } => seen.entry(job).or_default()[0] += 1,
            EventKind::Start { job_ids, .. } => {
                job_ids
                    .iter()
                    .for_each(|&id| seen.entry(id).or_default()[1] += 1);
            }
            EventKind::Finish { job_ids, .. } => {
                job_ids
                    .iter()
                    .for_each(|&id| seen.entry(id).or_default()[2] += 1);
            }
        }
    }
    assert_eq!(seen.len(), admitted, "jobs in the timeline, {ctx}");
    if let Some((id, counts)) = seen.iter().find(|(_, counts)| **counts != [1, 1, 1]) {
        panic!("job {id} arrives, starts and finishes {counts:?} times, {ctx}");
    }
    let rows = &run.per_node;
    assert_eq!(
        rows.iter().map(|n| n.jobs).sum::<usize>(),
        admitted,
        "{ctx}"
    );
    let placements = rows.iter().map(|n| n.placements).sum::<usize>();
    assert_eq!(placements, run.aggregate.placements, "{ctx}");
}

/// No job starts before it arrives: estimate error perturbs planning,
/// never the arrival process.
fn no_start_before_arrival(run: &Run, ctx: &str) {
    let mut arrival = std::collections::HashMap::new();
    for e in run.timeline.events.iter() {
        match e.kind {
            EventKind::Arrival { job } => {
                arrival.insert(job, e.time);
            }
            EventKind::Start { job_ids, .. } => {
                for id in job_ids {
                    let at = arrival[id];
                    assert!(
                        e.time >= at - 1e-9,
                        "job {id} starts at {} before {at}, {ctx}",
                        e.time
                    );
                }
            }
            EventKind::Finish { .. } => {}
        }
    }
}

/// On every node, claimed GPUs never exceed the pool, never go
/// negative, and drain back to zero.
fn occupancy_within_the_pool(run: &Run, ctx: &str) {
    let mut claimed = std::collections::BTreeMap::<usize, usize>::new();
    for e in run.timeline.events.iter() {
        let occupied = claimed.entry(e.node).or_default();
        match e.kind {
            EventKind::Start { gpus, .. } => *occupied += gpus,
            EventKind::Finish { gpus, .. } => {
                *occupied = occupied
                    .checked_sub(gpus)
                    .expect("a finish frees claimed GPUs");
            }
            EventKind::Arrival { .. } => {}
        }
        assert!(
            *occupied <= GPUS,
            "node {} holds {occupied} GPUs at {}, {ctx}",
            e.node,
            e.time
        );
    }
    assert!(
        claimed.values().all(|&c| c == 0),
        "GPUs never freed: {claimed:?}, {ctx}"
    );
}

/// Strict FCFS starts every node's jobs in their arrival order.
fn strict_fcfs_order(run: &Run, ctx: &str) {
    let mut order = std::collections::BTreeMap::<usize, [Vec<usize>; 2]>::new();
    for e in run.timeline.events.iter() {
        let [arrived, started] = order.entry(e.node).or_default();
        match e.kind {
            EventKind::Arrival { job } => arrived.push(job),
            EventKind::Start { job_ids, .. } => started.extend_from_slice(job_ids),
            EventKind::Finish { .. } => {}
        }
    }
    for (node, [arrived, started]) in order {
        assert_eq!(
            started, arrived,
            "node {node} starts out of arrival order, {ctx}"
        );
    }
}

/// Every cycle, arrival or wake, re-plans or skips each node; every
/// decision routed one job; every offer was placed or rejected.
fn cycle_accounting(served: &Served, nodes: usize, admitted: usize, ctx: &str) {
    let s = served.stats;
    let visits = (s.cycles + s.wake_cycles) * nodes as u64;
    assert_eq!(s.nodes_replanned + s.nodes_skipped, visits, "{ctx}");
    assert_eq!(s.decisions, admitted as u64, "{ctx}");
    assert_eq!(s.decisions + s.rejected, served.offered as u64, "{ctx}");
}

/// Replaying the admitted trace through a fresh `FairShare` under the
/// service's release rule (admission + solo time) never finds a tenant
/// at quota at an admission instant; an infinite SLO rejects nothing,
/// and a tier that only reorders defers nothing.
fn check_admission(suite: &Suite, case: &Case, run: &Run, effective: &[ClusterJob]) {
    let admission = case.admission.as_ref().expect("the tier is on");
    let stats = run.served.as_ref().expect("a served run").stats;
    if admission.slo == f64::INFINITY {
        assert_eq!(stats.rejected, 0, "an infinite SLO rejected: {case:?}");
    }
    if case.ordering_only() {
        assert_eq!(
            stats.deferred, 0,
            "ordering-only admission deferred: {case:?}"
        );
    }
    let mut share = FairShare::new(admission.quota);
    for job in effective {
        share.advance_to(job.arrival);
        let in_flight = share.in_flight(job.user);
        assert!(
            in_flight < admission.quota,
            "tenant {} admitted at {} with {in_flight} in flight: {case:?}",
            job.user,
            job.arrival
        );
        share.admit(
            job.user,
            job_cost(suite, job),
            job.arrival + job.solo_time(suite),
        );
    }
}

// ---- the pins -------------------------------------------------------

/// `key` of a pin row as `run` measures it (`f64`s and digests as hex
/// bits), or `None` if the run does not measure it.
fn measure(suite: &Suite, outcome: &Outcome, run: &Run, key: &str) -> Option<String> {
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let stats = run.served.as_ref().map(|s| s.stats);
    Some(match key {
        "digest" => format!("{:016x}", run.timeline.digest()),
        "events" => run.timeline.len().to_string(),
        "makespan" => bits(run.aggregate.makespan),
        "avg_wait" => bits(run.aggregate.avg_wait),
        "utilization" => bits(run.aggregate.utilization),
        "placements" => run.aggregate.placements.to_string(),
        "node_jobs" => {
            let jobs: Vec<String> = run.per_node.iter().map(|n| n.jobs.to_string()).collect();
            jobs.join(",")
        }
        "jain" => bits(outcome.jain(suite, run)),
        "admission" => format!("{:016x}", run.served.as_ref()?.admission_digest?),
        "offered" => run.served.as_ref()?.offered.to_string(),
        "decisions" => stats?.decisions.to_string(),
        "rejected" => stats?.rejected.to_string(),
        "deferred" => stats?.deferred.to_string(),
        "cycles" => stats?.cycles.to_string(),
        "wake_cycles" => stats?.wake_cycles.to_string(),
        "replanned" => stats?.nodes_replanned.to_string(),
        "skipped" => stats?.nodes_skipped.to_string(),
        other => panic!("no pin key '{other}'"),
    })
}

/// Run `case` every way it can be run and hold each run to the pinned
/// `key=value` pairs it measures.
pub fn check_pin(suite: &Suite, name: &str, case: &Case, pinned: &str) {
    let outcome = run(suite, case);
    for run in &outcome.runs {
        for (key, want) in pinned
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
        {
            if let Some(got) = measure(suite, &outcome, run, key) {
                assert_eq!(got, want, "{name} {key}, {}", run.how);
            }
        }
    }
}

/// The pin row of `case` with the values it produces now, keys as in
/// `pinned`.
pub fn print_pin(suite: &Suite, name: &str, case: &Case, pinned: &str) {
    let outcome = run(suite, case);
    let values = pinned.split_whitespace().map(|kv| {
        let key = kv.split_once('=').map_or(kv, |(key, _)| key);
        let got = measure(suite, &outcome, &outcome.runs[0], key);
        format!("{key}={}", got.expect("the first run measures every key"))
    });
    println!("{name} {}", values.collect::<Vec<_>>().join(" "));
}
