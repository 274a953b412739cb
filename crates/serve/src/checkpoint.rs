//! The `HRPS` live-checkpoint format: kill a running
//! [`SchedulerService`] and resume it bit-identically mid-trace.
//!
//! An `HRPS` blob is built on the workspace's one checkpoint codec
//! ([`hrp_core::codec`]): the container header, a textual `key=value`
//! spec, then a binary body. This module only *describes the state* —
//! which fields, in which order, under which range checks; every byte
//! of plumbing (bounds, lengths, allocation caps, typed errors) is the
//! codec's.
//!
//! The spec carries everything reconstructible from plain text: the
//! service geometry, selector kind, the source family with its
//! parameters and stream position, the admission knobs, the logical
//! counters, and the last-cycle instant as raw bits. The body carries
//! what must survive *verbatim*: the service's one-job lookahead, every
//! node's in-flight [`NodeRunState`] (clock, wait sum, dirty bit,
//! pending arrivals, waiting queue, recorded events — f64s as bit
//! patterns; written from the borrowed node, never from a clone of it),
//! per-node dispatcher bookkeeping (a planner's
//! [`BackfillState`]; a co-scheduling node has none), for the policy
//! selector (and only for it) the agent's embedded `HRPP` blob, and for
//! the admission tier the fair-share karma entries and pending
//! releases, the rolling admission digest and the quota-deferred queue.
//! Every tier's nodes are [`dispatcher_for`]`(selector, ..)`, the
//! agent's included, so a node's dispatcher is rebuilt from the spec's
//! `selector` alone and its record decoded straight into it.
//!
//! Nothing is written that the rest determines. A node's running
//! placements are its log's open `Start`s, its free GPUs the pool less
//! theirs, its next sequence number the log's length, its jobs its
//! log's `Arrival`s plus its pending arrivals, its placements,
//! completions and GPU-seconds what its log's `Start`s and `Finish`es
//! say, and its load snapshot the one its state gives at the last
//! cycle. The decision count is the sum of the nodes' jobs, and so is a
//! round-robin cursor (each decision makes one `select` call) and the
//! fair-share ledger's sequence (each admission places one job). The
//! ledger's clock is the last cycle's instant, which every cycle
//! advances it to, and a tenant's in-flight count the number of its
//! pending releases. The sync rounds are the cycles, arrival and wake;
//! the node advances are the re-plans, and the skips are the node
//! visits of those rounds less the re-plans.
//!
//! Deterministic sources checkpoint as spec + position: a rebuilt
//! source replays `consumed` draws to restore its RNG cursor exactly.
//! A live [`ChannelSource`](crate::source::ChannelSource) has no such
//! position and refuses to checkpoint. Decision-latency samples are
//! wall-clock measurement, not state — a restored service starts a
//! fresh latency window.
//!
//! Restore trusts nothing: every spec key must be present exactly once
//! and in range (a forged source position past the trace or past the
//! arrivals the body holds, a tenant count past [`MAX_USERS`], a zero
//! quota, a non-finite rate), every job record must name a benchmark
//! of the suite and fit a node, every node record must satisfy the
//! preconditions of [`NodeRun::from_state`](hrp_cluster::sim::NodeRun::from_state)
//! and [`ClusterDrive::from_states`] *before* they are called — down to
//! its event log being one a node records, whose open `Start`s (what a
//! node resumes from) fit its pool — and every admission-ledger entry
//! must be one a ledger can hold (finite karma charged no later than
//! the last cycle, releases in key order, due at an instant, numbered
//! below the decision count) — a hostile
//! blob surfaces as a [`CheckpointError`], never as a builder assert or
//! a panic at the next dispatch or the next release.

use crate::service::{
    source_width_mismatch, AdmissionConfig, AdmissionState, LatencyHistogram, SchedulerService,
    SelectorState, ServeConfig, ServeStats,
};
use crate::source::{ArrivalSource, LoadGen, LoadShape, TraceSource};
use hrp_cluster::backfill::BackfillState;
use hrp_cluster::fair::{FairShare, FairShareState};
use hrp_cluster::job::ClusterJob;
use hrp_cluster::multinode::{ClusterDrive, SyncStats, MAX_GPUS_PER_NODE, MAX_NODES};
use hrp_cluster::place::{PlacementAgent, PlacementExperiment};
use hrp_cluster::select::{dispatcher_for, NodeDispatcher, RoundRobin, SelectorKind};
use hrp_cluster::sim::{Dispatcher, EventKind, EventLog, NodeEvent, NodeRunState, TIME_EPS};
use hrp_cluster::trace::{TraceConfig, MAX_USERS};
pub use hrp_core::codec::CheckpointError;
use hrp_core::codec::{ensure, Reader, Spec, SpecWriter, Writer, POSITIVE_FINITE};
use hrp_workloads::Suite;
use std::ops::Bound::{self, Excluded, Unbounded};

const MAGIC: &str = "HRPS";
const VERSION: u32 = 6;

/// Range of a spec float that must be positive (infinity allowed).
const POSITIVE: (Bound<f64>, Bound<f64>) = (Excluded(0.0), Unbounded);

impl<'a, S: ArrivalSource> SchedulerService<'a, S> {
    /// Serialize the full in-flight service state as an `HRPS` blob.
    ///
    /// # Errors
    /// [`CheckpointError::Invalid`] if the arrival source cannot be
    /// checkpointed (live channels have no replayable position).
    pub fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        let src_spec = self.source.checkpoint_spec().ok_or_else(|| {
            CheckpointError::invalid(
                MAGIC,
                format!("source '{}' has no replayable position", self.source.name()),
            )
        })?;
        let agent_blob = self.selector.agent.as_ref().map(PlacementAgent::save_bytes);

        let mut spec = SpecWriter::new();
        spec.kv("nodes", self.cfg.nodes);
        spec.kv("gpus_per_node", self.cfg.gpus_per_node);
        spec.float("walltime_err", self.cfg.walltime_err);
        spec.kv("selector", self.selector.kind.name());
        spec.kv("source", self.source.name());
        spec.kv("src_consumed", self.source.consumed());
        for (k, v) in src_spec {
            spec.kv(&format!("src_{k}"), v);
        }
        spec.kv("cycles", self.stats.cycles);
        spec.kv("wake_cycles", self.stats.wake_cycles);
        spec.kv("nodes_replanned", self.stats.nodes_replanned);
        spec.kv("deferred", self.stats.deferred);
        spec.kv("rejected", self.stats.rejected);
        spec.kv("last_cycle_bits", self.last_cycle.to_bits());
        spec.kv("has_lookahead", u8::from(self.lookahead.is_some()));
        spec.kv("admission", u8::from(self.cfg.admission.is_some()));
        if let Some(acfg) = &self.cfg.admission {
            spec.kv("adm_quota", acfg.quota);
            spec.float("adm_slo", acfg.slo);
        }

        let mut w = Writer::new(MAGIC, VERSION);
        w.spec(&spec);
        if let Some(job) = &self.lookahead {
            put_job(&mut w, self.suite, job);
        }
        for node in 0..self.cfg.nodes {
            let run = self.drive.node(node);
            put_node_state(&mut w, self.suite, run.state());
            put_dispatcher(&mut w, run.dispatcher());
        }
        if let Some(blob) = agent_blob {
            w.blob(&blob);
        }
        if let Some(adm) = &self.admission {
            put_admission(&mut w, self.suite, adm);
        }
        Ok(w.finish())
    }

    /// [`SchedulerService::checkpoint`] straight to a file.
    ///
    /// # Errors
    /// Checkpoint errors, plus [`CheckpointError::Io`] on write
    /// failure.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.checkpoint()?)
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))
    }
}

/// Rebuild a service from an `HRPS` blob. The returned service is
/// positioned exactly where [`SchedulerService::checkpoint`] left
/// off: driving it to close yields the same merged timeline, bit for
/// bit, as the service it was captured from would have produced
/// uninterrupted.
///
/// # Errors
/// [`CheckpointError::NotACheckpoint`] / [`CheckpointError::BadVersion`]
/// on a foreign or other-version blob, [`CheckpointError::Invalid`] on
/// any malformed, truncated or out-of-range spec or body content
/// (naming `HRPP` / `HRPQ` when the embedded agent is at fault).
pub fn restore(
    suite: &Suite,
    blob: Vec<u8>,
) -> Result<SchedulerService<'_, Box<dyn ArrivalSource + '_>>, CheckpointError> {
    let mut body = Reader::open(&blob, MAGIC, VERSION)?;
    let mut spec = body.spec()?;

    let nodes = spec.get_in("nodes", 1..=MAX_NODES)?;
    let gpus_per_node = spec.get_in("gpus_per_node", 1..=MAX_GPUS_PER_NODE)?;
    let walltime_err = spec.get_in("walltime_err", 0.0..1.0)?;
    let kind = spec.get_with("selector", SelectorKind::parse)?;
    let mut cfg = ServeConfig::new(nodes, gpus_per_node).walltime_err(walltime_err);
    if spec.get::<u8>("admission")? != 0 {
        cfg = cfg.admission(AdmissionConfig {
            quota: spec.get_in("adm_quota", 1..)?,
            slo: spec.get_in("adm_slo", POSITIVE)?,
        });
    }
    let cycles: u64 = spec.get("cycles")?;
    let wake_cycles: u64 = spec.get("wake_cycles")?;
    let nodes_replanned: u64 = spec.get("nodes_replanned")?;
    // Every cycle, arrival or wake, is one sync round that re-plans or
    // skips each node, and every re-plan is one node advance.
    let rounds = cycles.checked_add(wake_cycles);
    let skipped = rounds
        .and_then(|rounds| rounds.checked_mul(nodes as u64))
        .and_then(|visits| visits.checked_sub(nodes_replanned));
    let (Some(sync_rounds), Some(nodes_skipped)) = (rounds, skipped) else {
        let what = format!(
            "{nodes_replanned} re-plans in {cycles} + {wake_cycles} cycles of {nodes} nodes"
        );
        return Err(CheckpointError::invalid(MAGIC, what));
    };
    let sync = SyncStats {
        sync_rounds,
        node_advances: nodes_replanned,
    };
    let (deferred, rejected): (u64, u64) = (spec.get("deferred")?, spec.get("rejected")?);
    let last_cycle = f64::from_bits(spec.get("last_cycle_bits")?);
    ensure(MAGIC, instant(last_cycle), || {
        format!("last cycle at {last_cycle}")
    })?;
    let has_lookahead = spec.get::<u8>("has_lookahead")? != 0;
    let jobs = JobBounds {
        suite,
        gpus_per_node,
    };
    let lookahead = has_lookahead
        .then(|| get_job(&mut body, jobs))
        .transpose()?;
    let mut parts = Vec::with_capacity(nodes);
    for node in 0..nodes {
        parts.push((
            get_node_state(&mut body, node, jobs)?,
            get_dispatcher(&mut body, node, kind, &cfg)?,
        ));
    }
    let drive = ClusterDrive::from_states(suite, gpus_per_node, parts, last_cycle, sync);
    // Each decision routed one job onto a node.
    let decisions = drive.placed();
    let selector = match kind {
        // The body holds an agent exactly when the selector is a policy.
        SelectorKind::Policy => {
            SelectorState::from_agent(PlacementExperiment::load_bytes(body.blob()?.to_vec())?)
        }
        // Each decision made one `select` call.
        SelectorKind::RoundRobin => {
            SelectorState::heuristic(kind, Box::new(RoundRobin::with_cursor(decisions)))
        }
        other => SelectorState::heuristic(other, other.build()),
    };
    if let Some(mismatch) = selector.geometry_mismatch(&cfg) {
        return Err(CheckpointError::invalid(MAGIC, mismatch));
    }
    let admission = match &cfg.admission {
        // Every cycle advanced the ledger to its instant first, and every
        // admission placed one job.
        Some(acfg) => Some(get_admission(
            &mut body,
            acfg,
            jobs,
            last_cycle,
            decisions as u64,
        )?),
        None => None,
    };
    // Every arrival the source handed out is on a node, rejected,
    // parked, or the lookahead.
    let parked = admission.as_ref().map_or(0, |adm| adm.deferred.len());
    let held = decisions + parked + usize::from(lookahead.is_some());
    let accounted = rejected.saturating_add(held as u64);
    let source = get_source(suite, gpus_per_node, accounted, &mut spec)?;
    spec.finish()?;
    body.finish()?;

    let stats = ServeStats {
        cycles,
        wake_cycles,
        decisions: decisions as u64,
        nodes_replanned,
        nodes_skipped,
        deferred,
        rejected,
    };
    Ok(SchedulerService {
        suite,
        cfg,
        drive,
        selector,
        source,
        lookahead,
        last_cycle,
        stats,
        latencies: LatencyHistogram::default(),
        burst: Vec::new(),
        admission,
        walk_owed: true,
    })
}

/// [`restore`] straight from a file.
///
/// # Errors
/// Restore errors, plus [`CheckpointError::Io`] on read failure.
pub fn restore_file<'a>(
    suite: &'a Suite,
    path: &std::path::Path,
) -> Result<SchedulerService<'a, Box<dyn ArrivalSource + 'a>>, CheckpointError> {
    let raw = std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
    restore(suite, raw)
}

/// Rebuild the arrival source from its `source` / `src_*` keys and
/// replay it to the checkpointed position. A source whose jobs may be
/// wider than `gpus_per_node` is refused, and so is a position other
/// than the `accounted` arrivals the blob's body holds: the replay
/// costs one draw per position, so the position must not be the spec's
/// alone to choose.
fn get_source<'a>(
    suite: &'a Suite,
    gpus_per_node: usize,
    accounted: u64,
    spec: &mut Spec<'_>,
) -> Result<Box<dyn ArrivalSource + 'a>, CheckpointError> {
    let consumed: usize = spec.get("src_consumed")?;
    let replayable = || {
        ensure(MAGIC, consumed as u64 == accounted, || {
            format!(
                "source position {consumed}, but the blob holds {accounted} arrivals \
                 (on nodes, rejected, parked, lookahead)"
            )
        })
    };
    let fits = |max_gpus| match source_width_mismatch(max_gpus, gpus_per_node) {
        Some(mismatch) => Err(CheckpointError::invalid(MAGIC, mismatch)),
        None => Ok(()),
    };
    match spec.get_str("source")? {
        "trace" => {
            let cfg = TraceConfig::from_spec(spec, "src_")?;
            fits(cfg.max_gpus)?;
            ensure(MAGIC, consumed <= cfg.jobs, || {
                format!(
                    "source position {consumed} beyond the {}-job trace",
                    cfg.jobs
                )
            })?;
            replayable()?;
            Ok(Box::new(TraceSource::resume(suite, cfg, consumed)))
        }
        shape @ ("poisson" | "bursty") => {
            let shape = match shape {
                "poisson" => LoadShape::Poisson,
                _ => LoadShape::Bursty,
            };
            let users = spec.get_in("src_users", 0..=MAX_USERS)?;
            let user_skew = spec.get_in("src_user_skew", POSITIVE_FINITE)?;
            let seed = spec.get("src_seed")?;
            let max_gpus = spec.get_in("src_max_gpus", 1..=MAX_GPUS_PER_NODE)?;
            fits(max_gpus)?;
            let rate = spec.get_in("src_rate", POSITIVE_FINITE)?;
            let duration = spec.get_in("src_duration", POSITIVE_FINITE)?;
            replayable()?;
            LoadGen::with_max_gpus(suite, shape, rate, duration, seed, max_gpus)
                .with_users(users, user_skew)
                .resume_to(consumed)
                .map(|generator| Box::new(generator) as Box<dyn ArrivalSource>)
                .ok_or_else(|| {
                    CheckpointError::invalid(
                        MAGIC,
                        format!("source position {consumed} beyond the generator's horizon"),
                    )
                })
        }
        other => Err(CheckpointError::invalid(
            MAGIC,
            format!("source '{other}' cannot be restored"),
        )),
    }
}

// ---- body records: each writer beside the reader that mirrors it ---

/// Smallest encoding of a job record (empty name).
const JOB_MIN: usize = 8 + 8 + 8 + 4 + 4 + 4;

/// A job is its bench index; the record also carries the suite's name
/// for that index, which pins the blob to the suite it was taken over.
fn put_job(w: &mut Writer, suite: &Suite, job: &ClusterJob) {
    w.usize(job.id);
    w.usize(usize::from(job.bench));
    w.f64(job.arrival);
    w.size(usize::from(job.gpus));
    w.u32(job.user);
    w.str(&suite.by_index(usize::from(job.bench)).app.name);
}

/// What a decoded job record is held to.
#[derive(Clone, Copy)]
struct JobBounds<'a> {
    suite: &'a Suite,
    gpus_per_node: usize,
}

/// One job record, checked before anything can dispatch it: a bench
/// index past the suite (or naming another suite's benchmark) would
/// panic in the first `solo_time`, a job wider than its node in the
/// dispatcher. Both are checked as the decoded `usize`s, before they
/// narrow to the job's `u16`s (a narrowed 65 539 would read as bench
/// 3); once checked, both fit.
fn get_job(r: &mut Reader<'_>, bounds: JobBounds<'_>) -> Result<ClusterJob, CheckpointError> {
    let id = r.usize()?;
    let bench = r.usize()?;
    let arrival = r.f64()?;
    let gpus = r.size()?;
    let user = r.u32()?;
    let name = r.str()?;
    let known = bounds.suite.len();
    ensure(MAGIC, bench < known, || {
        format!("job {id}: bench index {bench} past the {known}-benchmark suite")
    })?;
    let expected = &bounds.suite.by_index(bench).app.name;
    ensure(MAGIC, name == expected, || {
        format!("job {id}: bench {bench} is '{expected}' in this suite, the record says '{name}'")
    })?;
    let width = bounds.gpus_per_node;
    ensure(MAGIC, (1..=width).contains(&gpus), || {
        format!("job {id}: {gpus} GPUs on {width}-GPU nodes")
    })?;
    Ok(ClusterJob {
        user,
        ..ClusterJob::indexed(id, bench, arrival, gpus)
    })
}

fn put_ids(w: &mut Writer, ids: &[usize]) {
    w.seq(ids.iter(), |w, id| w.usize(*id));
}

fn get_ids(r: &mut Reader<'_>) -> Result<Vec<usize>, CheckpointError> {
    r.seq(8, Reader::usize)
}

fn put_node_state(w: &mut Writer, suite: &Suite, state: &NodeRunState) {
    w.f64(state.clock);
    w.f64(state.wait_sum);
    w.u8(u8::from(state.dirty));
    w.seq(state.arrivals.iter(), |w, job| put_job(w, suite, job));
    w.seq(state.waiting.iter(), |w, job| put_job(w, suite, job));
    w.seq(state.events.iter(), put_event);
}

/// One node record, held to what a `NodeRun` can export before
/// `NodeRun::from_state` runs: the event log is one a node records
/// ([`get_events`]), and the placements it leaves running — its open
/// `Start`s, which `from_state` resumes — fit the node's pool and are
/// each due at a finite instant. The free GPUs are the pool less theirs.
fn get_node_state(
    r: &mut Reader<'_>,
    node: usize,
    jobs: JobBounds<'_>,
) -> Result<NodeRunState, CheckpointError> {
    let gpus_per_node = jobs.gpus_per_node;
    let mut state = NodeRunState {
        node,
        n_gpus: gpus_per_node,
        clock: r.f64()?,
        free: gpus_per_node,
        wait_sum: r.f64()?,
        dirty: r.u8()? != 0,
        arrivals: r.seq(JOB_MIN, |r| get_job(r, jobs))?.into(),
        waiting: r.seq(JOB_MIN, |r| get_job(r, jobs))?,
        events: EventLog::default(),
    };
    get_events(r, &mut state)?;
    let open = state.events.open_starts().map_err(|index| {
        let what = format!("node {node}: event {index} finishes a placement no event started");
        CheckpointError::invalid(MAGIC, what)
    })?;
    for index in open {
        let start = state.events.get(index);
        let EventKind::Start { gpus, duration, .. } = start.kind else {
            unreachable!("an open start is a start")
        };
        let due = start.time + duration;
        let fits = gpus <= state.free && due.is_finite();
        ensure(MAGIC, fits, || {
            format!(
                "node {node}: event {index} leaves {gpus} GPUs running until {due} \
                 with {} of the {gpus_per_node}-GPU pool free",
                state.free
            )
        })?;
        state.free -= gpus;
    }
    Ok(state)
}

/// Smallest encoding of an event (an arrival).
const EVENT_MIN: usize = 8 + 8 + 1 + 8;

fn put_event(w: &mut Writer, event: NodeEvent<'_>) {
    w.f64(event.time);
    w.u64(event.seq);
    match event.kind {
        EventKind::Arrival { job } => {
            w.u8(0);
            w.usize(job);
        }
        EventKind::Start {
            job_ids,
            gpus,
            duration,
        } => {
            w.u8(1);
            w.size(gpus);
            w.f64(duration);
            put_ids(w, job_ids);
        }
        EventKind::Finish { job_ids, gpus } => {
            w.u8(2);
            w.size(gpus);
            put_ids(w, job_ids);
        }
    }
}

/// A node's event log, held to what its `NodeRun` records: sequence
/// numbers counting from zero, every instant finite and no later than
/// the node's clock, every placement on `1..=pool` GPUs with at least
/// one job, every start for a finite, positive duration, every value
/// inside the record's field widths.
fn get_events(r: &mut Reader<'_>, state: &mut NodeRunState) -> Result<(), CheckpointError> {
    let node = state.node;
    let n = r.count(EVENT_MIN)?;
    state.events.reserve(n, 0);
    for index in 0..n {
        let time = r.f64()?;
        let seq = r.u64()?;
        let ids;
        let kind = match r.u8()? {
            0 => EventKind::Arrival { job: r.usize()? },
            1 => {
                let (gpus, duration) = (r.size()?, r.f64()?);
                ids = get_ids(r)?;
                EventKind::Start {
                    job_ids: &ids,
                    gpus,
                    duration,
                }
            }
            2 => {
                let gpus = r.size()?;
                ids = get_ids(r)?;
                EventKind::Finish {
                    job_ids: &ids,
                    gpus,
                }
            }
            tag => {
                return Err(CheckpointError::invalid(
                    MAGIC,
                    format!("unknown event tag {tag}"),
                ))
            }
        };
        let placed = match kind {
            EventKind::Arrival { .. } => true,
            EventKind::Start {
                job_ids,
                gpus,
                duration,
            } => {
                !job_ids.is_empty()
                    && (1..=state.n_gpus).contains(&gpus)
                    && duration.is_finite()
                    && duration > 0.0
            }
            EventKind::Finish { job_ids, gpus } => {
                !job_ids.is_empty() && (1..=state.n_gpus).contains(&gpus)
            }
        };
        let event = NodeEvent {
            time,
            node,
            seq,
            kind,
        };
        let recorded =
            seq == index as u64 && time.is_finite() && time <= state.clock + TIME_EPS && placed;
        ensure(MAGIC, recorded, || {
            format!(
                "node {node}: {event:?} as event {index} of a {}-GPU node at {}",
                state.n_gpus, state.clock
            )
        })?;
        state.events.push(event).map_err(|field| {
            let what = format!("node {node}: event {index}: {field} past an event record's width");
            CheckpointError::invalid(MAGIC, what)
        })?;
    }
    Ok(())
}

fn put_dispatcher(w: &mut Writer, dispatcher: &NodeDispatcher) {
    match dispatcher {
        NodeDispatcher::CoSched(_) => w.u8(0),
        NodeDispatcher::Backfill(planner) => {
            let state = planner.export_state();
            w.u8(1);
            w.seq(state.releases.iter(), |w, (finish, gpus)| {
                w.f64(*finish);
                w.size(*gpus);
            });
        }
    }
}

/// Whether `t` can be an instant of simulated time.
fn instant(t: f64) -> bool {
    t.is_finite() && t >= 0.0
}

/// One node's dispatcher record, decoded straight into a fresh
/// dispatcher of the `kind` tier on `cfg`'s nodes, wound forward to the
/// recorded bookkeeping. A planner's bookkeeping is held to what the
/// planner itself can produce before any `NodeRun` is built: every time
/// goes into a slot-set claim at the next decision with a free GPU,
/// which panics on a window that is not finite.
fn get_dispatcher(
    r: &mut Reader<'_>,
    node: usize,
    kind: SelectorKind,
    cfg: &ServeConfig,
) -> Result<NodeDispatcher, CheckpointError> {
    let gpus_per_node = cfg.gpus_per_node;
    let width = |gpus: usize| (1..=gpus_per_node).contains(&gpus);
    let mut dispatcher = dispatcher_for(kind, gpus_per_node, cfg.walltime_err);
    match (r.u8()?, &mut dispatcher) {
        (0, NodeDispatcher::CoSched(_)) => {}
        (1, NodeDispatcher::Backfill(planner)) => {
            let state = BackfillState {
                releases: r.seq(8 + 4, |r| Ok((r.f64()?, r.size()?)))?,
            };
            for &(finish, gpus) in &state.releases {
                ensure(MAGIC, instant(finish) && width(gpus), || {
                    format!(
                        "node {node}: release booking of {gpus} GPUs until {finish} \
                         on a {gpus_per_node}-GPU node"
                    )
                })?;
            }
            planner.restore_state(state);
        }
        (tag, built) => {
            let what = format!(
                "node {node}: dispatcher tag {tag} does not match the selector's '{}' nodes",
                built.name()
            );
            return Err(CheckpointError::invalid(MAGIC, what));
        }
    }
    Ok(dispatcher)
}

fn put_admission(w: &mut Writer, suite: &Suite, adm: &AdmissionState) {
    let state = adm.share.export_state();
    w.seq(state.karma.iter(), |w, (user, value, stamp)| {
        w.u32(*user);
        w.f64(*value);
        w.f64(*stamp);
    });
    w.seq(state.releases.iter(), |w, (time_bits, seq, user)| {
        w.u64(*time_bits);
        w.u64(*seq);
        w.u32(*user);
    });
    w.u64(adm.digest);
    w.seq(adm.deferred.iter(), |w, job| put_job(w, suite, job));
}

/// A fair-share snapshot held to what a [`FairShare`] can export, before
/// one is built from it: karma finite and non-negative, charged at an
/// instant no later than the ledger's clock (a later stamp decays
/// backwards, to infinity, at the next charge), and releases due at an
/// instant, in key order, with sequence numbers the ledger has already
/// handed out, so none can shadow another. A tenant's in-flight count is
/// its number of releases, so the two cannot disagree.
fn check_ledger(state: &FairShareState) -> Result<(), CheckpointError> {
    for &(user, value, stamp) in &state.karma {
        let sound = value.is_finite() && value >= 0.0 && instant(stamp) && stamp <= state.now;
        ensure(MAGIC, sound, || {
            format!(
                "tenant {user}: karma {value} charged at {stamp}, with the ledger at {}",
                state.now
            )
        })?;
    }
    let mut last = None;
    for &(bits, seq, user) in &state.releases {
        let due = f64::from_bits(bits);
        let sound = instant(due) && seq < state.seq && last < Some((bits, seq));
        ensure(MAGIC, sound, || {
            format!("tenant {user}: release {seq} of {} due at {due}", state.seq)
        })?;
        last = Some((bits, seq));
    }
    Ok(())
}

/// The admission-tier section: the karma entries and pending releases
/// of the fair-share ledger at clock `now` with `seq` admissions
/// behind it, the rolling decision digest, and the quota-deferred queue.
fn get_admission(
    r: &mut Reader<'_>,
    acfg: &AdmissionConfig,
    jobs: JobBounds<'_>,
    now: f64,
    seq: u64,
) -> Result<AdmissionState, CheckpointError> {
    let state = FairShareState {
        now,
        seq,
        karma: r.seq(4 + 8 + 8, |r| Ok((r.u32()?, r.f64()?, r.f64()?)))?,
        releases: r.seq(8 + 8 + 4, |r| Ok((r.u64()?, r.u64()?, r.u32()?)))?,
    };
    check_ledger(&state)?;
    let mut adm = AdmissionState::new(acfg);
    adm.share = FairShare::from_state(acfg.quota, &state);
    adm.digest = r.u64()?;
    adm.deferred = r.seq(JOB_MIN, |r| get_job(r, jobs))?.into();
    Ok(adm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeReport;
    use crate::source::ChannelSource;
    use hrp_cluster::place::{PlacementAgent, PlacementConfig};
    use hrp_cluster::trace::TraceKind;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    fn trace_cfg(kind: TraceKind, jobs: usize, seed: u64) -> TraceConfig {
        TraceConfig::new(kind, jobs, seed).gang_share(0.25)
    }

    fn drain<S: ArrivalSource>(mut svc: SchedulerService<'_, S>) -> ServeReport {
        svc.run_to_close();
        svc.finish()
    }

    /// Run until `cut` jobs have been ingested, checkpoint there, then
    /// finish both halves and demand a bit-identical timeline.
    fn assert_kill_restore_is_exact<S: ArrivalSource>(
        mut svc: SchedulerService<'_, S>,
        cut: usize,
    ) {
        let s = suite();
        while svc.consumed() < cut {
            assert!(
                !matches!(svc.step(), crate::service::ServiceStep::Closed),
                "trace closed before the cut at {cut}"
            );
        }
        let blob = svc.checkpoint().expect("deterministic source");
        let uninterrupted = drain(svc);
        let resumed = drain(restore(&s, blob).expect("round trip"));
        assert_eq!(
            resumed.report.timeline.digest(),
            uninterrupted.report.timeline.digest(),
            "resumed timeline diverged"
        );
        assert_eq!(resumed.report.per_node, uninterrupted.report.per_node);
        assert_eq!(resumed.report.aggregate, uninterrupted.report.aggregate);
        assert_eq!(resumed.stats, uninterrupted.stats, "logical counters");
        assert_eq!(
            resumed.admission.as_ref().map(|a| a.digest),
            uninterrupted.admission.as_ref().map(|a| a.digest),
            "admission-decision digests diverged"
        );
    }

    /// Rewrite one `key=value` line in the spec (fixing up the length
    /// prefix, carrying the body over verbatim) — how a forged blob
    /// smuggles an out-of-range value past an otherwise valid
    /// container.
    fn tamper(blob: &[u8], key: &str, value: &str) -> Vec<u8> {
        let spec_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
        let spec = std::str::from_utf8(&blob[12..12 + spec_len]).unwrap();
        let prefix = format!("{key}=");
        let old = spec
            .lines()
            .find(|line| line.starts_with(&prefix))
            .unwrap_or_else(|| panic!("spec has no '{key}' line to tamper with"));
        let mut w = Writer::new(MAGIC, VERSION);
        w.str(&spec.replacen(old, &format!("{key}={value}"), 1));
        w.raw(&blob[12 + spec_len..]);
        w.finish()
    }

    /// Insert a `line` after the spec's `after=` line, kept as it is:
    /// how a forged blob smuggles in a key the format does not have.
    fn smuggle(blob: &[u8], after: &str, line: &str) -> Vec<u8> {
        let spec_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
        let spec = std::str::from_utf8(&blob[12..12 + spec_len]).unwrap();
        let prefix = format!("{after}=");
        let old = spec
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("spec has no '{after}' line"));
        tamper(blob, after, &format!("{}\n{line}", &old[prefix.len()..]))
    }

    /// The typed content error `restore` must come back with.
    fn invalid(
        result: Result<SchedulerService<'_, Box<dyn ArrivalSource + '_>>, CheckpointError>,
    ) -> String {
        match result.map(drop) {
            Err(CheckpointError::Invalid {
                format: "HRPS",
                what,
            }) => what,
            other => panic!("expected an invalid-HRPS error, got {other:?}"),
        }
    }

    #[test]
    fn kill_restore_round_trip_least_loaded() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 60, 7)),
        );
        assert_kill_restore_is_exact(svc, 30);
    }

    #[test]
    fn kill_restore_round_trip_round_robin_cursor() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(3, 2),
            SelectorKind::RoundRobin,
            TraceSource::new(&s, trace_cfg(TraceKind::Skewed, 50, 11)),
        );
        assert_kill_restore_is_exact(svc, 25);
    }

    #[test]
    fn kill_restore_round_trip_backfill_reservations() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2).walltime_err(0.25),
            SelectorKind::Conservative,
            TraceSource::new(&s, trace_cfg(TraceKind::HeavyTail, 60, 13)),
        );
        assert_kill_restore_is_exact(svc, 30);
    }

    #[test]
    fn kill_restore_round_trip_policy_agent() {
        let s = suite();
        let agent = PlacementAgent::untrained(PlacementConfig::quick());
        let svc = SchedulerService::with_agent(
            &s,
            ServeConfig::new(4, 2),
            agent,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 40, 5)),
        );
        assert_kill_restore_is_exact(svc, 20);
    }

    /// The largest walltime error a service accepts is one `restore`
    /// accepts too: the parent commit built services outside the bound
    /// that restore then refused.
    #[test]
    fn kill_restore_round_trip_at_the_largest_walltime_error() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).walltime_err(0.999),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 40, 9)),
        );
        assert_kill_restore_is_exact(svc, 20);
    }

    #[test]
    fn kill_restore_round_trip_load_generator() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2),
            SelectorKind::LeastLoaded,
            LoadGen::new(&s, LoadShape::Bursty, 3.0, 40.0, 17),
        );
        assert_kill_restore_is_exact(svc, 40);
    }

    #[test]
    fn kill_restore_round_trip_admission_fair_share() {
        let s = suite();
        let cfg = ServeConfig::new(2, 2).admission(crate::service::AdmissionConfig::new().quota(2));
        let svc = SchedulerService::new(
            &s,
            cfg,
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 60, 7).users(4)),
        );
        assert_kill_restore_is_exact(svc, 30);
    }

    #[test]
    fn channel_source_refuses_to_checkpoint() {
        let s = suite();
        let (_tx, src) = ChannelSource::channel();
        let svc = SchedulerService::new(&s, ServeConfig::new(2, 2), SelectorKind::LeastLoaded, src);
        match svc.checkpoint() {
            Err(CheckpointError::Invalid { what, .. }) => {
                assert!(what.contains("channel"), "names the source: {what}")
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn foreign_blobs_are_rejected() {
        let s = suite();
        let foreign = restore(&s, b"HRPP----------------".to_vec()).map(drop);
        assert_eq!(
            foreign,
            Err(CheckpointError::NotACheckpoint { expected: "HRPS" })
        );
        // Versions 1 (no tenant fields), 2 (two spec keys since
        // retired), 3 (node fields the event log already holds), 4
        // (load snapshots and counters the node records determine) and
        // 5 (node counters, a cursor and ledger entries the rest of the
        // blob determines) are as foreign as a future one.
        for version in [0u32, 1, 2, 3, 4, 5, 99] {
            let mut alien = Writer::new(MAGIC, version);
            alien.str("");
            assert_eq!(
                restore(&s, alien.finish()).map(drop),
                Err(CheckpointError::BadVersion {
                    format: "HRPS",
                    found: version
                })
            );
        }
    }

    /// `tests/decoder_hostile.rs` sweeps every truncation for panics
    /// and allocations; this pins what a clipped blob comes back *as*:
    /// the typed content error, naming the format and the shortfall.
    #[test]
    fn truncated_bodies_error_instead_of_panicking() {
        let s = suite();
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(crate::service::AdmissionConfig::new().quota(1)),
            SelectorKind::Easy,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 20, 3).users(3)),
        );
        // Mid-run, so the body carries jobs, fair-share state, and
        // (with quota 1 under bursts) usually a deferred queue too.
        while svc.consumed() < 10 {
            let _ = svc.step();
        }
        let blob = svc.checkpoint().expect("checkpointable");
        for cut in [13usize, blob.len() / 2, blob.len() - 1] {
            let what = invalid(restore(&s, blob[..cut].to_vec()));
            assert!(what.contains("truncated"), "clip at {cut}: {what}");
        }
    }

    /// Satellite regression: a structurally valid blob whose source
    /// position points past the end of the stream, or past the arrivals
    /// its body holds, must come back as a typed error — not an assert
    /// panic in the resume path, and not a replay of every position.
    #[test]
    fn forged_source_positions_error_instead_of_panicking() {
        let s = suite();
        let trace_svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Uniform, 20, 3)),
        );
        let blob = trace_svc.checkpoint().expect("checkpointable");
        let what = invalid(restore(&s, tamper(&blob, "src_consumed", "1000000")));
        assert!(what.contains("beyond"), "names the overrun: {what}");
        // A trace as long as the position: the parent commit replayed
        // 10^11 arrivals before it could refuse anything.
        let long = tamper(&blob, "src_jobs", "100000000000");
        let started = std::time::Instant::now();
        let what = invalid(restore(&s, tamper(&long, "src_consumed", "100000000000")));
        assert!(
            what.contains("holds 0 arrivals"),
            "names the shortfall: {what}"
        );
        assert!(started.elapsed().as_secs() < 1, "refused without a replay");

        let mut gen_svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::LeastLoaded,
            LoadGen::new(&s, LoadShape::Poisson, 3.0, 20.0, 11),
        );
        let blob = gen_svc.checkpoint().expect("checkpointable");
        let what = invalid(restore(&s, tamper(&blob, "src_consumed", "1000000")));
        assert!(
            what.contains("holds 0 arrivals"),
            "names the shortfall: {what}"
        );
        // A position the body accounts for, past a forged horizon.
        while gen_svc.consumed() < 5 {
            let _ = gen_svc.step();
        }
        let blob = gen_svc.checkpoint().expect("checkpointable");
        let what = invalid(restore(&s, tamper(&blob, "src_duration", "0.001")));
        assert!(what.contains("horizon"), "names the overrun: {what}");
    }

    /// More forged-spec hardening: out-of-range geometry and admission
    /// knobs, and keys that are not part of the format, surface as
    /// typed errors before any builder assert runs.
    #[test]
    fn forged_spec_values_error_instead_of_panicking() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(crate::service::AdmissionConfig::new().quota(2)),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Uniform, 20, 3).users(3)),
        );
        let blob = svc.checkpoint().expect("checkpointable");
        for (key, value) in [
            ("nodes", "0"),
            ("nodes", "65"),
            ("gpus_per_node", "0"),
            ("walltime_err", "NaN"),
            ("adm_quota", "0"),
            ("adm_slo", "-1.0"),
            ("src_jobs", "0"),
            ("src_mean_gap", "NaN"),
            ("src_gang_share", "2.0"),
            ("src_user_skew", "0.0"),
            // A tenant table of 32 GB (the parent commit aborted on it).
            ("src_users", "4000000000"),
            // A key the format retired is unknown (the chunked engine's
            // counters).
            ("rejected", "0\nrollbacks=0"),
            // More re-plans than the cycles had node visits, and cycle
            // counts whose visits overflow.
            ("nodes_replanned", "18446744073709551615"),
            ("cycles", "18446744073709551615"),
            // A last cycle that is no instant: NaN, +inf, -1.0. It is
            // the fair-share ledger's clock too.
            ("last_cycle_bits", "9221120237041090560"),
            ("last_cycle_bits", "9218868437227405312"),
            ("last_cycle_bits", "13830554455654793216"),
        ] {
            let what = invalid(restore(&s, tamper(&blob, key, value)));
            assert!(!what.is_empty(), "forged {key}={value}");
        }
        // A policy tier's body holds its agent's `HRPP` blob after the
        // node records; this one holds the admission section there.
        assert_eq!(
            restore(&s, tamper(&blob, "selector", "policy")).map(drop),
            Err(CheckpointError::NotACheckpoint { expected: "HRPP" })
        );
        // Whether an agent comes with the blob is the selector's to say.
        let what = invalid(restore(&s, smuggle(&blob, "has_lookahead", "has_agent=1")));
        assert!(what.contains("unknown key 'has_agent'"), "{what}");

        // A round-robin cursor is the decision count the node logs hold,
        // so the format has no key for it.
        let mut rr = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::RoundRobin,
            TraceSource::new(&s, trace_cfg(TraceKind::Uniform, 20, 3)),
        );
        while rr.consumed() < 10 {
            let _ = rr.step();
        }
        let decisions = rr.stats().decisions;
        assert!(decisions > 0, "the cut comes after some decisions");
        let blob = rr.checkpoint().expect("checkpointable");
        for cursor in [0, decisions - 1, decisions, decisions + 1] {
            let line = format!("rr_cursor={cursor}");
            let what = invalid(restore(&s, smuggle(&blob, "selector", &line)));
            assert!(what.contains("unknown key 'rr_cursor'"), "{line}: {what}");
        }
    }

    /// Satellite regression: a node record that holds more GPUs than
    /// the node has is a typed error at the decode boundary — the
    /// decoder derives the free count from the placements the log
    /// leaves running, and `NodeRun::from_state` asserts it fits the
    /// pool ("more free GPUs than exist" when `HRPS` wrote it).
    #[test]
    fn forged_node_records_error_instead_of_panicking() {
        let s = suite();
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 20, 3)),
        );
        // Step until node 0 runs two placements of one GPU each.
        let open_starts = |svc: &SchedulerService<'_, TraceSource<'_>>| {
            let log = &svc.drive.node(0).state().events;
            let mut bytes = Vec::new();
            for index in log.open_starts().expect("a node's own log") {
                let mut w = Writer::new(MAGIC, VERSION);
                put_event(&mut w, log.get(index));
                bytes.push(w.finish()[8..].to_vec());
            }
            bytes
        };
        while open_starts(&svc).len() < 2 {
            assert!(svc.consumed() < 20, "node 0 never ran two placements");
            let _ = svc.step();
        }
        let blob = svc.checkpoint().expect("checkpointable");
        for start in open_starts(&svc) {
            let at = blob
                .windows(start.len())
                .position(|w| w == start.as_slice())
                .expect("the start is in the blob");
            // `time f64 | seq u64 | tag u8 | gpus u32`: the whole pool.
            let mut raw = blob.to_vec();
            raw[at + 17..at + 21].copy_from_slice(&2u32.to_le_bytes());
            let what = invalid(restore(&s, raw));
            assert!(what.contains("node 0"), "names the node: {what}");
        }
    }
}
