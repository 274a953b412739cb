//! The long-running scheduler service core.
//!
//! [`SchedulerService`] wraps a [`ClusterDrive`] behind an
//! event-driven ingest loop: each [`SchedulerService::step`] pulls
//! one arrival burst from the [`ArrivalSource`], runs one
//! *incremental scheduling cycle* at that instant, and routes every
//! job of the burst through the selector. A cycle is one
//! [`ClusterDrive::advance_to`], which re-plans only the nodes whose
//! slot profile can still change — quiescent nodes (idle, no pending
//! dispatch) are skipped entirely, as they are at every batch epoch —
//! and the produced [`ClusterTimeline`](hrp_cluster::multinode::ClusterTimeline) is
//! bit-identical to a batch [`MultiNodeSim`](hrp_cluster::multinode::MultiNodeSim)
//! replay of the same finite trace: skipping a quiescent node is a
//! provable no-op (its state cannot change and its load snapshot is
//! time-invariant), so the batch engine survives as the oracle.
//!
//! With [`ServeConfig::admission`] set, an admission-control +
//! fair-share tier sits in front of the selector: each arrival is
//! admitted, deferred (tenant over its in-flight quota), or rejected
//! (projected slowdown past the SLO), and each burst is ordered by
//! tenant karma ([`hrp_cluster::fair`]) before placement. Deferred jobs
//! wait in FIFO order behind a door that opens on a release: a parked
//! job's tenant is at its quota until
//! [`FairShare::advance_to`] pops one of its estimated completions, so
//! a cycle in which it pops none leaves the queue alone (checked with a
//! `debug_assert!` on every such cycle, and established by one
//! unconditional walk after the service is built or restored). When
//! the walk runs it is decided in place — one `retain_mut` over the
//! parked queue — and a cycle groups and orders its burst in buffers
//! the service and the ledger keep, so a cycle that parks everything it
//! is handed allocates nothing.
//! Admission state checkpoints alongside everything else, so
//! kill/restore reproduces the decisions bit-exactly.
//!
//! The service keeps the [`SelectorKind`] it was built with and reads
//! everything else off it: every node runs the dispatcher
//! [`dispatcher_for`] gives that kind — a policy service's too, so an
//! agent is served through the nodes placement training ran it on — and
//! every decision makes one call of the selector
//! [`SelectorKind::build`] (or the agent) gave it. The dispatchers are
//! event-driven: a node needs a cycle only at a job event. The one
//! instant a service must wake at with no arrival is an
//! estimated release of the admission tier while jobs are parked —
//! [`SchedulerService::next_wakeup`] — and
//! [`SchedulerService::wake_cycle`] runs exactly there.

use crate::source::{ArrivalSource, SourcePoll};
use hrp_cluster::fair::{self, FairShare};
use hrp_cluster::job::ClusterJob;
use hrp_cluster::multinode::{ClusterDrive, MultiNodeReport, MAX_GPUS_PER_NODE};
use hrp_cluster::place::PlacementAgent;
pub use hrp_cluster::select::dispatcher_for;
use hrp_cluster::select::{NodeDispatcher, NodeSelector, SelectorKind};
use hrp_core::{fnv1a, FNV_OFFSET};
use hrp_workloads::Suite;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The admission tier's knobs: per-user in-flight quota and the reject
/// SLO. Attached to a service via
/// [`ServeConfig::admission`]; the defaults (`quota` unlimited, `slo`
/// infinite) admit everything but still order bursts by tenant karma.
///
/// ```
/// use hrp_cluster::select::SelectorKind;
/// use hrp_cluster::trace::{TraceConfig, TraceKind};
/// use hrp_gpusim::GpuArch;
/// use hrp_serve::{AdmissionConfig, SchedulerService, ServeConfig, TraceSource};
/// use hrp_workloads::Suite;
///
/// let suite = Suite::paper_suite(&GpuArch::a100());
/// // Three Zipf-skewed tenants; tenant 0 is the heavy one.
/// let cfg = TraceConfig::new(TraceKind::Bursty, 24, 7)
///     .mean_gap(4.0)
///     .users(3);
///
/// let admission = AdmissionConfig::new().quota(2);
/// let mut service = SchedulerService::new(
///     &suite,
///     ServeConfig::new(2, 2).admission(admission),
///     SelectorKind::LeastLoaded,
///     TraceSource::new(&suite, cfg),
/// );
/// service.run_to_close();
/// let served = service.finish();
///
/// // Infinite SLO: nothing rejected, every arrival eventually admitted.
/// // A service built with an admission tier reports its outcome.
/// let outcome = served.admission.expect("admission tier was on");
/// assert_eq!(served.stats.rejected, 0);
/// assert_eq!(outcome.effective.len(), 24);
/// // The heavy tenant hit its 2-job in-flight cap along the way.
/// assert!(served.stats.deferred > 0, "quota deferred some arrivals");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Per-user in-flight cap: a tenant at the cap has new arrivals
    /// *deferred* until an earlier admission's estimated completion
    /// passes. [`usize::MAX`] (the default) never defers.
    pub quota: usize,
    /// Reject threshold on *projected slowdown*: a fresh arrival whose
    /// `(projected wait + solo time) / solo time` exceeds this is
    /// rejected outright. [`f64::INFINITY`] (the default) never
    /// rejects. The projected wait is the cheapest node's queued
    /// work per GPU at the admission instant — an O(nodes) read of the
    /// load snapshots the selector already maintains.
    pub slo: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            quota: usize::MAX,
            slo: f64::INFINITY,
        }
    }
}

impl AdmissionConfig {
    /// The admit-everything defaults (fair ordering only).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: cap each tenant's in-flight jobs.
    ///
    /// # Panics
    /// Panics if `quota` is 0 (nothing could ever be admitted).
    #[must_use]
    pub fn quota(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "quota must be at least 1");
        self.quota = quota;
        self
    }

    /// Builder: reject arrivals whose projected slowdown exceeds
    /// `slo` (use [`f64::INFINITY`] to never reject).
    ///
    /// # Panics
    /// Panics if `slo` is NaN or not positive.
    #[must_use]
    pub fn slo(mut self, slo: f64) -> Self {
        assert!(slo > 0.0, "slo must be positive, got {slo}");
        self.slo = slo;
        self
    }
}

/// Service geometry and front-door policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Cluster nodes (1..=64).
    pub nodes: usize,
    /// GPUs per node (1..=[`MAX_GPUS_PER_NODE`]).
    pub gpus_per_node: usize,
    /// Walltime-estimate error handed to backfilling planners, in
    /// `[0, 1)` (ignored by the co-scheduling dispatcher kinds, the
    /// policy tier among them).
    pub walltime_err: f64,
    /// Admission control + per-user fair share in front of the
    /// selector, or `None` (the default) for the legacy
    /// admit-everything front door.
    pub admission: Option<AdmissionConfig>,
}

impl ServeConfig {
    /// A service of `nodes` × `gpus_per_node` with exact walltime
    /// estimates and no admission tier.
    #[must_use]
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        Self {
            nodes,
            gpus_per_node,
            walltime_err: 0.0,
            admission: None,
        }
    }

    /// Builder: walltime-estimate error fraction (see
    /// [`BackfillPlanner::with_walltime_err`]).
    ///
    /// [`BackfillPlanner::with_walltime_err`]: hrp_cluster::backfill::BackfillPlanner::with_walltime_err
    #[must_use]
    pub fn walltime_err(mut self, err: f64) -> Self {
        self.walltime_err = err;
        self
    }

    /// Builder: put an admission-control + fair-share tier in front
    /// of the selector.
    #[must_use]
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }
}

/// The selector the service owns: its kind, which also names the
/// nodes' dispatchers ([`dispatcher_for`]) and the `HRPS` `selector`
/// key, the selector every decision calls once, and for the policy tier
/// the agent behind it (checkpointed as an embedded `HRPP` blob).
pub(crate) struct SelectorState {
    pub(crate) kind: SelectorKind,
    selector: Box<dyn NodeSelector>,
    pub(crate) agent: Option<PlacementAgent>,
}

impl SelectorState {
    /// A heuristic kind placing through `selector`.
    pub(crate) fn heuristic(kind: SelectorKind, selector: Box<dyn NodeSelector>) -> Self {
        Self {
            kind,
            selector,
            agent: None,
        }
    }

    /// The policy tier: the greedy selector wrapping `agent`'s snapshot.
    pub(crate) fn from_agent(agent: PlacementAgent) -> Self {
        Self {
            kind: SelectorKind::Policy,
            selector: Box::new(agent.selector()),
            agent: Some(agent),
        }
    }

    /// Why this tier cannot place for a service of `cfg`'s geometry, if
    /// it cannot: a policy agent is shaped by the cluster it was
    /// trained for (one action per node, planners sized to its nodes).
    pub(crate) fn geometry_mismatch(&self, cfg: &ServeConfig) -> Option<String> {
        let trained = self.agent.as_ref()?.config();
        (trained.nodes != cfg.nodes || trained.gpus_per_node != cfg.gpus_per_node).then(|| {
            format!(
                "agent places over {} nodes x {} GPUs, service has {} x {}",
                trained.nodes, trained.gpus_per_node, cfg.nodes, cfg.gpus_per_node
            )
        })
    }
}

/// Why a source that hands out jobs of up to `max_gpus` GPUs cannot
/// feed `gpus_per_node`-GPU nodes, if it cannot: its first wider job
/// would panic at placement.
pub(crate) fn source_width_mismatch(max_gpus: usize, gpus_per_node: usize) -> Option<String> {
    (max_gpus > gpus_per_node)
        .then(|| format!("src_max_gpus={max_gpus} is wider than the {gpus_per_node}-GPU nodes"))
}

/// Logical per-service counters, in the style of
/// [`SyncStats`](hrp_cluster::multinode::SyncStats): pure functions of the input stream, never of wall
/// clock — so tests can pin them. The service counts the cycles and the
/// admission outcomes; [`SchedulerService::stats`] reads the rest off
/// the drive, before its final drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Scheduling cycles triggered by arrival bursts.
    pub cycles: u64,
    /// Idle cycles with no arrival to place ([`SchedulerService::settle`] /
    /// [`SchedulerService::wake_cycle`]).
    pub wake_cycles: u64,
    /// Placement decisions made: the jobs the drive routed.
    pub decisions: u64,
    /// Node re-plans: the drive's node advances, one per node a cycle
    /// moved and load-refreshed.
    pub nodes_replanned: u64,
    /// Nodes the cycles skipped as quiescent: their node visits less
    /// the re-plans.
    pub nodes_skipped: u64,
    /// Arrivals parked by the admission tier because their tenant was
    /// at its in-flight quota (counted once per job, not per retry).
    pub deferred: u64,
    /// Arrivals rejected because their projected slowdown exceeded
    /// the admission SLO.
    pub rejected: u64,
}

/// The [`ServeStats`] the drive does not count: the cycles and the
/// admission tier's outcomes. Checkpointed as spec keys.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counts {
    pub(crate) cycles: u64,
    pub(crate) wake_cycles: u64,
    pub(crate) deferred: u64,
    pub(crate) rejected: u64,
}

/// Decision-latency summary over one service run (microseconds).
/// Wall-clock measurement — excluded from checkpoints and never part of
/// the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Decisions timed.
    pub samples: usize,
    /// Median decision latency in µs: the upper bound of the histogram
    /// bucket holding the nearest-rank sample, at most 1/16 above it.
    pub p50_us: f64,
    /// 99th-percentile decision latency in µs, bucketed like `p50_us`.
    pub p99_us: f64,
    /// Worst decision latency in µs, exact.
    pub max_us: f64,
}

/// Sub-buckets per power of two of a [`LatencyHistogram`], as bits.
const SUB_BITS: u32 = 4;

/// Buckets that cover every nanosecond count a `u64` holds.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Decision latencies in fixed memory: a count per logarithmic bucket
/// of nanoseconds, 16 buckets per power of two (exact below 32 ns), so
/// a service that decides for days holds no more than one that just
/// started.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    counts: [u64; BUCKETS],
    samples: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            samples: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    // `ns >> shift` keeps at most `SUB_BITS + 1` bits, which fit.
    #[allow(clippy::cast_possible_truncation)]
    fn bucket(ns: u64) -> usize {
        let shift = (u64::BITS - ns.leading_zeros()).saturating_sub(SUB_BITS + 1);
        ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
    }

    /// The largest nanosecond count in `bucket`.
    fn upper(bucket: usize) -> u64 {
        let shift = (bucket >> SUB_BITS).saturating_sub(1);
        let mantissa = (bucket - (shift << SUB_BITS)) as u64;
        (mantissa << shift) + ((1 << shift) - 1)
    }

    pub(crate) fn record(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(ns)] += 1;
        self.samples += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Nearest-rank percentiles, each reported as the upper bound of the
    /// bucket that holds it (no more than the maximum); all zeros when
    /// nothing was recorded.
    pub(crate) fn summary(&self) -> LatencySummary {
        let n = self.samples;
        let us = |ns: u64| ns as f64 / 1e3;
        // The `rank`-th smallest sample (1-based), bucketed. Every rank
        // asked for is at most `n`, the sum of the counts, so some
        // bucket brings the running count to it.
        let at_rank = |rank: u64| {
            let mut seen = 0;
            let bucket = self.counts.iter().position(|&count| {
                seen += count;
                seen >= rank
            });
            us(Self::upper(bucket.expect("a rank of at most n")).min(self.max_ns))
        };
        LatencySummary {
            samples: usize::try_from(n).expect("one sample per decision, counted in a usize"),
            p50_us: at_rank(n.div_ceil(2)),
            p99_us: at_rank((99 * n).div_ceil(100)),
            max_us: us(self.max_ns),
        }
    }
}

/// What one [`SchedulerService::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceStep {
    /// Ran a scheduling cycle at `time`, placing `jobs` jobs.
    Cycle {
        /// The arrival instant the cycle ran at.
        time: f64,
        /// Jobs placed (the burst size).
        jobs: usize,
    },
    /// The source had nothing available right now; the caller may
    /// sleep until [`SchedulerService::next_wakeup`] or until new
    /// input is known to exist.
    Pending,
    /// The source is exhausted — call [`SchedulerService::finish`].
    Closed,
}

/// What the admission tier did over a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// Rolling FNV-1a digest over every admission decision
    /// `(job id, admission instant bits, user)` in order — the
    /// checkpointed fingerprint the fairness contract pins across
    /// threads and kill/restore.
    pub digest: u64,
    /// The *effective* admitted trace: every admitted job with its
    /// arrival rewritten to the admission instant, in placement
    /// order. Replaying this through a batch
    /// [`MultiNodeSim`](hrp_cluster::multinode::MultiNodeSim)
    /// (arrival order) reproduces the service timeline bit-exactly.
    /// Not checkpointed — a restored service logs only the jobs it
    /// admitted since restore.
    pub effective: Vec<ClusterJob>,
}

/// Everything a finished service run reports.
#[derive(Debug)]
pub struct ServeReport {
    /// The drained cluster report — aggregate, per-node, and the
    /// merged deterministic timeline (digest-comparable to batch).
    pub report: MultiNodeReport,
    /// Logical service counters.
    pub stats: ServeStats,
    /// Wall-clock decision-latency summary.
    pub latency: LatencySummary,
    /// Admission-tier outcome, when [`ServeConfig::admission`] was on.
    pub admission: Option<AdmissionOutcome>,
}

/// Live admission-tier state: the fair-share bookkeeping plus the
/// quota-deferred queue and the decision digest. Checkpointed (minus
/// the effective-trace log) so kill/restore reproduces admission
/// decisions bit-exactly.
pub(crate) struct AdmissionState {
    pub(crate) share: FairShare,
    /// The reject threshold ([`AdmissionConfig::slo`]).
    slo: f64,
    /// Quota-parked jobs in deferral order (FIFO re-examination, after
    /// a release).
    pub(crate) deferred: VecDeque<ClusterJob>,
    /// Rolling FNV-1a digest over admission decisions.
    pub(crate) digest: u64,
    /// Admitted jobs at their effective arrivals (not checkpointed).
    pub(crate) effective: Vec<ClusterJob>,
}

impl AdmissionState {
    pub(crate) fn new(cfg: &AdmissionConfig) -> Self {
        Self {
            share: FairShare::new(cfg.quota),
            slo: cfg.slo,
            deferred: VecDeque::new(),
            digest: FNV_OFFSET,
            effective: Vec::new(),
        }
    }

    /// Fold one admission decision into the digest.
    fn record(&mut self, job: &ClusterJob, t: f64) {
        for word in [job.id as u64, t.to_bits(), u64::from(job.user)] {
            self.digest = fnv1a(self.digest, &word.to_le_bytes());
        }
    }
}

/// A long-running scheduler service: ingest loop, incremental cycles,
/// and (via [`crate::checkpoint`]) live `HRPS` checkpoint/restore.
///
/// Draining a finite source reproduces the batch engines bit-exactly:
///
/// ```
/// use hrp_cluster::multinode::MultiNodeSim;
/// use hrp_cluster::select::SelectorKind;
/// use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
/// use hrp_gpusim::GpuArch;
/// use hrp_serve::{SchedulerService, ServeConfig, TraceSource};
/// use hrp_workloads::Suite;
///
/// let suite = Suite::paper_suite(&GpuArch::a100());
/// // A thin trace (long mean gap) so nodes drain between bursts and
/// // the incremental dirty set has something to skip.
/// let cfg = TraceConfig::new(TraceKind::Bursty, 24, 7)
///     .gang_share(0.25)
///     .mean_gap(40.0);
///
/// // Online: stream the arrivals through the service.
/// let source = TraceSource::new(&suite, cfg.clone());
/// let mut service = SchedulerService::new(
///     &suite,
///     ServeConfig::new(4, 2),
///     SelectorKind::LeastLoaded,
///     source,
/// );
/// service.run_to_close();
/// let served = service.finish();
///
/// // Batch oracle: the same trace through MultiNodeSim.
/// let mut selector = SelectorKind::LeastLoaded.build();
/// let batch = MultiNodeSim::new(4, 2).run(
///     &suite,
///     generate(&suite, &cfg),
///     selector.as_mut(),
///     |_| hrp_serve::dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0),
/// );
/// assert_eq!(served.report.timeline.digest(), batch.timeline.digest());
/// assert!(served.stats.nodes_skipped > 0, "dirty set saved re-plans");
/// ```
pub struct SchedulerService<'a, S: ArrivalSource> {
    pub(crate) suite: &'a Suite,
    pub(crate) cfg: ServeConfig,
    pub(crate) drive: ClusterDrive<'a, NodeDispatcher>,
    pub(crate) selector: SelectorState,
    pub(crate) source: S,
    /// The first arrival of the *next* burst, pulled while grouping
    /// the current one.
    pub(crate) lookahead: Option<ClusterJob>,
    /// Instant of the last cycle — arrivals must not move backwards.
    pub(crate) last_cycle: f64,
    /// What only the service counts (see [`SchedulerService::stats`]).
    pub(crate) counts: Counts,
    /// Decision latencies (not checkpointed: a restored service starts
    /// an empty histogram).
    pub(crate) latencies: LatencyHistogram,
    /// The buffer [`SchedulerService::step`] groups each burst in, empty
    /// between cycles.
    pub(crate) burst: Vec<ClusterJob>,
    /// The admission tier, when [`ServeConfig::admission`] is on.
    pub(crate) admission: Option<AdmissionState>,
    /// The parked queue has not been walked since this service was
    /// built or restored, so nothing vouches yet for the door invariant
    /// (see [`SchedulerService::revisit_deferred`]). Not checkpointed: a
    /// restored service owes the walk again.
    pub(crate) walk_owed: bool,
}

impl<'a, S: ArrivalSource> SchedulerService<'a, S> {
    /// A fresh service over a heuristic selector kind.
    ///
    /// # Panics
    /// Panics for [`SelectorKind::Policy`] (use
    /// [`SchedulerService::with_agent`]), on geometry the cluster
    /// rejects (0 or more than 64 nodes), and on a `cfg` a checkpoint
    /// could not restore: `walltime_err` outside `[0, 1)`,
    /// `gpus_per_node` outside `1..=`[`MAX_GPUS_PER_NODE`], an
    /// admission tier with a zero `quota` or a `slo` that is not
    /// positive, or a source whose jobs may be wider than a node
    /// (`src_max_gpus`). The message names the field.
    #[must_use]
    pub fn new(suite: &'a Suite, cfg: ServeConfig, kind: SelectorKind, source: S) -> Self {
        assert!(
            !kind.needs_training(),
            "SelectorKind::Policy needs a trained agent; \
             build the service via SchedulerService::with_agent"
        );
        Self::build(
            suite,
            cfg,
            SelectorState::heuristic(kind, kind.build()),
            source,
        )
    }

    /// A fresh service placing through a trained (or untrained)
    /// placement agent — the frozen-policy global tier, over the nodes
    /// [`dispatcher_for`] builds for [`SelectorKind::Policy`], the ones
    /// placement training runs its episodes on.
    ///
    /// # Panics
    /// Panics if the agent was shaped for another geometry than
    /// `cfg.nodes` × `cfg.gpus_per_node`, and on a `cfg` a checkpoint
    /// could not restore, as [`SchedulerService::new`] does.
    #[must_use]
    pub fn with_agent(
        suite: &'a Suite,
        cfg: ServeConfig,
        agent: PlacementAgent,
        source: S,
    ) -> Self {
        Self::build(suite, cfg, SelectorState::from_agent(agent), source)
    }

    /// # Panics
    /// Panics on a `cfg` or a source bound that
    /// [`crate::checkpoint::restore`] would refuse, naming the field, or
    /// if a policy tier's agent was shaped for another geometry than
    /// `cfg`'s (see [`SchedulerService::with_agent`]).
    fn build(suite: &'a Suite, cfg: ServeConfig, selector: SelectorState, source: S) -> Self {
        let err = cfg.walltime_err;
        assert!(
            (0.0..1.0).contains(&err),
            "walltime_err must lie in [0, 1), got {err}"
        );
        let gpus = cfg.gpus_per_node;
        assert!(
            (1..=MAX_GPUS_PER_NODE).contains(&gpus),
            "gpus_per_node must lie in 1..={MAX_GPUS_PER_NODE}, got {gpus}"
        );
        if let Some(AdmissionConfig { quota, slo }) = cfg.admission {
            assert!(
                quota >= 1,
                "admission quota must be at least 1, got {quota}"
            );
            assert!(slo > 0.0, "admission slo must be positive, got {slo}");
        }
        if let Some(mismatch) = selector.geometry_mismatch(&cfg) {
            panic!("{mismatch}");
        }
        // The source's job-width bound, read from the spec a checkpoint
        // would record (a live channel has none).
        let max_gpus = source
            .checkpoint_spec()
            .into_iter()
            .flatten()
            .find(|(key, _)| *key == "max_gpus")
            .and_then(|(_, value)| value.parse().ok());
        if let Some(mismatch) = max_gpus.and_then(|max| source_width_mismatch(max, gpus)) {
            panic!("{mismatch}");
        }
        let kind = selector.kind;
        let drive = ClusterDrive::new(suite, cfg.nodes, gpus, |_| dispatcher_for(kind, gpus, err));
        let admission = cfg.admission.as_ref().map(AdmissionState::new);
        Self {
            suite,
            cfg,
            drive,
            selector,
            source,
            lookahead: None,
            last_cycle: 0.0,
            counts: Counts::default(),
            latencies: LatencyHistogram::default(),
            burst: Vec::new(),
            admission,
            walk_owed: true,
        }
    }

    /// The service geometry.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The selector kind placements run through.
    #[must_use]
    pub fn selector_kind(&self) -> SelectorKind {
        self.selector.kind
    }

    /// Counters so far. Every cycle, arrival or wake, is one
    /// [`ClusterDrive::advance_to`] round, so the decisions, re-plans and
    /// skips are read off the drive.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let sync = self.drive.sync();
        ServeStats {
            cycles: self.counts.cycles,
            wake_cycles: self.counts.wake_cycles,
            decisions: self.drive.placed() as u64,
            nodes_replanned: sync.node_advances,
            nodes_skipped: sync.sync_rounds * self.cfg.nodes as u64 - sync.node_advances,
            deferred: self.counts.deferred,
            rejected: self.counts.rejected,
        }
    }

    /// Jobs the source has handed out so far.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.source.consumed()
    }

    /// Jobs currently parked by the admission tier (quota-deferred,
    /// waiting for an earlier admission's estimated completion).
    #[must_use]
    pub fn deferred_jobs(&self) -> usize {
        self.admission.as_ref().map_or(0, |a| a.deferred.len())
    }

    /// The admission tier's earliest estimated release while jobs are
    /// parked — the idle-sleep bound for a service whose source is
    /// [`SourcePoll::Pending`] (or closed), so that a service whose
    /// source went quiet still wakes to re-examine its deferred queue.
    /// `None` with nothing parked: no node needs a cycle before the
    /// next arrival.
    #[must_use]
    pub fn next_wakeup(&self) -> Option<f64> {
        self.admission
            .as_ref()
            .filter(|a| !a.deferred.is_empty())
            .and_then(|a| a.share.next_release())
    }

    /// Ingest one arrival burst and run one scheduling cycle.
    ///
    /// # Panics
    /// Panics if the source hands out arrivals that move backwards in
    /// time, or a job wider than a node.
    pub fn step(&mut self) -> ServiceStep {
        let head = match self.lookahead.take() {
            Some(job) => job,
            None => match self.source.poll() {
                SourcePoll::Job(job) => job,
                SourcePoll::Pending => return ServiceStep::Pending,
                SourcePoll::Closed => return ServiceStep::Closed,
            },
        };
        let t = head.arrival;
        assert!(
            t.total_cmp(&self.last_cycle).is_ge(),
            "source went backwards: arrival {t} before cycle {}",
            self.last_cycle
        );
        // Group the burst: every immediately-available job at the
        // bitwise-same instant (the grouping the batch epoch driver
        // uses), holding the first later arrival as lookahead.
        let mut burst = std::mem::take(&mut self.burst);
        burst.push(head);
        while let SourcePoll::Job(job) = self.source.poll() {
            if job.arrival.total_cmp(&t).is_eq() {
                burst.push(job);
            } else {
                self.lookahead = Some(job);
                break;
            }
        }
        let jobs = burst.len();
        self.cycle(t, &mut burst);
        self.burst = burst;
        ServiceStep::Cycle { time: t, jobs }
    }

    /// One scheduling cycle at instant `t`: advance the non-quiescent
    /// nodes, run the admission tier (if on), then route every
    /// admitted job of the burst, which is left empty.
    fn cycle(&mut self, t: f64, burst: &mut Vec<ClusterJob>) {
        self.counts.cycles += 1;
        self.drive.advance_to(t);
        // The tier is lent out for the cycle so that its decisions and
        // the placements they make can borrow the service side by side.
        if let Some(mut adm) = self.admission.take() {
            // Deferred jobs are re-examined first (FIFO — they have
            // been waiting longest), then the fresh burst is ordered
            // by tenant karma at this instant: the lightest tenant's
            // jobs go through the door first, ties keep submission
            // order. Both steps are pure functions of the admission
            // state, so every engine replays them identically.
            self.revisit_deferred(&mut adm, t);
            adm.share.order_burst(t, burst);
            for job in burst.drain(..) {
                self.consider(&mut adm, t, job);
            }
            self.admission = Some(adm);
        } else {
            for job in burst.drain(..) {
                self.place_job(job);
            }
        }
        self.last_cycle = t;
    }

    /// Route one admitted job through the selector onto a node: the one
    /// `select` call of a decision, so a round-robin cursor is always
    /// the decision count.
    fn place_job(&mut self, job: ClusterJob) {
        let work = job.solo_time(self.suite);
        let started = Instant::now();
        let node = self
            .selector
            .selector
            .select(usize::from(job.gpus), work, self.drive.loads());
        self.latencies.record(started.elapsed());
        self.drive.place(node, job);
    }

    /// Advance the fair-share clock to `t` (releasing due admissions)
    /// and re-admit every deferred job whose tenant dropped back under
    /// quota, preserving deferral order for the rest.
    ///
    /// The door opens on a release. Every parked job's tenant is at its
    /// quota: it was when the job was parked, admissions only raise
    /// in-flight counts, and a count falls nowhere but in
    /// [`FairShare::advance_to`]. So when that reports no release the
    /// walk would put every job back where it was, and is skipped —
    /// except the first one after the service was built or restored,
    /// which is what establishes the invariant for a decoded queue.
    ///
    /// The walk is decided in place: the ledger's half of each decision
    /// (quota check, admission, arrival rewrite) runs inside one
    /// `retain_mut` over the parked queue, logging the jobs it lets
    /// through on the effective trace; the digest and the selector then
    /// see those jobs in the same order. Neither half reads what the
    /// other writes, so the outcome is the one of deciding job by job.
    fn revisit_deferred(&mut self, adm: &mut AdmissionState, t: f64) {
        let released = adm.share.advance_to(t);
        let owed = std::mem::take(&mut self.walk_owed);
        if !(released || owed) {
            debug_assert!(adm.deferred.iter().all(|j| adm.share.over_quota(j.user)));
            return;
        }
        let suite = self.suite;
        let first = adm.effective.len();
        let AdmissionState {
            share,
            deferred,
            effective,
            ..
        } = &mut *adm;
        deferred.retain_mut(|job| {
            if share.over_quota(job.user) {
                return true;
            }
            let release_at = t + job.solo_time(suite);
            share.admit(job.user, fair::job_cost(suite, job), release_at);
            job.arrival = t;
            effective.push(job.clone());
            false
        });
        for index in first..effective.len() {
            let job = adm.effective[index].clone();
            adm.record(&job, t);
            self.place_job(job);
        }
    }

    /// One admission decision on a fresh arrival at instant `t`: reject
    /// (projected slowdown breaks the SLO), defer (tenant at quota), or
    /// admit — charging karma, scheduling the estimated release, and
    /// placing the job with its arrival rewritten to the admission
    /// instant (the effective arrival the batch oracle replays).
    fn consider(&mut self, adm: &mut AdmissionState, t: f64, mut job: ClusterJob) {
        let work = job.solo_time(self.suite);
        if adm.slo.is_finite() {
            let wait = self.projected_wait(&job);
            if (wait + work) / work > adm.slo {
                self.counts.rejected += 1;
                return;
            }
        }
        if adm.share.over_quota(job.user) {
            self.counts.deferred += 1;
            adm.deferred.push_back(job);
            return;
        }
        adm.share
            .admit(job.user, fair::job_cost(self.suite, &job), t + work);
        job.arrival = t;
        adm.record(&job, t);
        adm.effective.push(job.clone());
        self.place_job(job);
    }

    /// A lower-bound wait estimate for one arrival: the cheapest
    /// node's outstanding queued work per GPU (zero if some node can
    /// start the job immediately) — the projected-wait profile the
    /// admission SLO is checked against.
    fn projected_wait(&self, job: &ClusterJob) -> f64 {
        self.drive
            .loads()
            .iter()
            .map(|l| {
                if l.free_gpus >= usize::from(job.gpus) && l.queued_jobs == 0 {
                    0.0
                } else {
                    l.outstanding / l.total_gpus as f64
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// An empty cycle at instant `t`: advance the dirty set with no
    /// arrivals to place. This is how idle time passes for a live
    /// service — deferred dispatches run, due releases open the door,
    /// and [`SchedulerService::next_wakeup`] reflects the settled
    /// state. The caller promises no arrival earlier than `t` will be
    /// ingested afterwards (the same monotonicity the sources already
    /// guarantee).
    ///
    /// # Panics
    /// Panics if `t` precedes the last cycle.
    pub fn settle(&mut self, t: f64) {
        assert!(
            t.total_cmp(&self.last_cycle).is_ge(),
            "settle at {t} before cycle {}",
            self.last_cycle
        );
        self.counts.wake_cycles += 1;
        self.drive.advance_to(t);
        if let Some(mut adm) = self.admission.take() {
            self.revisit_deferred(&mut adm, t);
            self.admission = Some(adm);
        }
        self.last_cycle = t;
    }

    /// Run one idle cycle exactly at [`SchedulerService::next_wakeup`],
    /// if there is one. Returns the instant it woke at.
    pub fn wake_cycle(&mut self) -> Option<f64> {
        let wake = self.next_wakeup()?;
        self.settle(wake);
        Some(wake)
    }

    /// Drive [`SchedulerService::step`] until the source closes,
    /// serving admission wake-ups while it pends. Intended for sources
    /// that eventually close (finite traces, load generators, channels
    /// whose producers hang up); a live deployment drives `step` /
    /// `settle` itself.
    ///
    /// # Panics
    /// Panics as [`SchedulerService::step`] does. The wake-up it counts
    /// on while jobs are parked is always there: a parked job's tenant
    /// is at quota, so it has an admission in flight whose estimated
    /// release is pending (a restored ledger is checked to pair every
    /// in-flight admission with a release).
    pub fn run_to_close(&mut self) {
        loop {
            match self.step() {
                ServiceStep::Cycle { .. } => {}
                ServiceStep::Pending => {
                    if self.wake_cycle().is_none() {
                        std::thread::yield_now();
                    }
                }
                ServiceStep::Closed => {
                    // A closed source can still leave quota-deferred
                    // jobs parked; estimated releases keep arriving,
                    // so wake through them until the queue drains.
                    if self.deferred_jobs() == 0 {
                        break;
                    }
                    self.wake_cycle()
                        .expect("deferred jobs imply a pending release wake-up");
                }
            }
        }
    }

    /// Drain every node to the end of time and report.
    ///
    /// # Panics
    /// Panics if a node's dispatcher strands jobs (the per-node
    /// deadlock check), or if the admission tier still has deferred
    /// jobs parked (drive the service to close first — finishing
    /// would silently drop them).
    #[must_use]
    pub fn finish(mut self) -> ServeReport {
        assert_eq!(
            self.deferred_jobs(),
            0,
            "finish with deferred jobs still parked; run_to_close first"
        );
        let stats = self.stats();
        let report = self.drive.finish();
        ServeReport {
            report,
            stats,
            latency: self.latencies.summary(),
            admission: self.admission.map(|mut a| {
                // The report outlives the service: keep no growth slack.
                a.effective.shrink_to_fit();
                AdmissionOutcome {
                    digest: a.digest,
                    effective: a.effective,
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSource;
    use hrp_cluster::multinode::MultiNodeSim;
    use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// The summary of one sample per whole microsecond `1..=n`.
    fn summary_of_micros(n: u64) -> LatencySummary {
        let mut histogram = LatencyHistogram::default();
        for us in 1..=n {
            histogram.record(Duration::from_micros(us));
        }
        histogram.summary()
    }

    /// A bucketed percentile is the upper bound of the bucket holding
    /// the exact one: no lower, and less than a sixteenth above.
    fn within_one_bucket_above(got: f64, exact: f64) -> bool {
        exact <= got && got - exact < exact / 16.0
    }

    #[test]
    fn latency_summary_uses_nearest_rank_percentiles() {
        let summary = summary_of_micros(100);
        assert_eq!(summary.samples, 100);
        assert!(within_one_bucket_above(summary.p50_us, 50.0), "{summary:?}");
        assert!(within_one_bucket_above(summary.p99_us, 99.0), "{summary:?}");
        assert_eq!(summary.max_us, 100.0);
        let empty = LatencyHistogram::default().summary();
        assert_eq!(empty.samples, 0);
        assert_eq!((empty.p50_us, empty.p99_us, empty.max_us), (0.0, 0.0, 0.0));
    }

    /// The nearest rank is the exact integer ceiling `⌈q·n⌉`, also where
    /// `q * n as f64` lands one ulp above an integral product (e.g.
    /// `0.99 × 300`) and a float ceiling would pick one rank too high.
    #[test]
    fn latency_percentile_rank_is_robust_at_sample_count_boundaries() {
        for n in [1u64, 2, 99, 100, 101, 300] {
            let summary = summary_of_micros(n);
            let p50 = n.div_ceil(2) as f64;
            let p99 = (99 * n).div_ceil(100) as f64;
            assert!(
                within_one_bucket_above(summary.p50_us, p50),
                "n={n}: p50 {} want {p50}",
                summary.p50_us
            );
            assert!(
                within_one_bucket_above(summary.p99_us, p99),
                "n={n}: p99 {} want {p99}",
                summary.p99_us
            );
            assert_eq!(summary.max_us, n as f64);
        }
    }

    #[test]
    fn latency_buckets_tile_every_nanosecond_count() {
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
        assert_eq!(LatencyHistogram::upper(BUCKETS - 1), u64::MAX);
        for bucket in 1..BUCKETS {
            let first = LatencyHistogram::upper(bucket - 1) + 1;
            assert_eq!(LatencyHistogram::bucket(first), bucket);
            assert_eq!(LatencyHistogram::bucket(first - 1), bucket - 1);
            assert_eq!(
                LatencyHistogram::bucket(LatencyHistogram::upper(bucket)),
                bucket
            );
        }
    }

    /// Quota deferral is a delay, never a drop: every arrival is
    /// eventually admitted, the deferred queue drains by close, and the
    /// deferral counter records the parked jobs.
    #[test]
    fn admission_quota_defers_without_dropping_jobs() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 40, 9)
            .gang_share(0.25)
            .users(4);
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(AdmissionConfig::new().quota(1)),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg),
        );
        svc.run_to_close();
        let out = svc.finish();
        assert_eq!(out.stats.rejected, 0, "infinite SLO never rejects");
        assert!(out.stats.deferred > 0, "bursty tenants must hit quota 1");
        let adm = out.admission.expect("admission tier was on");
        assert_eq!(adm.effective.len(), 40, "every job admitted eventually");
        assert_eq!(out.stats.decisions, 40, "every admitted job was placed");
        // Deferral rewrites arrivals forward, never backwards.
        assert!(adm
            .effective
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    /// A finite SLO rejects at the front door under overload, and
    /// rejected jobs never reach the cluster.
    #[test]
    fn admission_slo_rejects_under_overload() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 60, 11)
            .gang_share(0.25)
            .mean_gap(2.0)
            .users(4);
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(1, 2).admission(AdmissionConfig::new().slo(1.05)),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg),
        );
        svc.run_to_close();
        let out = svc.finish();
        assert!(out.stats.rejected > 0, "a tight SLO must reject overload");
        let adm = out.admission.expect("admission tier was on");
        assert_eq!(
            adm.effective.len() as u64 + out.stats.rejected,
            60,
            "admitted + rejected covers the trace"
        );
        assert_eq!(
            out.stats.decisions,
            adm.effective.len() as u64,
            "only admitted jobs reach the selector"
        );
    }

    /// With the admit-everything defaults the admission tier is pure
    /// reordering, and the service reproduces the batch engine run
    /// under [`MultiNodeSim::with_fair_order`] bit-exactly — the
    /// fair-share analogue of the batch-oracle contract.
    #[test]
    fn ordering_only_admission_matches_the_batch_fair_order_oracle() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 48, 7)
            .gang_share(0.25)
            .users(5);
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2).admission(AdmissionConfig::new()),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg.clone()),
        );
        svc.run_to_close();
        let served = svc.finish();
        let mut selector = SelectorKind::LeastLoaded.build();
        let batch = MultiNodeSim::new(4, 2).with_fair_order().run(
            &s,
            generate(&s, &cfg),
            selector.as_mut(),
            |_| dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0),
        );
        assert_eq!(
            served.report.timeline.digest(),
            batch.timeline.digest(),
            "ordering-only admission must match the batch oracle"
        );
        assert_eq!(served.stats.deferred, 0);
        assert_eq!(served.stats.rejected, 0);
    }

    #[test]
    #[should_panic(expected = "agent places over 4 nodes x 2 GPUs, service has 4 x 4")]
    fn an_agent_shaped_for_other_nodes_is_refused_at_construction() {
        use hrp_cluster::place::PlacementConfig;
        let s = suite();
        let _ = SchedulerService::with_agent(
            &s,
            ServeConfig::new(4, 4),
            PlacementAgent::untrained(PlacementConfig::quick()),
            TraceSource::new(&s, TraceConfig::new(TraceKind::Bursty, 8, 1)),
        );
    }

    /// A source `restore` would refuse is refused when the service is
    /// built. The parent commit built this one, and its first 3-GPU job
    /// panicked in `ClusterDrive::place`.
    #[test]
    #[should_panic(expected = "src_max_gpus=3 is wider than the 2-GPU nodes")]
    fn a_source_wider_than_its_nodes_is_refused_at_construction() {
        let s = suite();
        let trace = TraceConfig::new(TraceKind::Bursty, 8, 1)
            .max_gpus(3)
            .gang_share(1.0);
        let _ = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace),
        );
    }

    /// A config `restore` would refuse is refused when the service is
    /// built, by a panic naming the field. The parent commit ran such a
    /// service and wrote checkpoints of it that `restore` refused (or,
    /// for a backfill tier, panicked inside the planner's builder).
    #[test]
    fn configs_a_checkpoint_could_not_restore_are_refused_at_construction() {
        let s = suite();
        let base = ServeConfig::new(2, 2);
        let admission = |quota, slo| base.clone().admission(AdmissionConfig { quota, slo });
        for (cfg, field) in [
            (base.clone().walltime_err(1.0), "walltime_err"),
            (base.clone().walltime_err(-0.1), "walltime_err"),
            (base.clone().walltime_err(f64::NAN), "walltime_err"),
            (ServeConfig::new(2, 0), "gpus_per_node"),
            (ServeConfig::new(2, MAX_GPUS_PER_NODE + 1), "gpus_per_node"),
            (admission(0, f64::INFINITY), "quota"),
            (admission(1, 0.0), "slo"),
            (admission(1, f64::NAN), "slo"),
        ] {
            for kind in [SelectorKind::LeastLoaded, SelectorKind::Easy] {
                let source = TraceSource::new(&s, TraceConfig::new(TraceKind::Bursty, 8, 1));
                let cfg = cfg.clone();
                let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    SchedulerService::new(&s, cfg, kind, source)
                }));
                let panic = built.err().unwrap_or_else(|| panic!("{field}: built"));
                let message = panic.downcast_ref::<String>().expect("a formatted message");
                assert!(message.contains(field), "{field}: '{message}'");
            }
        }
    }

    #[test]
    fn dispatcher_for_maps_selector_families() {
        for kind in [
            SelectorKind::RoundRobin,
            SelectorKind::LeastLoaded,
            SelectorKind::Policy,
        ] {
            assert!(matches!(
                dispatcher_for(kind, 2, 0.0),
                NodeDispatcher::CoSched(_)
            ));
        }
        for kind in [
            SelectorKind::Fcfs,
            SelectorKind::Easy,
            SelectorKind::Conservative,
        ] {
            match dispatcher_for(kind, 2, 0.25) {
                NodeDispatcher::Backfill(p) => {
                    assert_eq!(p.policy(), kind.backfill_policy().unwrap());
                    assert!((p.walltime_err() - 0.25).abs() < 1e-12);
                }
                NodeDispatcher::CoSched(_) => panic!("{} must backfill", kind.name()),
            }
        }
    }
}
