//! Backfilling dispatch over walltime *estimates*.
//!
//! [`BackfillPlanner`] is a node-local [`Dispatcher`] that plans
//! through a [`TreeSlotSet`] release profile instead of greedy
//! head-of-queue dispatch: one profile it owns, refilled from its
//! bookkeeping by every decision that has a free GPU to plan for — a
//! saturated node is answered without one. Three classic policies:
//!
//! * **FCFS** — strict order: nothing starts before every job ahead
//!   of it has started.
//! * **EASY** — the queue head gets a reservation at its earliest
//!   estimated start; any later job may *backfill* into a hole
//!   provided its estimated run does not delay that reservation.
//! * **conservative** — every queued job gets a reservation, in
//!   order; a backfill may never delay *any* of them.
//!
//! The planner sees only walltime **estimates** (`solo_time` scaled
//! by a deterministic per-job error factor, [`BackfillPlanner::with_walltime_err`]),
//! while the simulator runs jobs for their true duration — exactly
//! the over/under-run mismatch a production batch scheduler lives
//! with. Stale estimate bookkeeping is re-grounded against the real
//! GPU pool on every decision (see `next_placement`), so an
//! early-finishing job can never wedge the queue.
//!
//! There are no advance reservations: the only windows a decision
//! protects are those of the queued jobs its policy reserves for, so
//! every instant the planner can change its mind at is a job event.
//!
//! ```
//! use hrp_cluster::backfill::{BackfillPlanner, BackfillPolicy};
//! use hrp_cluster::multinode::MultiNodeSim;
//! use hrp_cluster::select::SelectorKind;
//! use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
//! use hrp_gpusim::GpuArch;
//! use hrp_workloads::Suite;
//!
//! let suite = Suite::paper_suite(&GpuArch::a100());
//! let jobs = generate(&suite, &TraceConfig::new(TraceKind::Bursty, 24, 7).max_gpus(2));
//! let mut selector = SelectorKind::Easy.build();
//! let report = MultiNodeSim::new(2, 2).run(&suite, jobs, selector.as_mut(), |_| {
//!     BackfillPlanner::new(BackfillPolicy::Easy, 2).with_walltime_err(0.25)
//! });
//! assert_eq!(report.completed_jobs(), 24);
//! ```

use crate::job::ClusterJob;
use crate::sim::{Dispatcher, Placement};
use crate::slots::TreeSlotSet;
use hrp_gpusim::rng::SplitMix64;
use hrp_workloads::Suite;

/// Slack when deciding whether an earliest fit is "now", and whether
/// an estimated release has already passed.
const FIT_EPS: f64 = 1e-9;

/// Which backfilling discipline a [`BackfillPlanner`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackfillPolicy {
    /// Strict first-come-first-served: no backfilling at all.
    Fcfs,
    /// EASY backfilling: only the queue head is protected.
    Easy,
    /// Conservative backfilling: every queued job is protected.
    Conservative,
}

impl BackfillPolicy {
    /// The selector-kind spelling of this policy (`fcfs` / `easy` /
    /// `conservative`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Fcfs => "fcfs",
            Self::Easy => "easy",
            Self::Conservative => "conservative",
        }
    }

    /// `(reservation depth, backfilling allowed)`: FCFS protects the
    /// head and forbids backfill, EASY protects the head and allows
    /// it, conservative protects the whole queue.
    #[must_use]
    pub fn depth_and_backfill(&self) -> (usize, bool) {
        match self {
            Self::Fcfs => (1, false),
            Self::Easy => (1, true),
            Self::Conservative => (usize::MAX, true),
        }
    }
}

/// A backfilling [`Dispatcher`]: plans the node's queue through a
/// [`TreeSlotSet`] release profile refilled on every decision.
///
/// The planner is a pure function of its inputs plus its own
/// bookkeeping (determinism contract point 7 in ARCHITECTURE.md).
#[derive(Debug)]
pub struct BackfillPlanner {
    policy: BackfillPolicy,
    n_gpus: usize,
    walltime_err: f64,
    /// `(estimated finish, gpus)` for placements this planner
    /// started. Estimates — the simulator's true finishes may
    /// differ, so every decision re-grounds this list against the
    /// live pool.
    releases: Vec<(f64, usize)>,
    /// The free-capacity profile a decision plans through: scratch,
    /// refilled from the bookkeeping above by every decision that
    /// scans, so that none allocates one. Carries nothing from one
    /// decision to the next.
    profile: TreeSlotSet,
}

impl BackfillPlanner {
    /// A planner for one node of `n_gpus` GPUs.
    ///
    /// # Panics
    /// Panics if `n_gpus` is zero.
    #[must_use]
    pub fn new(policy: BackfillPolicy, n_gpus: usize) -> Self {
        assert!(n_gpus >= 1);
        Self {
            policy,
            n_gpus,
            walltime_err: 0.0,
            releases: Vec::new(),
            profile: TreeSlotSet::new(n_gpus),
        }
    }

    /// Set the walltime-estimate error fraction `err ∈ [0, 1)`: job
    /// `i`'s estimate becomes `solo_time × (1 + err × (2u_i − 1))`
    /// with `u_i ∈ [0, 1)` hashed from the job id ([`SplitMix64`]), so
    /// estimates deterministically over- and under-run the truth by
    /// up to ±`err`. `0` keeps estimates exact.
    ///
    /// # Panics
    /// Panics outside `[0, 1)` (a factor of `1` could zero an
    /// estimate).
    #[must_use]
    pub fn with_walltime_err(mut self, err: f64) -> Self {
        assert!(
            err.is_finite() && (0.0..1.0).contains(&err),
            "walltime error fraction must lie in [0, 1), got {err}"
        );
        self.walltime_err = err;
        self
    }

    /// The policy this planner runs.
    #[must_use]
    pub fn policy(&self) -> BackfillPolicy {
        self.policy
    }

    /// The walltime-estimate error fraction set at build time.
    #[must_use]
    pub fn walltime_err(&self) -> f64 {
        self.walltime_err
    }

    /// Snapshot the planner's mutable bookkeeping for serialization.
    /// Release entries store `now + estimate` sums whose bit patterns
    /// cannot be reproduced by re-deriving them (f64 addition is not
    /// associative across a resume boundary), so a live checkpoint
    /// must carry them verbatim.
    #[must_use]
    pub fn export_state(&self) -> BackfillState {
        BackfillState {
            releases: self.releases.clone(),
        }
    }

    /// Overwrite the mutable bookkeeping with an exported snapshot:
    /// a planner built with the same policy/pool/error and restored
    /// this way decides bit-identically to the one the snapshot was
    /// taken from.
    pub fn restore_state(&mut self, state: BackfillState) {
        self.releases = state.releases;
    }

    /// The walltime estimate the planner schedules `job` by (true
    /// duration scaled by the deterministic error factor).
    #[must_use]
    pub fn walltime_estimate(&self, suite: &Suite, job: &ClusterJob) -> f64 {
        let truth = job.solo_time(suite);
        if self.walltime_err == 0.0 {
            return truth;
        }
        let u = SplitMix64::new(job.id as u64).next_f64();
        truth * (1.0 + self.walltime_err * (2.0 * u - 1.0))
    }

    /// Re-ground the estimate bookkeeping against the live pool:
    /// drop releases the clock has passed, then trim the earliest
    /// entries until the claimed-busy total matches the GPUs that are
    /// *actually* busy. Without this, a job that finished earlier
    /// than estimated would leave a phantom booking that blocks an
    /// idle node forever.
    fn reground_releases(&mut self, free_gpus: usize, now: f64) {
        self.releases.retain(|(t, _)| *t > now + FIT_EPS);
        self.releases
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let busy = self.n_gpus - free_gpus;
        let booked: usize = self.releases.iter().map(|(_, g)| *g).sum();
        let mut excess = booked.saturating_sub(busy);
        while excess > 0 {
            let head = self
                .releases
                .first_mut()
                .expect("excess > 0 implies entries");
            if head.1 <= excess {
                excess -= head.1;
                self.releases.remove(0);
            } else {
                head.1 -= excess;
                excess = 0;
            }
        }
    }

    /// Refill the profile for a decision at `now`: full node minus the
    /// (re-grounded) estimated releases. By construction
    /// `capacity_at(now)` equals the simulator's free-GPU count exactly.
    fn refill_profile(&mut self, now: f64) {
        self.profile.reset();
        for (t, g) in &self.releases {
            self.profile.claim(now, *t, *g);
        }
    }
}

/// A [`BackfillPlanner`]'s mutable bookkeeping, exported by
/// [`BackfillPlanner::export_state`] for live checkpoints and restored
/// via [`BackfillPlanner::restore_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct BackfillState {
    /// `(estimated finish, gpus)` bookings of started placements.
    pub releases: Vec<(f64, usize)>,
}

impl Dispatcher for BackfillPlanner {
    fn name(&self) -> &'static str {
        match self.policy {
            BackfillPolicy::Fcfs => "backfill-fcfs",
            BackfillPolicy::Easy => "backfill-easy",
            BackfillPolicy::Conservative => "backfill-conservative",
        }
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        self.reground_releases(free_gpus, now);
        if free_gpus == 0 {
            // A saturated node starts nothing under any policy, and
            // nothing a scan works out outlives the call: no profile,
            // no scan.
            return None;
        }
        self.refill_profile(now);
        let (depth, backfill) = self.policy.depth_and_backfill();
        for (k, job) in waiting.iter().enumerate() {
            let gpus = usize::from(job.gpus);
            if k >= depth {
                if !backfill {
                    // Strict order: once a protected job is held back,
                    // nothing behind it may start — not even a job that
                    // would fit right now.
                    break;
                }
                if gpus > free_gpus {
                    // Cannot start and reserves nothing: where it would
                    // fit is of no consequence.
                    continue;
                }
            }
            let est = self.walltime_estimate(suite, job);
            let start = self.profile.earliest_fit(now, gpus, est);
            if start <= now + FIT_EPS && gpus <= free_gpus {
                // Starts immediately: record the *estimated* release
                // and hand the simulator the *true* duration.
                self.releases.push((now + est, gpus));
                return Some(Placement {
                    job_ids: vec![job.id],
                    gpus,
                    duration: job.solo_time(suite),
                });
            }
            if k < depth {
                // Protected job: reserve its window so nothing
                // considered after it can delay it.
                self.profile.claim(start, start + est, gpus);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterSim;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// stream solo = 10 s, kmeans = 16 s, pathfinder = 14 s,
    /// lavaMD@2 = 19 s.
    fn job(s: &Suite, id: usize, name: &str, arrival: f64, gpus: usize) -> ClusterJob {
        ClusterJob::new(id, name, arrival, gpus, s)
    }

    #[test]
    fn walltime_estimates_are_deterministic_and_bounded() {
        let s = suite();
        let p = BackfillPlanner::new(BackfillPolicy::Easy, 2).with_walltime_err(0.5);
        for id in 0..64 {
            let j = job(&s, id, "stream", 0.0, 1);
            let truth = j.solo_time(&s);
            let est = p.walltime_estimate(&s, &j);
            assert_eq!(est.to_bits(), p.walltime_estimate(&s, &j).to_bits());
            assert!(
                est > truth * 0.5 - 1e-9 && est < truth * 1.5 + 1e-9,
                "{est}"
            );
        }
        let exact = BackfillPlanner::new(BackfillPolicy::Easy, 2);
        let j = job(&s, 3, "kmeans", 0.0, 1);
        assert_eq!(exact.walltime_estimate(&s, &j), j.solo_time(&s));
    }

    // The paper's §VI light-load comparator, "FCFS with backfilling":
    // EASY at exact estimates.

    #[test]
    fn fcfs_runs_everything() {
        let s = suite();
        let jobs = vec![
            job(&s, 0, "lavaMD", 0.0, 1),
            job(&s, 1, "stream", 0.0, 1),
            job(&s, 2, "kmeans", 0.0, 1),
        ];
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 2);
        let report = ClusterSim::new(2).run(&s, jobs, &mut d);
        assert_eq!(report.placements, 3);
        assert!(report.makespan >= 38.0, "{}", report.makespan);
    }

    #[test]
    fn backfill_fills_hole_before_wide_job() {
        let s = suite();
        // Head after j0: a 2-GPU job that must wait for both GPUs; a
        // short 1-GPU job should backfill into the idle second GPU.
        let jobs = vec![
            job(&s, 0, "lavaMD", 0.0, 1),      // 38 s on GPU 0
            job(&s, 1, "bt_solver_A", 0.1, 2), // needs both
            job(&s, 2, "stream", 0.2, 1),      // 10 s, can backfill
        ];
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 2);
        let report = ClusterSim::new(2).run(&s, jobs, &mut d);
        // With backfilling, stream runs inside lavaMD's window:
        // makespan = 38 + 22.5 = 60.5. Without it: 38 + 22.5 + 10 later.
        assert!(
            report.makespan < 38.0 + 22.5 + 1.0,
            "makespan {} suggests no backfill",
            report.makespan
        );
        assert_eq!(report.placements, 3);
    }

    #[test]
    fn empty_queue_yields_no_placement() {
        let s = suite();
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 4);
        assert_eq!(d.next_placement(&s, &[], 4, 0.0), None);
        let report = ClusterSim::new(4).run(&s, Vec::new(), &mut d);
        assert_eq!(report.placements, 0);
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn simultaneous_arrivals_start_in_submission_order() {
        let s = suite();
        // Three 1-GPU jobs at the same instant on one GPU: strict FCFS
        // order, waits of 0, 10, and 10 + 16 seconds.
        let jobs = vec![
            job(&s, 0, "stream", 3.0, 1),     // 10 s
            job(&s, 1, "kmeans", 3.0, 1),     // 16 s
            job(&s, 2, "pathfinder", 3.0, 1), // 14 s
        ];
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 1);
        let report = ClusterSim::new(1).run(&s, jobs, &mut d);
        assert_eq!(report.placements, 3);
        assert!((report.makespan - 43.0).abs() < 1e-9, "{}", report.makespan);
        assert!((report.avg_wait - 12.0).abs() < 1e-9, "{}", report.avg_wait);
    }

    #[test]
    fn wide_job_eventually_runs() {
        let s = suite();
        let jobs = vec![job(&s, 0, "stream", 0.0, 1), job(&s, 1, "lavaMD", 0.0, 4)];
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 4);
        let report = ClusterSim::new(4).run(&s, jobs, &mut d);
        assert_eq!(report.placements, 2);
        // lavaMD (4-GPU, 9.5 s) waits for stream (10 s) → ≈ 19.5 s.
        assert!((report.makespan - 19.5).abs() < 1e-6, "{}", report.makespan);
    }

    #[test]
    fn easy_backfills_a_short_job_behind_a_blocked_gang() {
        let s = suite();
        // 2-GPU node. kmeans (16 s) holds one GPU; the 2-GPU lavaMD
        // head must wait for it; EASY lets the 10 s stream job run on
        // the idle GPU meanwhile — FCFS leaves it idle.
        let jobs = vec![
            job(&s, 0, "kmeans", 0.0, 1),
            job(&s, 1, "lavaMD", 1.0, 2),
            job(&s, 2, "stream", 1.0, 1),
        ];
        let run = |policy| {
            let mut d = BackfillPlanner::new(policy, 2);
            ClusterSim::new(2).run(&s, jobs.clone(), &mut d)
        };
        let fcfs = run(BackfillPolicy::Fcfs);
        let easy = run(BackfillPolicy::Easy);
        // FCFS: kmeans [0,16), lavaMD [16,35), stream [35,45).
        assert!((fcfs.makespan - 45.0).abs() < 1e-9, "{}", fcfs.makespan);
        // EASY: stream backfills [1,11) beside kmeans; same lavaMD
        // start, so the head was not delayed.
        assert!((easy.makespan - 35.0).abs() < 1e-9, "{}", easy.makespan);
    }

    #[test]
    fn easy_backfill_never_delays_the_head() {
        let s = suite();
        // kmeans (16 s) on one GPU; the lavaMD gang head reserves
        // [16, 35). pathfinder (14 s) would *overrun* that start
        // (1 + 14 = 15 ≤ 16 fits!) — pick stream at t=7 instead:
        // 7 + 10 = 17 > 16 would delay the head, so EASY must hold it.
        let jobs = vec![
            job(&s, 0, "kmeans", 0.0, 1),
            job(&s, 1, "lavaMD", 1.0, 2),
            job(&s, 2, "stream", 7.0, 1),
        ];
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 2);
        let report = ClusterSim::new(2).run(&s, jobs, &mut d);
        // stream waits for the gang: kmeans [0,16), lavaMD [16,35),
        // stream [35,45).
        assert!((report.makespan - 45.0).abs() < 1e-9, "{}", report.makespan);
    }

    #[test]
    fn early_finishes_do_not_wedge_the_planner() {
        let s = suite();
        // Overestimated walltimes: every estimate can exceed the true
        // duration, so the release book claims GPUs busy after they
        // actually freed. The re-grounding pass must keep dispatching.
        let jobs: Vec<ClusterJob> = (0..12)
            .map(|i| {
                job(
                    &s,
                    i,
                    ["stream", "kmeans", "pathfinder"][i % 3],
                    0.0,
                    1 + i % 2,
                )
            })
            .collect();
        for policy in [BackfillPolicy::Easy, BackfillPolicy::Conservative] {
            let mut d = BackfillPlanner::new(policy, 2).with_walltime_err(0.9);
            let report = ClusterSim::new(2).run(&s, jobs.clone(), &mut d);
            assert!(report.makespan.is_finite() && report.placements == 12);
        }
    }
}
