//! Per-user fair share: karma accounting, in-flight quotas, and
//! fairness metrics.
//!
//! The online service (`hrp-serve`) and the batch simulator both admit
//! work for many tenants, and one heavy tenant can starve everyone
//! else under plain FCFS. This module provides the shared bookkeeping
//! for the admission tier in front of the scheduler:
//!
//! * [`FairShare`] — per-user **karma** (accumulated GPU-seconds of
//!   admitted work, exponentially decayed with a fixed half-life
//!   ([`KARMA_HALF_LIFE`]), in the style of OAR's karma accounting) plus per-user
//!   **in-flight counts** against a quota. All state lives in
//!   `BTreeMap`s keyed by user id, so every operation is O(log n)
//!   bookkeeping — never a re-plan. A count rises in
//!   [`FairShare::admit`] and falls in exactly one place,
//!   [`FairShare::advance_to`] popping a due release, which reports
//!   whether it popped any: the serving tier re-examines its parked
//!   jobs only then.
//! * [`FairShare::order_burst`] — stable fair-share ordering of one
//!   arrival burst: jobs are sorted by their tenant's karma at the
//!   burst instant (lightest tenant first), ties keep submission
//!   order. Reordering is confined to a burst — jobs with bitwise
//!   equal arrival times — so the determinism contract
//!   (bit-identical timelines, batch or served, killed and restored or
//!   not) survives: see ARCHITECTURE.md contract point 9.
//! * [`apply_fair_order`] — the batch-side hook: walk an
//!   arrival-sorted job list burst by burst, order each burst by
//!   karma, charge each tenant as its jobs pass the door. Used by
//!   [`crate::multinode::MultiNodeSim::with_fair_order`] before the
//!   first epoch, and the oracle the service's ordering is pinned
//!   against.
//! * [`jain_index`] / [`user_fairness`] — Jain's fairness index and
//!   per-user slowdown aggregation over a finished cluster timeline,
//!   the metrics `repro serve` / `repro cluster` report beside
//!   makespan.
//!
//! Karma decay is computed **lazily per user from its last charge
//! stamp** (`value · 0.5^((t − stamp)/KARMA_HALF_LIFE)`), never by in-place
//! rescaling on advance. Two drivers that charge at the same instants
//! therefore hold bit-identical karma no matter how many intermediate
//! wake-ups each one took — floating-point decay applied in one step
//! or two is *not* the same bits, so path independence here is what
//! keeps the service and the batch oracle in exact agreement.

use crate::job::ClusterJob;
use crate::sim::{EventKind, EventLog};
use hrp_workloads::Suite;
use std::collections::BTreeMap;

/// Karma half-life in seconds: how fast a tenant's accumulated service
/// cost is forgiven. A constant, not a knob — every run that was ever
/// measured forgave at this rate, and `HRPS` does not record it.
pub const KARMA_HALF_LIFE: f64 = 300.0;

/// Snapshot of a [`FairShare`], so kill/restore reproduces admission
/// decisions bit-exactly. It holds no in-flight counts: a tenant's is
/// the number of its pending releases. `HRPS` writes the karma entries
/// and the releases; the serving tier advances the ledger at every
/// cycle and admits one job per placement, so a restore takes the clock
/// from the last cycle and the sequence from the decision count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FairShareState {
    /// Clock of the last `advance_to`.
    pub now: f64,
    /// Admission counter (release-key tiebreaker).
    pub seq: u64,
    /// Per-user karma entries: `(user, value, stamp)`.
    pub karma: Vec<(u32, f64, f64)>,
    /// Pending releases: `(time_bits, seq, user)`.
    pub releases: Vec<(u64, u64, u32)>,
}

/// Per-user karma + in-flight quota bookkeeping (see the
/// [module docs](self)). All maps are `BTreeMap`s: O(log n) per
/// operation, deterministic iteration, checkpoint-friendly export.
#[derive(Debug, Clone, PartialEq)]
pub struct FairShare {
    /// Per-user in-flight cap (jobs admitted but not yet estimated to
    /// have finished); [`usize::MAX`] never defers.
    quota: usize,
    now: f64,
    seq: u64,
    /// user → (karma value at `stamp`, stamp time of the last charge).
    karma: BTreeMap<u32, (f64, f64)>,
    /// user → jobs admitted and not yet released.
    inflight: BTreeMap<u32, usize>,
    /// (release-time bits, admission seq) → user. Times are
    /// non-negative, so bit order is numeric order.
    releases: BTreeMap<(u64, u64), u32>,
    /// Scratch of [`FairShare::order_burst`]: each job beside its
    /// tenant's karma. Empty between calls.
    keyed: Vec<(f64, ClusterJob)>,
}

impl FairShare {
    /// Fresh state at time 0 enforcing a per-user in-flight `quota`.
    ///
    /// # Panics
    /// Panics if `quota` is 0 (a zero quota can never admit anything).
    #[must_use]
    pub fn new(quota: usize) -> Self {
        Self::from_state(quota, &FairShareState::default())
    }

    /// Advance the clock to `t`, releasing every admission whose
    /// estimated completion is due, and report whether any was: this is
    /// the only place an in-flight count falls, so `false` means no
    /// tenant that was [over quota](Self::over_quota) before the call
    /// has stopped being so. Karma is *not* touched here — decay is
    /// lazy per user (see the module docs).
    ///
    /// # Panics
    /// Panics if `t` moves backwards.
    pub fn advance_to(&mut self, t: f64) -> bool {
        assert!(
            t.total_cmp(&self.now).is_ge(),
            "fair-share clock moved backwards: {} -> {t}",
            self.now
        );
        let mut released = false;
        while let Some((&(bits, seq), &user)) = self.releases.first_key_value() {
            if f64::from_bits(bits) > t {
                break;
            }
            self.releases.remove(&(bits, seq));
            let count = self
                .inflight
                .get_mut(&user)
                .expect("release for a user with no in-flight jobs");
            *count -= 1;
            if *count == 0 {
                self.inflight.remove(&user);
            }
            released = true;
        }
        self.now = t;
        released
    }

    /// Jobs the user has in flight (admitted, not yet released).
    #[must_use]
    pub fn in_flight(&self, user: u32) -> usize {
        self.inflight.get(&user).copied().unwrap_or(0)
    }

    /// Whether admitting another job for `user` would exceed the quota.
    #[must_use]
    pub fn over_quota(&self, user: u32) -> bool {
        self.in_flight(user) >= self.quota
    }

    /// The user's karma decayed to time `t`: a pure function of the
    /// last charge `(value, stamp)`, so it is bit-identical no matter
    /// how many `advance_to` steps happened in between.
    #[must_use]
    pub fn karma_at(&self, user: u32, t: f64) -> f64 {
        match self.karma.get(&user) {
            None => 0.0,
            Some(&(value, stamp)) => value * 0.5_f64.powf((t - stamp) / KARMA_HALF_LIFE),
        }
    }

    /// Charge `cost` (GPU-seconds of admitted work) to the user at
    /// time `t`, re-stamping its karma entry.
    pub fn charge(&mut self, user: u32, cost: f64, t: f64) {
        let decayed = self.karma_at(user, t);
        self.karma.insert(user, (decayed + cost, t));
    }

    /// Record an admission: charge karma, bump the in-flight count,
    /// and schedule its release at the estimated completion time.
    pub fn admit(&mut self, user: u32, cost: f64, release_at: f64) {
        debug_assert!(
            release_at >= 0.0 && release_at.is_finite(),
            "release time must be finite and non-negative"
        );
        self.charge(user, cost, self.now);
        *self.inflight.entry(user).or_insert(0) += 1;
        self.releases.insert((release_at.to_bits(), self.seq), user);
        self.seq += 1;
    }

    /// The earliest pending release time, if any — the wake-up hint a
    /// service with deferred jobs sleeps towards.
    #[must_use]
    pub fn next_release(&self) -> Option<f64> {
        self.releases
            .first_key_value()
            .map(|(&(bits, _), _)| f64::from_bits(bits))
    }

    /// Stable fair-share ordering of one arrival burst: sort by the
    /// tenant's karma at `t` (lightest first), ties keep submission
    /// order. Pure snapshot — no charging; charge on admission. Each
    /// job's karma is computed once, into a buffer kept across calls.
    pub fn order_burst(&mut self, t: f64, burst: &mut [ClusterJob]) {
        if burst.len() < 2 {
            return;
        }
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.extend(
            burst
                .iter()
                .map(|job| (self.karma_at(job.user, t), job.clone())),
        );
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (slot, (_, job)) in burst.iter_mut().zip(keyed.drain(..)) {
            *slot = job;
        }
        self.keyed = keyed;
    }

    /// Export the full state for checkpointing.
    #[must_use]
    pub fn export_state(&self) -> FairShareState {
        FairShareState {
            now: self.now,
            seq: self.seq,
            karma: self.karma.iter().map(|(&u, &(v, s))| (u, v, s)).collect(),
            releases: self
                .releases
                .iter()
                .map(|(&(bits, seq), &u)| (bits, seq, u))
                .collect(),
        }
    }

    /// Rebuild from an exported state, enforcing `quota`. Each
    /// tenant's in-flight count is its number of pending releases.
    ///
    /// # Panics
    /// Panics if `quota` is 0.
    #[must_use]
    pub fn from_state(quota: usize, state: &FairShareState) -> Self {
        assert!(quota >= 1, "quota must be at least 1");
        let mut inflight = BTreeMap::new();
        for &(_, _, user) in &state.releases {
            *inflight.entry(user).or_insert(0) += 1;
        }
        Self {
            quota,
            now: state.now,
            seq: state.seq,
            karma: state.karma.iter().map(|&(u, v, s)| (u, (v, s))).collect(),
            inflight,
            releases: state
                .releases
                .iter()
                .map(|&(bits, seq, u)| ((bits, seq), u))
                .collect(),
            keyed: Vec::new(),
        }
    }
}

/// The karma cost of admitting a job: its total GPU-seconds of work
/// (solo time × GPUs — wider or longer jobs burn more karma).
#[must_use]
pub fn job_cost(suite: &Suite, job: &ClusterJob) -> f64 {
    job.solo_time(suite) * f64::from(job.gpus)
}

/// Batch-side fair-share ordering: walk an arrival-sorted job list
/// burst by burst (bitwise-equal arrivals), order each burst by karma
/// at the burst instant, then charge each tenant in the final order. Arrival
/// times are untouched — only within-burst order changes — so the
/// result is engine-independent. With every job untagged (`user: 0`)
/// the ordering is the identity.
pub fn apply_fair_order(suite: &Suite, jobs: &mut [ClusterJob]) {
    let mut fair = FairShare::new(usize::MAX);
    let mut start = 0;
    while start < jobs.len() {
        let t = jobs[start].arrival;
        let mut end = start + 1;
        while end < jobs.len() && jobs[end].arrival.total_cmp(&t).is_eq() {
            end += 1;
        }
        fair.advance_to(t);
        fair.order_burst(t, &mut jobs[start..end]);
        for job in &jobs[start..end] {
            fair.charge(job.user, job_cost(suite, job), t);
        }
        start = end;
    }
}

/// Jain's fairness index over a set of per-user values:
/// `(Σx)² / (n · Σx²)`. 1.0 means perfectly equal; `1/n` is the
/// worst case (one user gets everything). Empty or all-zero inputs
/// report 1.0 (nothing to be unfair about).
#[must_use]
pub fn jain_index(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|x| x * x).sum();
    if values.is_empty() || sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sum_sq)
}

/// One tenant's aggregate experience over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSlowdown {
    /// Tenant id.
    pub user: u32,
    /// Jobs of this tenant that finished.
    pub jobs: usize,
    /// Mean slowdown: `(finish − arrival) / solo_time`, averaged.
    pub mean_slowdown: f64,
}

/// Per-user fairness over a finished run (see [`user_fairness`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Per-tenant aggregates, ascending by user id.
    pub per_user: Vec<UserSlowdown>,
    /// Jain's index over the per-tenant mean slowdowns.
    pub jain: f64,
    /// Max / min per-tenant mean slowdown (≥ 1.0; 1.0 = no spread).
    pub spread: f64,
}

/// Aggregate per-user slowdowns from a run's merged event timeline.
/// `jobs` is the *original* trace (submission arrivals — an admission
/// tier may have delayed placement, and that wait must count against
/// the tenant). Jobs with no `Finish` event (e.g. rejected by
/// admission control) are excluded.
#[must_use]
pub fn user_fairness(suite: &Suite, jobs: &[ClusterJob], events: &EventLog) -> FairnessReport {
    let mut finish: BTreeMap<usize, f64> = BTreeMap::new();
    for ev in events.iter() {
        if let EventKind::Finish { job_ids, .. } = ev.kind {
            for &id in job_ids {
                finish.insert(id, ev.time);
            }
        }
    }
    let mut sums: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    for job in jobs {
        let Some(&done) = finish.get(&job.id) else {
            continue;
        };
        let slowdown = (done - job.arrival) / job.solo_time(suite);
        let entry = sums.entry(job.user).or_insert((0.0, 0));
        entry.0 += slowdown;
        entry.1 += 1;
    }
    let per_user: Vec<UserSlowdown> = sums
        .into_iter()
        .map(|(user, (sum, n))| UserSlowdown {
            user,
            jobs: n,
            mean_slowdown: sum / n as f64,
        })
        .collect();
    let means: Vec<f64> = per_user.iter().map(|u| u.mean_slowdown).collect();
    let spread = match (
        means.iter().copied().reduce(f64::max),
        means.iter().copied().reduce(f64::min),
    ) {
        (Some(max), Some(min)) if min > 0.0 => max / min,
        _ => 1.0,
    };
    FairnessReport {
        per_user,
        jain: jain_index(&means),
        spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, TraceConfig, TraceKind};
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    #[test]
    fn quota_counts_admissions_and_releases() {
        let mut fair = FairShare::new(2);
        fair.admit(7, 10.0, 5.0);
        fair.admit(7, 10.0, 9.0);
        assert_eq!(fair.in_flight(7), 2);
        assert!(fair.over_quota(7));
        assert!(!fair.over_quota(8));
        fair.advance_to(5.0);
        assert_eq!(fair.in_flight(7), 1);
        assert!(!fair.over_quota(7));
        fair.advance_to(9.0);
        assert_eq!(fair.in_flight(7), 0);
        assert_eq!(fair.next_release(), None);
    }

    #[test]
    fn advance_reports_whether_anything_was_released() {
        let mut fair = FairShare::new(2);
        assert!(!fair.advance_to(1.0), "nothing admitted, nothing due");
        fair.admit(7, 10.0, 5.0);
        fair.admit(8, 10.0, 5.0);
        fair.admit(7, 10.0, 9.0);
        assert!(!fair.advance_to(4.0), "the earliest release is at 5");
        assert!(fair.over_quota(7));
        // A release exactly at `t` is due, and two co-timed ones pop in
        // the same call.
        assert!(fair.advance_to(5.0));
        assert_eq!((fair.in_flight(7), fair.in_flight(8)), (1, 0));
        assert!(!fair.advance_to(5.0), "already popped");
        // The report is a function of the state a checkpoint carries.
        let mut back = FairShare::from_state(2, &fair.export_state());
        assert!(!back.advance_to(8.0));
        assert!(back.advance_to(100.0), "the last release, long overdue");
        assert_eq!(back.next_release(), None);
        assert!(!back.advance_to(200.0));
    }

    #[test]
    fn karma_decay_is_path_independent() {
        let mut one_step = FairShare::new(usize::MAX);
        let mut two_step = one_step.clone();
        one_step.charge(3, 100.0, 0.0);
        two_step.charge(3, 100.0, 0.0);
        one_step.advance_to(80.0);
        two_step.advance_to(37.0);
        two_step.advance_to(80.0);
        // Bit-identical, not just approximately equal: the decay is
        // computed from the charge stamp, never step by step.
        assert_eq!(
            one_step.karma_at(3, 80.0).to_bits(),
            two_step.karma_at(3, 80.0).to_bits()
        );
        assert!(one_step.karma_at(3, 50.0) > one_step.karma_at(3, 150.0));
        // One half-life halves it: 100 charged at 0 is 50 at the constant.
        assert_eq!(one_step.karma_at(3, KARMA_HALF_LIFE), 50.0);
    }

    #[test]
    fn order_burst_puts_light_tenants_first_and_is_stable() {
        let s = suite();
        let mut fair = FairShare::new(usize::MAX);
        fair.charge(0, 500.0, 0.0);
        let mut burst: Vec<ClusterJob> = (0..4)
            .map(|i| {
                let mut j = ClusterJob::new(i, "lavaMD", 10.0, 1, &s);
                j.user = if i < 2 { 0 } else { 1 };
                j
            })
            .collect();
        fair.order_burst(10.0, &mut burst);
        // Tenant 1 (no karma) jumps ahead; ties keep submission order.
        assert_eq!(
            burst.iter().map(|j| (j.user, j.id)).collect::<Vec<_>>(),
            vec![(1, 2), (1, 3), (0, 0), (0, 1)]
        );
    }

    #[test]
    fn untagged_jobs_make_fair_order_a_no_op() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 40, 11);
        let mut jobs = generate(&s, &cfg);
        let before = jobs.clone();
        apply_fair_order(&s, &mut jobs);
        assert_eq!(jobs, before);
    }

    #[test]
    fn fair_order_preserves_arrivals_and_job_set() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 60, 5).users(4);
        let mut jobs = generate(&s, &cfg);
        let before = jobs.clone();
        apply_fair_order(&s, &mut jobs);
        let arrivals =
            |js: &[ClusterJob]| js.iter().map(|j| j.arrival.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            arrivals(&jobs),
            arrivals(&before),
            "arrival vector untouched"
        );
        let mut ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn state_round_trips() {
        let mut fair = FairShare::new(3);
        fair.admit(1, 40.0, 12.0);
        fair.advance_to(6.0);
        fair.admit(2, 7.5, 30.0);
        let state = fair.export_state();
        let back = FairShare::from_state(3, &state);
        assert_eq!(back, fair);
    }

    #[test]
    fn jain_index_brackets() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[2.0, 2.0, 2.0]), 1.0);
        let lopsided = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((lopsided - 0.25).abs() < 1e-12);
        assert!(jain_index(&[3.0, 1.0]) < 1.0);
    }
}
