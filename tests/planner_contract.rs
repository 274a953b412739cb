//! Differential contract of one backfilling decision
//! (`hrp_cluster::backfill::BackfillPlanner::next_placement`).
//!
//! The decision is spelled out once below as a naive reference —
//! re-ground the release book against the live pool, build a fresh
//! free-capacity profile, scan the whole queue — over a pointwise
//! profile that shares nothing with `TreeSlotSet` (the raw claim list,
//! folded per query, as in `tests/slots_contract.rs`). Whatever work
//! the production planner skips, reuses or reorders, it must return the
//! reference's placement and release book bit for bit: for every
//! policy, estimate error and node width, with stale and phantom
//! releases, saturated and idle pools, and across the repeated calls of
//! a dispatch loop at one instant.

use hrp::cluster::backfill::{BackfillPlanner, BackfillPolicy, BackfillState};
use hrp::cluster::sim::{Dispatcher, Placement};
use hrp::cluster::ClusterJob;
use hrp::prelude::*;
use proptest::prelude::*;

/// The planner's slack on "fits now" and "release already passed".
const FIT_EPS: f64 = 1e-9;

/// Free capacity as the raw list of `(start, end, gpus)` claims;
/// capacity at a point folds them in order.
struct NaiveProfile {
    total: usize,
    claims: Vec<(f64, f64, usize)>,
}

impl NaiveProfile {
    fn capacity_at(&self, t: f64) -> usize {
        let mut cap = self.total;
        for &(start, end, gpus) in &self.claims {
            if t >= start && t < end {
                assert!(cap >= gpus, "reference double-booked at {t}");
                cap -= gpus;
            }
        }
        cap
    }

    /// Every claim boundary strictly after `after`, ascending.
    fn boundaries_after(&self, after: f64) -> Vec<f64> {
        let mut ts: Vec<f64> = self
            .claims
            .iter()
            .flat_map(|&(start, end, ..)| [start, end])
            .filter(|&t| t > after)
            .collect();
        ts.sort_by(f64::total_cmp);
        ts
    }

    /// First candidate start (`after`, then each later boundary) whose
    /// whole window keeps `gpus` free.
    fn earliest_fit(&self, after: f64, gpus: usize, duration: f64) -> f64 {
        let later = self.boundaries_after(after);
        for &cand in std::iter::once(&after).chain(&later) {
            let inside = later.iter().filter(|&&t| t > cand && t < cand + duration);
            if std::iter::once(&cand)
                .chain(inside)
                .all(|&t| self.capacity_at(t) >= gpus)
            {
                return cand;
            }
        }
        unreachable!("the window past the last boundary always fits");
    }
}

/// splitmix64 finalizer mapped to `[0, 1)` — the per-job estimate
/// error draw.
fn unit_hash(id: u64) -> f64 {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The decision, written for reading.
struct NaivePlanner {
    policy: BackfillPolicy,
    n_gpus: usize,
    walltime_err: f64,
    releases: Vec<(f64, usize)>,
}

impl NaivePlanner {
    fn estimate(&self, suite: &Suite, job: &ClusterJob) -> f64 {
        let truth = job.solo_time(suite);
        if self.walltime_err == 0.0 {
            return truth;
        }
        truth * (1.0 + self.walltime_err * (2.0 * unit_hash(job.id as u64) - 1.0))
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        // Re-ground: forget releases the clock passed, then trim the
        // earliest bookings until no more GPUs are booked than busy.
        self.releases.retain(|(t, _)| *t > now + FIT_EPS);
        self.releases
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let booked: usize = self.releases.iter().map(|(_, g)| *g).sum();
        let mut excess = booked.saturating_sub(self.n_gpus - free_gpus);
        while excess > 0 {
            if self.releases[0].1 <= excess {
                excess -= self.releases.remove(0).1;
            } else {
                self.releases[0].1 -= excess;
                excess = 0;
            }
        }

        // A fresh profile of the releases.
        let mut profile = NaiveProfile {
            total: self.n_gpus,
            claims: self.releases.iter().map(|&(t, g)| (now, t, g)).collect(),
        };

        // The full scan, in queue order.
        let (depth, backfill) = self.policy.depth_and_backfill();
        for (k, job) in waiting.iter().enumerate() {
            if k >= depth && !backfill {
                break;
            }
            let gpus = usize::from(job.gpus);
            let est = self.estimate(suite, job);
            let start = profile.earliest_fit(now, gpus, est);
            if start <= now + FIT_EPS && gpus <= free_gpus {
                self.releases.push((now + est, gpus));
                return Some(Placement {
                    job_ids: vec![job.id],
                    gpus,
                    duration: job.solo_time(suite),
                });
            }
            if k < depth {
                profile.claims.push((start, start + est, gpus));
            }
        }
        None
    }
}

/// A release book flattened to raw bits, so `-0.0` and NaN could not
/// hide a difference.
fn book_bits(releases: &[(f64, usize)]) -> Vec<u64> {
    releases
        .iter()
        .flat_map(|&(t, g)| [t.to_bits(), g as u64])
        .collect()
}

const POLICIES: [BackfillPolicy; 3] = [
    BackfillPolicy::Fcfs,
    BackfillPolicy::Easy,
    BackfillPolicy::Conservative,
];

proptest! {
    #[test]
    fn production_planner_decides_exactly_like_the_naive_reference(
        n_gpus in 1usize..=4,
        now_q in 0u32..400,
        // (quarter-seconds relative to `now` − 10 s, GPUs): entries at
        // or before `now` are stale, and nothing ties the booked total
        // to the busy GPUs, so phantom bookings occur freely.
        releases in proptest::collection::vec((0u32..400, 1usize..=4), 0..=6),
        queue in proptest::collection::vec((0usize..1000, 1usize..=4), 0..=24),
        // One dispatch loop per instant: (quarter-seconds since the
        // previous instant, free GPUs — taken modulo the pool size + 1,
        // so saturated nodes are as common as any other fill).
        instants in proptest::collection::vec((0u32..120, 0usize..=4), 1..=3),
    ) {
        let s = Suite::paper_suite(&GpuArch::a100());
        let start = f64::from(now_q) * 0.25;
        let at = |q: u32| (start - 10.0 + f64::from(q) * 0.25).max(0.0);
        let state = BackfillState {
            releases: releases.iter().map(|&(q, g)| (at(q), g.min(n_gpus))).collect(),
        };
        let submitted: Vec<ClusterJob> = queue
            .iter()
            .enumerate()
            .map(|(id, &(pick, gpus))| ClusterJob::indexed(id, pick % s.len(), 0.0, gpus.min(n_gpus)))
            .collect();

        for policy in POLICIES {
            for err in [0.0, 0.3, 0.7] {
                let mut naive = NaivePlanner {
                    policy,
                    n_gpus,
                    walltime_err: err,
                    releases: state.releases.clone(),
                };
                let mut planner = BackfillPlanner::new(policy, n_gpus).with_walltime_err(err);
                planner.restore_state(state.clone());
                let mut waiting = submitted.clone();
                let mut now = start;
                for &(dt_q, free) in &instants {
                    now += f64::from(dt_q) * 0.25;
                    let mut free = free % (n_gpus + 1);
                    // The simulator's loop: ask again until the planner idles.
                    loop {
                        let want = naive.next_placement(&s, &waiting, free, now);
                        let got = planner.next_placement(&s, &waiting, free, now);
                        let ctx = format!("{policy:?}, err {err}, t = {now}, {free} free");
                        prop_assert_eq!(&got, &want, "placement ({})", ctx);
                        prop_assert_eq!(
                            book_bits(&planner.export_state().releases),
                            book_bits(&naive.releases),
                            "release book ({})", ctx
                        );
                        let Some(placed) = got else { break };
                        prop_assert!(placed.gpus <= free, "over-allocated ({})", ctx);
                        free -= placed.gpus;
                        waiting.retain(|j| !placed.job_ids.contains(&j.id));
                    }
                }
            }
        }
    }
}
