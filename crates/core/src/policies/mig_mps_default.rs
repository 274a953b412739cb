//! `MIG+MPS Default`: a *fixed* hierarchical partitioning (the MIG split
//! that maximises average throughput across the evaluation queues) with
//! the MPS **default mode** (no active-thread-percentage caps, modelled
//! as equal shares). Job-set selection remains exhaustively optimal.
//!
//! This is the paper's control for "is it the hierarchy or the *tuning*
//! of the hierarchy that wins?" — our RL policy must beat it.

use super::window_predictor::window_predictor;
use super::{Policy, ScheduleContext};
use crate::exhaustive::best_partition;
use crate::predict::CoRunPredictor;
use crate::problem::{evaluate_group, ScheduleDecision, ScheduledGroup};
use hrp_gpusim::mps::default_mode_shares;
use hrp_gpusim::{GiProfile, GiSetup, PartitionScheme};

/// Which fixed MIG layout the default policy uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultKind {
    /// One 7g GI, 3g + 4g CIs sharing memory.
    Shared,
    /// Two private GIs (3g, 4g).
    Private,
}

/// The fixed-partition baseline.
#[derive(Debug, Clone, Copy)]
pub struct MigMpsDefault {
    kind: DefaultKind,
}

impl MigMpsDefault {
    /// Use a specific fixed layout.
    #[must_use]
    pub fn with_kind(kind: DefaultKind) -> Self {
        Self { kind }
    }

    /// Pick the layout that maximises mean throughput across the windows
    /// of `ctxs` (the paper: "the MIG partitioning is selected so that the
    /// average throughput across Q1–Q12 is maximized").
    #[must_use]
    pub fn fit(ctxs: &[ScheduleContext<'_>]) -> Self {
        let mut best = (DefaultKind::Private, f64::NEG_INFINITY);
        for kind in [DefaultKind::Shared, DefaultKind::Private] {
            let policy = Self::with_kind(kind);
            let mut mean = 0.0;
            for ctx in ctxs {
                let d = policy.schedule(ctx);
                mean += ctx.queue.total_solo_time(ctx.suite) / d.total_time();
            }
            mean /= ctxs.len().max(1) as f64;
            if mean > best.1 {
                best = (kind, mean);
            }
        }
        Self::with_kind(best.0)
    }

    /// Build the fixed scheme for `n3` jobs on the 3g side and `n4` on
    /// the 4g side (default MPS = equal shares), or `None` for shapes the
    /// fixed layout cannot host.
    fn scheme(&self, n3: usize, n4: usize) -> Option<PartitionScheme> {
        if n3 == 0 && n4 == 0 {
            return None;
        }
        let shares3 = (n3 > 0).then(|| default_mode_shares(n3));
        let shares4 = (n4 > 0).then(|| default_mode_shares(n4));
        let scheme = match self.kind {
            DefaultKind::Private => {
                let mut gis = Vec::new();
                if let Some(s3) = shares3 {
                    gis.push(GiSetup::with_mps(GiProfile::G3, s3));
                }
                if let Some(s4) = shares4 {
                    gis.push(GiSetup::with_mps(GiProfile::G4, s4));
                }
                PartitionScheme::Mig { gis }
            }
            DefaultKind::Shared => PartitionScheme::hierarchical_shared_3_4(
                shares3.unwrap_or_default(),
                shares4.unwrap_or_default(),
            ),
        };
        Some(scheme)
    }

    /// Best group for `members` under the fixed layout: try every split
    /// of the members across the two sides, scored by the profile-driven
    /// predictor; the chosen distribution is then measured.
    fn best_group(
        &self,
        ctx: &ScheduleContext<'_>,
        predictor: &CoRunPredictor,
        members: &[usize],
    ) -> Option<ScheduledGroup> {
        let c = members.len();
        let mut best: Option<(f64, Vec<usize>, hrp_gpusim::PartitionScheme)> = None;
        // Bitmask over members: bit set → 3g side.
        for pick in 0..(1u32 << c) {
            let n3 = pick.count_ones() as usize;
            let n4 = c - n3;
            let Some(scheme) = self.scheme(n3, n4) else {
                continue;
            };
            let Ok(part) = scheme.compile(ctx.suite.arch()) else {
                continue;
            };
            // Slots: 3g clients first, then 4g clients (compile order).
            let mut job_order = Vec::with_capacity(c);
            for (k, &j) in members.iter().enumerate() {
                if pick & (1 << k) != 0 {
                    job_order.push(j);
                }
            }
            for (k, &j) in members.iter().enumerate() {
                if pick & (1 << k) == 0 {
                    job_order.push(j);
                }
            }
            let assignment: Vec<usize> = (0..c).collect();
            let predicted = predictor.predict_makespan(&job_order, &part, &assignment);
            if best.as_ref().is_none_or(|(m, _, _)| predicted < *m) {
                best = Some((predicted, job_order, scheme));
            }
        }
        let (_, job_order, scheme) = best?;
        let assignment: Vec<usize> = (0..c).collect();
        let g = evaluate_group(ctx.suite, ctx.queue, &job_order, &scheme, &assignment);
        Some(g).filter(ScheduledGroup::beats_time_sharing)
    }
}

impl Policy for MigMpsDefault {
    fn name(&self) -> &'static str {
        "MIG+MPS Default"
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let predictor = window_predictor(ctx);
        let solution = best_partition(ctx.queue.len(), ctx.cmax, |_, members| {
            match members.len() {
                1 => Some(evaluate_group(
                    ctx.suite,
                    ctx.queue,
                    members,
                    &PartitionScheme::exclusive(),
                    &[0],
                )),
                _ => self.best_group(ctx, &predictor, members),
            }
        });
        ScheduleDecision {
            groups: solution.groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::small_fixture;
    use super::*;
    use crate::metrics::evaluate_decision;
    use crate::policies::TimeSharing;

    #[test]
    fn default_policy_beats_time_sharing() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        for kind in [DefaultKind::Shared, DefaultKind::Private] {
            let d = MigMpsDefault::with_kind(kind).schedule(&ctx);
            d.validate(&queue, 4, true).unwrap();
            let m = evaluate_decision("DEF", &suite, &queue, &d);
            let ts = evaluate_decision("TS", &suite, &queue, &TimeSharing.schedule(&ctx));
            assert!(
                m.throughput > ts.throughput,
                "{kind:?}: {} ≤ {}",
                m.throughput,
                ts.throughput
            );
        }
    }

    #[test]
    fn groups_use_the_fixed_layout() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let d = MigMpsDefault::with_kind(DefaultKind::Private).schedule(&ctx);
        for g in &d.groups {
            if g.concurrency() > 1 {
                assert!(g.scheme.uses_mig(), "{}", g.scheme);
            }
        }
    }

    #[test]
    fn fit_picks_a_kind_deterministically() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let fitted = MigMpsDefault::fit(std::slice::from_ref(&ctx));
        let again = MigMpsDefault::fit(std::slice::from_ref(&ctx));
        assert_eq!(fitted.kind, again.kind);
    }

    #[test]
    fn scheme_shapes() {
        let p = MigMpsDefault::with_kind(DefaultKind::Private);
        assert!(p.scheme(0, 0).is_none());
        let s = p.scheme(2, 2).unwrap();
        assert_eq!(s.lanes(), 4);
        let s = p.scheme(0, 3).unwrap();
        assert_eq!(s.lanes(), 3);
        let arch = hrp_gpusim::GpuArch::a100();
        s.compile(&arch).unwrap();
    }
}
