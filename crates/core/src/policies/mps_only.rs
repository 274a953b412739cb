//! `MPS Only (C ≤ Cmax)`: exhaustive job-set search over the MPS split
//! space of Table VII, no memory isolation — the paper's
//! flexible-but-interference-prone baseline. Candidate groups are scored
//! with profile-driven predictions (measuring all ~10⁵ options is not
//! possible on hardware); the chosen schedule is then measured.

use super::window_predictor::{compile_schemes, select_and_measure, window_predictor};
use super::{Policy, ScheduleContext};
use crate::actions::mps_only_space;
use crate::exhaustive::best_partition;
use crate::problem::{evaluate_group, ScheduleDecision};
use hrp_gpusim::{CompiledPartition, PartitionScheme};

/// The MPS-only baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct MpsOnly;

impl Policy for MpsOnly {
    fn name(&self) -> &'static str {
        "MPS Only"
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let predictor = window_predictor(ctx);
        // Pre-build the per-concurrency split spaces once (singletons are
        // handled separately as exclusive runs).
        let spaces: Vec<Vec<(PartitionScheme, CompiledPartition)>> = (0..=ctx.cmax)
            .map(|c| {
                if c >= 2 {
                    compile_schemes(ctx, mps_only_space(c))
                } else {
                    Vec::new()
                }
            })
            .collect();
        let solution = best_partition(ctx.queue.len(), ctx.cmax, |_, members| {
            match members.len() {
                1 => Some(evaluate_group(
                    ctx.suite,
                    ctx.queue,
                    members,
                    &PartitionScheme::exclusive(),
                    &[0],
                )),
                c => select_and_measure(ctx, &predictor, members, &spaces[c]),
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
    use crate::policies::{MigOnly, TimeSharing};

    #[test]
    fn mps_only_beats_time_sharing_and_respects_cmax() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let d = MpsOnly.schedule(&ctx);
        d.validate(&queue, 4, true).unwrap();
        let m = evaluate_decision("MPS", &suite, &queue, &d);
        let ts = evaluate_decision("TS", &suite, &queue, &TimeSharing.schedule(&ctx));
        assert!(m.throughput > ts.throughput);
        for g in &d.groups {
            assert!(!g.scheme.uses_mig(), "MPS-only must not use MIG");
        }
    }

    #[test]
    fn higher_concurrency_helps_on_unscalable_jobs() {
        // Compared to MIG-only (C=2), MPS-only with Cmax=4 can pack the
        // undemanding US jobs four at a time.
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let mps = evaluate_decision("MPS", &suite, &queue, &MpsOnly.schedule(&ctx));
        let mig = evaluate_decision("MIG", &suite, &queue, &MigOnly.schedule(&ctx));
        assert!(
            mps.throughput >= mig.throughput * 0.95,
            "MPS {} should be at least comparable to MIG-only {}",
            mps.throughput,
            mig.throughput
        );
    }

    #[test]
    fn cmax_two_limits_groups() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 2);
        let d = MpsOnly.schedule(&ctx);
        d.validate(&queue, 2, true).unwrap();
    }
}
