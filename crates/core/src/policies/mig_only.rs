//! `MIG Only (C = 2)`: the prior-work baseline (\[6\], \[34\]) — pairs of
//! jobs on a 3g/4g MIG split (shared- or private-memory variant), with
//! exhaustively optimal pairing and assignment.

use super::window_predictor::{compile_schemes, select_and_measure, window_predictor};
use super::{Policy, ScheduleContext};
use crate::actions::mig_only_space;
use crate::exhaustive::best_partition;
use crate::problem::{evaluate_group, ScheduleDecision};
use hrp_gpusim::PartitionScheme;

/// The MIG-only baseline with concurrency fixed at 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigOnly;

impl Policy for MigOnly {
    fn name(&self) -> &'static str {
        "MIG Only (C=2)"
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let predictor = window_predictor(ctx);
        let space = compile_schemes(ctx, mig_only_space());
        let solution = best_partition(ctx.queue.len(), 2, |_, members| match members.len() {
            1 => Some(evaluate_group(
                ctx.suite,
                ctx.queue,
                members,
                &PartitionScheme::exclusive(),
                &[0],
            )),
            // §IV-A constraint enforced after measurement inside
            // select_and_measure: a pair must beat time sharing.
            _ => select_and_measure(ctx, &predictor, members, &space),
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
    fn mig_only_beats_time_sharing() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let d = MigOnly.schedule(&ctx);
        d.validate(&queue, 2, true).unwrap();
        let m = evaluate_decision("MIG", &suite, &queue, &d);
        let ts = evaluate_decision("TS", &suite, &queue, &TimeSharing.schedule(&ctx));
        assert!(
            m.throughput > ts.throughput,
            "MIG-only {} ≤ TS {}",
            m.throughput,
            ts.throughput
        );
    }

    #[test]
    fn concurrency_never_exceeds_two() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let d = MigOnly.schedule(&ctx);
        for g in &d.groups {
            assert!(g.concurrency() <= 2);
            if g.concurrency() == 2 {
                assert!(g.scheme.uses_mig(), "pairs must use MIG: {}", g.scheme);
                assert!(g.beats_time_sharing());
            }
        }
    }
}
