//! The baseline: run every job alone on the whole GPU, in queue order.

use super::{Policy, ScheduleContext};
use crate::problem::{evaluate_group, ScheduleDecision};
use hrp_gpusim::PartitionScheme;

/// Time-sharing scheduling (the paper's normalisation baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeSharing;

impl Policy for TimeSharing {
    fn name(&self) -> &'static str {
        "Time Sharing"
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let scheme = PartitionScheme::exclusive();
        ScheduleDecision {
            groups: (0..ctx.queue.len())
                .map(|j| evaluate_group(ctx.suite, ctx.queue, &[j], &scheme, &[0]))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::small_fixture;
    use super::*;
    use crate::metrics::evaluate_decision;

    #[test]
    fn time_sharing_is_the_unit_baseline() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let d = TimeSharing.schedule(&ctx);
        d.validate(&queue, 4, true).unwrap();
        let m = evaluate_decision("TS", &suite, &queue, &d);
        assert!((m.throughput - 1.0).abs() < 1e-6);
        assert!((m.avg_slowdown - 1.0).abs() < 1e-6);
        assert_eq!(d.groups.len(), queue.len());
    }
}
