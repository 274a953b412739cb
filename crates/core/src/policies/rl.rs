//! `MIG+MPS w/ RL`: the paper's proposed policy — the trained dueling
//! double DQN choosing concurrency, partitioning, and (via the r_i-based
//! binding) co-scheduling groups simultaneously.

use super::{Policy, ScheduleContext};
use crate::problem::ScheduleDecision;
use crate::rl::EnvKind;
use crate::train::TrainedAgent;

/// The proposed reinforcement-learning policy.
pub struct MigMpsRl {
    trained: TrainedAgent,
}

impl MigMpsRl {
    /// Wrap a trained agent.
    #[must_use]
    pub fn new(trained: TrainedAgent) -> Self {
        Self { trained }
    }

    /// Unwrap the trained agent.
    #[must_use]
    pub fn into_inner(self) -> TrainedAgent {
        self.trained
    }
}

impl Policy for MigMpsRl {
    fn name(&self) -> &'static str {
        // The display name tracks the formulation the agent was trained
        // on, so evaluation tables can show both side by side.
        match self.trained.config().env {
            EnvKind::Flat => "MIG+MPS w/ RL",
            EnvKind::Hierarchical => "MIG+MPS w/ RL (hier)",
        }
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        self.trained.greedy_decision(ctx.suite, ctx.queue)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::small_fixture;
    use super::*;
    use crate::metrics::evaluate_decision;
    use crate::policies::TimeSharing;
    use crate::train::{train, TrainConfig};

    #[test]
    fn rl_policy_schedules_and_beats_time_sharing() {
        let (suite, queue, repo) = small_fixture();
        let (trained, _) = train(&suite, TrainConfig::quick());
        let policy = MigMpsRl::new(trained);
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let d = policy.schedule(&ctx);
        d.validate(&queue, 4, false).unwrap();
        let m = evaluate_decision("RL", &suite, &queue, &d);
        let ts = evaluate_decision("TS", &suite, &queue, &TimeSharing.schedule(&ctx));
        assert!(
            m.throughput > ts.throughput,
            "RL {} should beat time sharing {}",
            m.throughput,
            ts.throughput
        );
    }
}
