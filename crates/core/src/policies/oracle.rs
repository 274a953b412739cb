//! Oracle-greedy reference policy.
//!
//! At each step this policy *measures* every valid action (it peeks at
//! the simulator outcome under the same r_i job binding the RL agent
//! uses) and takes the one saving the most time versus running the bound
//! jobs solo. It is not part of the paper's comparison — on real
//! hardware one cannot try every partitioning before launching — but it
//! bounds what the DQN can achieve *given the binding rule*, separating
//! "the agent didn't learn" from "the formulation can't express better".

use super::{Policy, ScheduleContext};
use crate::actions::ActionCatalog;
use crate::env::{CoScheduleEnv, EnvConfig};
use crate::problem::ScheduleDecision;
use hrp_nn::masked_argmax;
use hrp_profile::FeatureScaler;

/// The narrowest window the oracle's env is built with (the paper's
/// `Cmax`).
const MIN_WINDOW: usize = 4;

/// The oracle-greedy policy (upper reference for `MigMpsRl`). It runs
/// its env over the context's repository, with features scaled by that
/// repository's own statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleGreedy;

impl Policy for OracleGreedy {
    fn name(&self) -> &'static str {
        "Oracle Greedy"
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let cfg = EnvConfig {
            w: ctx.queue.len().max(MIN_WINDOW),
            cmax: ctx.cmax,
            ..EnvConfig::paper()
        };
        let catalog = ActionCatalog::paper_29();
        let scaler = FeatureScaler::fit(ctx.repo);
        let mut env = CoScheduleEnv::new(ctx.suite, ctx.queue, ctx.repo, &scaler, &catalog, cfg);
        while !env.done() {
            let mask = env.valid_mask();
            // Choose the action saving the most time over solo execution
            // of the same bound jobs — the same masked-argmax helper the
            // DQN uses for Q-values, applied to measured savings.
            let saved: Vec<f64> = (0..catalog.len())
                .map(|a| {
                    if mask & (1 << a) == 0 {
                        return f64::NEG_INFINITY;
                    }
                    let (_, corun, solo) = env.peek_action(a);
                    solo - corun
                })
                .collect();
            let best = masked_argmax(&saved, |a| mask & (1 << a) != 0)
                .expect("a live window always has a valid action");
            env.step(best);
        }
        env.into_decision()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::small_fixture;
    use super::*;
    use crate::metrics::evaluate_decision;
    use crate::policies::TimeSharing;

    #[test]
    fn oracle_beats_time_sharing_comfortably() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let d = OracleGreedy.schedule(&ctx);
        d.validate(&queue, 4, false).unwrap();
        let m = evaluate_decision("oracle", &suite, &queue, &d);
        let ts = evaluate_decision("ts", &suite, &queue, &TimeSharing.schedule(&ctx));
        assert!(
            m.throughput > ts.throughput * 1.1,
            "oracle {} barely beats TS {}",
            m.throughput,
            ts.throughput
        );
    }
}
