//! Oracle-greedy reference policy.
//!
//! At each step this policy *measures* every valid action (it peeks at
//! the simulator outcome under the same r_i job binding the RL agent
//! uses) and takes the one saving the most time versus running the bound
//! jobs solo. It is not part of the paper's comparison — on real
//! hardware one cannot try every partitioning before launching — but it
//! bounds what the DQN can achieve *given the binding rule*, separating
//! "the agent didn't learn" from "the formulation can't express better".

use super::{Policy, ScheduleContext, WINDOW_PROFILE_NOISE, WINDOW_PROFILE_SEED};
use crate::actions::ActionCatalog;
use crate::env::{CoScheduleEnv, EnvConfig};
use crate::problem::ScheduleDecision;
use hrp_nn::masked_argmax;
use hrp_profile::{FeatureScaler, ProfileRepository, Profiler};

/// The narrowest window the oracle's env is built with (the paper's
/// `Cmax`).
const MIN_WINDOW: usize = 4;

/// The oracle-greedy policy (upper reference for `MigMpsRl`).
pub struct OracleGreedy {
    repo: ProfileRepository,
    scaler: FeatureScaler,
    catalog: ActionCatalog,
}

impl OracleGreedy {
    /// Build for a suite (profiles collected like the window predictors'
    /// own).
    #[must_use]
    pub fn new(suite: &hrp_workloads::Suite) -> Self {
        let profiler = Profiler::new(
            suite.arch().clone(),
            WINDOW_PROFILE_NOISE,
            WINDOW_PROFILE_SEED,
        );
        let repo = ProfileRepository::for_suite(suite, &profiler);
        let scaler = FeatureScaler::fit(&repo);
        Self {
            repo,
            scaler,
            catalog: ActionCatalog::paper_29(),
        }
    }
}

impl Policy for OracleGreedy {
    fn name(&self) -> &'static str {
        "Oracle Greedy"
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let cfg = EnvConfig {
            w: ctx.queue.len().max(MIN_WINDOW),
            cmax: ctx.cmax,
            engine: ctx.engine.clone(),
            ..EnvConfig::paper()
        };
        let mut env = CoScheduleEnv::new(
            ctx.suite,
            ctx.queue,
            &self.repo,
            &self.scaler,
            &self.catalog,
            cfg,
        );
        while !env.done() {
            let mask = env.valid_mask();
            // Choose the action saving the most time over solo execution
            // of the same bound jobs — the same masked-argmax helper the
            // DQN uses for Q-values, applied to measured savings.
            let saved: Vec<f64> = (0..self.catalog.len())
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
        let (suite, queue) = small_fixture();
        let oracle = OracleGreedy::new(&suite);
        let ctx = ScheduleContext::new(&suite, &queue, 4);
        let d = oracle.schedule(&ctx);
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
