//! Bit-for-bit regression against the pre-redesign training pipeline.
//!
//! The trait-based `train_env` must reproduce the exact results the
//! hardcoded `CoScheduleEnv`+`DqnAgent` pipeline produced before the
//! API redesign. These golden values were captured by running the
//! pre-redesign implementation (commit 63f2f2a) at this configuration:
//! `TrainConfig::quick()` with `episodes = 16`, `rollout_round = 4`,
//! with 1 and 4 rollout workers. Any numerical drift in the rollout,
//! replay order, ε schedule, or learner step order shows up here.

use hrp::core::env::JOB_FEATURES;
use hrp::core::train::TrainReport;
use hrp::prelude::*;

/// Captured from the pre-redesign pipeline (see module docs).
fn golden_report() -> TrainReport {
    TrainReport {
        episodes: 16,
        total_steps: 39,
        early_return: -0.437_148_451_203_907_44,
        late_return: -2.082_799_788_887_250_7,
        late_rf: -22.737_556_635_681_027,
    }
}

/// First Q-value of the trained online net on an all-0.25 probe.
const GOLDEN_Q0: f32 = 0.304_315_1;

#[test]
fn train_env_reproduces_the_pre_redesign_pipeline_bit_for_bit() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    for workers in [1usize, 4] {
        let mut cfg = TrainConfig::quick();
        cfg.episodes = 16;
        cfg.rollout_round = 4;
        cfg.n_workers = workers;
        let (trained, report) = train(&suite, cfg);
        assert_eq!(
            report,
            golden_report(),
            "TrainReport drifted (workers={workers})"
        );
        let probe = vec![0.25f32; trained.config().w * JOB_FEATURES];
        let q = trained.dqn().q_values(&probe);
        assert_eq!(
            q[0].to_bits(),
            GOLDEN_Q0.to_bits(),
            "trained weights drifted (workers={workers}): q0 {} vs golden {GOLDEN_Q0}",
            q[0]
        );
    }
}
