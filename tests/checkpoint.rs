//! Checkpoint round-trip: a trained agent saved and reloaded
//! must make identical greedy decisions on every evaluation queue, for
//! both environment formulations, through bytes and through a file.

use hrp::core::rl::EnvKind;
use hrp::prelude::*;

/// Twelve evaluation queues (three per mix category) at window size 6,
/// mirroring the bench harness's generated-queue evaluation.
fn evaluation_queues(suite: &Suite) -> Vec<JobQueue> {
    let mut gen = QueueGenerator::new(0xe7a1);
    let mut queues = Vec::with_capacity(12);
    for (qi, cat) in MixCategory::ALL.iter().enumerate() {
        for v in 0..3 {
            let label = format!("Q{}", qi * 3 + v + 1);
            queues.push(gen.category_queue(suite, &label, 6, *cat, false));
        }
    }
    queues
}

fn assert_identical_greedy_decisions(kind: EnvKind) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let cfg = TrainConfig {
        env: kind,
        episodes: 60,
        seed: 11,
        ..TrainConfig::quick()
    };
    let (trained, _) = train(&suite, cfg);
    assert!(trained.dqn().learn_steps() > 0, "agent must have learnt");

    let reloaded = TrainedAgent::load_bytes(trained.save_bytes(), &suite).unwrap();
    assert_eq!(reloaded.config(), trained.config(), "spec round-trips");

    for queue in evaluation_queues(&suite) {
        let original = trained.greedy_decision(&suite, &queue);
        let restored = reloaded.greedy_decision(&suite, &queue);
        assert_eq!(
            original, restored,
            "{:?} agent diverged after reload on {}",
            kind, queue.label
        );
    }
}

#[test]
fn flat_checkpoint_reloads_to_identical_greedy_decisions() {
    assert_identical_greedy_decisions(EnvKind::Flat);
}

#[test]
fn hierarchical_checkpoint_reloads_to_identical_greedy_decisions() {
    assert_identical_greedy_decisions(EnvKind::Hierarchical);
}

#[test]
fn checkpoint_survives_the_filesystem() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let cfg = TrainConfig {
        episodes: 20,
        seed: 3,
        ..TrainConfig::quick()
    };
    let (trained, _) = train(&suite, cfg);
    let path = std::env::temp_dir().join("hrp_checkpoint_test.hrpe");
    trained.save_file(&path).unwrap();
    let reloaded = TrainedAgent::load_file(&path, &suite).unwrap();
    std::fs::remove_file(&path).ok();

    let queue = evaluation_queues(&suite).remove(0);
    assert_eq!(
        trained.greedy_decision(&suite, &queue),
        reloaded.greedy_decision(&suite, &queue),
    );
}

#[test]
fn file_errors_name_the_file() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let path = std::env::temp_dir().join("hrp_no_such_dir/agent.hrpe");
    let mut cfg = TrainConfig::quick();
    cfg.episodes = 2;
    let (trained, _) = train(&suite, cfg);
    let errors = [
        TrainedAgent::load_file(&path, &suite).err(),
        trained.save_file(&path).err(),
    ];
    for err in errors {
        match err {
            Some(hrp::core::CheckpointError::Io(msg)) => {
                assert!(msg.contains(&format!("{path:?}")), "names {path:?}: {msg}");
            }
            other => panic!("expected an Io error naming the file, got {other:?}"),
        }
    }
}
