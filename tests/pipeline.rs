//! End-to-end integration: profiling → training → scheduling → metrics,
//! across all workspace crates.

use hrp::core::online::OnlineSystem;
use hrp::prelude::*;

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

#[test]
fn full_pipeline_beats_time_sharing() {
    let suite = suite();
    let (trained, report) = train(&suite, TrainConfig::quick());
    assert!(report.total_steps > 0);

    // Schedule a window containing unseen (starred) programs.
    let queue = JobQueue::from_names(
        "integration",
        &[
            "bt_solver_A",
            "cfd",
            "kmeans",
            "needle",
            "sp_solver_B",
            "backprop",
        ],
        &suite,
    );
    let policy = MigMpsRl::new(trained);
    let ctx = ScheduleContext::new(&suite, &queue, 4);
    let decision = policy.schedule(&ctx);
    decision.validate(&queue, 4, false).unwrap();

    let rl = evaluate_decision("rl", &suite, &queue, &decision);
    let ts = evaluate_decision("ts", &suite, &queue, &TimeSharing.schedule(&ctx));
    assert!((ts.throughput - 1.0).abs() < 1e-6);
    assert!(
        rl.throughput > 1.0,
        "trained agent must beat time sharing: {}",
        rl.throughput
    );
}

#[test]
fn all_five_policies_produce_valid_decisions() {
    let suite = suite();
    let queue = JobQueue::from_names(
        "five",
        &[
            "lavaMD",
            "stream",
            "kmeans",
            "pathfinder",
            "lud_A",
            "qs_Coral_P1",
        ],
        &suite,
    );
    let ctx = ScheduleContext::new(&suite, &queue, 4);
    let (trained, _) = train(&suite, TrainConfig::quick());

    let default = MigMpsDefault::fit(std::slice::from_ref(&ctx));
    let rl = MigMpsRl::new(trained);
    let policies: Vec<&dyn Policy> = vec![&TimeSharing, &MigOnly, &MpsOnly, &default, &rl];
    let mut names = std::collections::HashSet::new();
    for p in policies {
        let d = p.schedule(&ctx);
        d.validate(&queue, 4, false)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        let m = evaluate_decision(p.name(), &suite, &queue, &d);
        assert!(m.throughput > 0.5, "{}: degenerate throughput", p.name());
        assert!(m.fairness > 0.0 && m.fairness <= 1.0 + 1e-9);
        assert!(names.insert(p.name().to_owned()), "duplicate policy name");
    }
}

#[test]
fn exhaustive_baselines_respect_time_sharing_constraint() {
    // §IV-A constraint 1: every multi-job group must beat time sharing.
    let suite = suite();
    let mut gen = QueueGenerator::new(9);
    for cat in MixCategory::ALL {
        let queue = gen.category_queue(&suite, "c", 8, cat, false);
        let ctx = ScheduleContext::new(&suite, &queue, 4);
        for policy in [&MigOnly as &dyn Policy, &MpsOnly] {
            let d = policy.schedule(&ctx);
            d.validate(&queue, 4, true)
                .unwrap_or_else(|e| panic!("{} on {cat:?}: {e}", policy.name()));
        }
    }
}

#[test]
fn online_system_with_trained_policy() {
    let suite = suite();
    let (trained, _) = train(&suite, TrainConfig::quick());
    let arch = GpuArch::a100();
    let profiler = Profiler::new(arch, 0.03, 11);
    // Online repo starts with the training profiles (warm start).
    let mut repo = ProfileRepository::for_suite(&suite, &profiler);
    let policy = MigMpsRl::new(trained);
    let mut sys = OnlineSystem::new(&suite, policy, &mut repo, profiler, 6, 4);
    for name in [
        "lavaMD",
        "stream",
        "kmeans",
        "cfd",
        "pathfinder",
        "lud_A",
        "bt_solver_A",
        "sp_solver_B",
        "qs_Coral_P2",
        "dwt2d",
        "needle",
        "gaussian",
    ] {
        sys.submit(name);
    }
    let report = sys.finish();
    assert_eq!(report.profiling_runs(), 0, "warm repo: no cold starts");
    assert!(
        report.overall_gain() > 1.0,
        "gain {}",
        report.overall_gain()
    );
}

#[test]
fn metrics_are_internally_consistent() {
    let suite = suite();
    let queue = JobQueue::from_names("cons", &["lud_A", "gaussian", "kmeans"], &suite);
    let ctx = ScheduleContext::new(&suite, &queue, 4);
    let d = MpsOnly.schedule(&ctx);
    let m = evaluate_decision("m", &suite, &queue, &d);
    // throughput must equal total_solo / total_time by definition.
    assert!((m.throughput - m.total_solo / m.total_time).abs() < 1e-9);
    // Makespan of the decision equals the metric's total time.
    assert!((d.total_time() - m.total_time).abs() < 1e-9);
}
