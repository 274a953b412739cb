//! Quickstart: train a small agent and schedule one job window.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the paper's whole pipeline on a reduced scale:
//! profiling → offline RL training (`train`) →
//! checkpoint save/load → online scheduling → metrics.

use hrp::prelude::*;

fn main() {
    // 1. The simulated A100 and the paper's 27-program suite (Table IV).
    let arch = GpuArch::a100();
    let suite = Suite::paper_suite(&arch);
    println!(
        "suite: {} programs on {} ({} GPCs, {:.0} GB/s)",
        suite.len(),
        arch.name,
        arch.gpcs,
        arch.peak_bw_gbs
    );

    // 2. Offline phase: profile everything, train the dueling double DQN
    //    on random queues of the 18 seen programs. This mid-size setup
    //    trains in under a minute; `TrainConfig::paper()` is the full
    //    Table VI configuration, and `env: EnvKind::Hierarchical`
    //    would select the two-level MIG → MPS formulation.
    let cfg = TrainConfig {
        w: 6,
        episodes: 600,
        n_queues: 12,
        hidden: vec![128, 64],
        lr: 1e-3,
        ..TrainConfig::paper()
    };
    let (trained, report) = train(&suite, cfg);
    println!(
        "trained: {} episodes, {} env steps, return {:.2} -> {:.2}",
        report.episodes, report.total_steps, report.early_return, report.late_return
    );

    // 3. Checkpoint hand-off: spec + weights round-trip through one
    //    blob, and the reloaded agent is behaviourally identical.
    let blob = trained.save_bytes();
    println!("checkpoint: {} bytes (spec + weights)", blob.len());
    let trained = TrainedAgent::load_bytes(blob, &suite).expect("checkpoint reloads");

    // 4. Online phase: schedule a window the agent has never seen —
    //    including starred (unseen) programs.
    let queue = JobQueue::from_names(
        "demo",
        &[
            "bt_solver_A",
            "stream",
            "kmeans",
            "cfd",
            "pathfinder",
            "lud_A",
        ],
        &suite,
    );
    //    Every policy reads the window's profiles from the Job Profiles
    //    Repository (Fig. 7); the baselines below predict from them.
    let repo = ProfileRepository::for_suite(&suite, &window_profiler(arch.clone()));
    let policy = MigMpsRl::new(trained);
    let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
    let decision = policy.schedule(&ctx);

    println!("\ndecision for '{}':", queue.label);
    for (i, g) in decision.groups.iter().enumerate() {
        let names: Vec<&str> = g
            .job_ids
            .iter()
            .map(|&j| suite.by_index(queue.jobs[j].bench).app.name.as_str())
            .collect();
        println!(
            "  group {}: {{{}}} on {}  (co-run {:.1}s vs solo {:.1}s)",
            i + 1,
            names.join(", "),
            g.scheme,
            g.corun_time,
            g.solo_time
        );
    }

    // 5. Metrics, exactly as the paper reports them.
    let m = evaluate_decision(&queue.label, &suite, &queue, &decision);
    println!(
        "\nthroughput vs time sharing: {:.3}   avg slowdown: {:.3}   fairness: {:.3}",
        m.throughput, m.avg_slowdown, m.fairness
    );

    // Compare against the baselines of §V-A4 in one line each.
    for policy in [&TimeSharing as &dyn Policy, &MigOnly, &MpsOnly] {
        let d = policy.schedule(&ctx);
        let m = evaluate_decision(&queue.label, &suite, &queue, &d);
        println!("{:<18} throughput {:.3}", policy.name(), m.throughput);
    }
}
