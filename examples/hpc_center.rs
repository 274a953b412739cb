//! An over-crowded HPC-centre day: online scheduling with cold-start
//! profiling (the paper's Fig. 7 online phase).
//!
//! ```text
//! cargo run --release --example hpc_center
//! ```
//!
//! Jobs stream in; first-seen binaries run exclusively while their
//! profiles are collected, re-submissions join co-scheduling windows.

use hrp::core::online::{OnlineEvent, OnlineSystem};
use hrp::prelude::*;

fn main() {
    let arch = GpuArch::a100();
    let suite = Suite::paper_suite(&arch);

    // The repository starts *empty*: every first submission is a
    // profiling run.
    let mut repo = ProfileRepository::new();
    let profiler = Profiler::new(arch, 0.03, 7);

    // Node-local policy: the exhaustive MPS baseline (swap in a trained
    // MigMpsRl for the full pipeline — see the quickstart example).
    let mut system = OnlineSystem::new(&suite, MpsOnly, &mut repo, profiler, 6, 4);

    // A day's submissions: a mix of repeat offenders and one-offs.
    let trace = [
        "stream",
        "lavaMD",
        "kmeans",
        "cfd",
        "pathfinder",
        "lud_A",
        // second wave: all profiled now, windows start forming
        "stream",
        "lavaMD",
        "kmeans",
        "cfd",
        "pathfinder",
        "lud_A",
        "bt_solver_A",
        "sp_solver_B",
        "qs_Coral_P1",
        "dwt2d",
        "stream",
        "lud_A",
        "kmeans",
        "bt_solver_A",
        "sp_solver_B",
        "qs_Coral_P1",
        "dwt2d",
        "pathfinder",
    ];
    for name in trace {
        system.submit(name);
    }
    let report = system.finish();

    println!("events:");
    for e in &report.events {
        match e {
            OnlineEvent::ProfilingRun { bench, time } => {
                let name = &suite.by_index(*bench).app.name;
                println!("  profiling run   {name:<14} ({time:.1}s exclusive)");
            }
            OnlineEvent::WindowScheduled { metrics } => {
                println!(
                    "  window {:<6} throughput {:.3}  ({:.1}s for {:.1}s of work)",
                    metrics.label, metrics.throughput, metrics.total_time, metrics.total_solo
                );
            }
        }
    }
    println!(
        "\ncold-start profiling runs: {}   end-to-end gain vs time sharing: {:.3}",
        report.profiling_runs(),
        report.overall_gain()
    );
}
