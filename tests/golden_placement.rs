//! Golden regression + acceptance pin for the simulation-backed
//! placement training loop, in the style of `tests/golden_train.rs`.
//!
//! One `PlacementConfig::quick()` training run (240 episodes over six
//! seed-derived 32-job skewed traces, 4 nodes × 2 GPUs) is pinned by
//! its `TrainReport`, a probe Q-value of the trained network, and the
//! greedy placements + merged-timeline digest on the held-out skewed
//! evaluation trace — so any drift in the trace generators, the
//! drive/env stepping, the reward definition, or the pipeline shows up
//! here. Golden values captured from the initial `place` module
//! implementation.
//!
//! The same run doubles as the acceptance gate: on the held-out skewed
//! trace the trained policy must beat round-robin and match-or-beat
//! least-loaded on simulated makespan, bit-identically for any rollout
//! worker count.

use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::place::{train_placement, PlacementConfig};
use hrp::cluster::select::dispatcher_for;
use hrp::cluster::trace::{generate, TraceConfig, TraceKind, EVAL_SEED_OFFSET};
use hrp::cluster::{ClusterJob, NodeSelector, SelectorKind};
use hrp::core::train::TrainReport;
use hrp::prelude::*;

/// The held-out evaluation trace `repro cluster --trace skewed` uses at
/// `--quick` scale (seed offset keeps it out of the training stream).
fn eval_trace(suite: &Suite) -> Vec<ClusterJob> {
    generate(
        suite,
        &TraceConfig::new(TraceKind::Skewed, 48, 42 ^ EVAL_SEED_OFFSET).max_gpus(2),
    )
}

/// Captured from the initial implementation (see module docs).
fn golden_report() -> TrainReport {
    TrainReport {
        episodes: 240,
        total_steps: 7680,
        early_return: GOLDEN_EARLY,
        late_return: GOLDEN_LATE,
        late_rf: GOLDEN_LATE_RF,
    }
}

const GOLDEN_EARLY: f64 = f64::from_bits(0xc031e1b3ca6fe997); // -17.881649…
const GOLDEN_LATE: f64 = f64::from_bits(0xbfac5c9f682fd364); // -0.055394…
const GOLDEN_LATE_RF: f64 = f64::from_bits(0x3f8c4b5b935a127b); // 0.013815…
const GOLDEN_Q0: u32 = 0xbec4bda0; // -0.384258…
const GOLDEN_DIGEST: u64 = 0xc6311db29b592377;
const GOLDEN_MAKESPAN: u64 = 0x4077481f30b4ea7c; // 372.507…

#[test]
fn quick_placement_training_matches_the_golden_pin() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let (agent, report) = train_placement(&suite, PlacementConfig::quick());
    if std::env::var("HRP_CAPTURE_GOLDEN").is_ok() {
        let trace = eval_trace(&suite);
        let outcome = agent.greedy_placements(&suite, &trace);
        let rep = outcome.report.as_ref().unwrap();
        eprintln!("total_steps: {}", report.total_steps);
        eprintln!("early_return: {:#018x}", report.early_return.to_bits());
        eprintln!("late_return: {:#018x}", report.late_return.to_bits());
        eprintln!("late_rf: {:#018x}", report.late_rf.to_bits());
        let probe = vec![0.25f32; 10];
        eprintln!("q0: {:#010x}", agent.dqn().q_values(&probe)[0].to_bits());
        eprintln!("digest: {:#018x}", rep.timeline.digest());
        eprintln!("makespan: {:#018x}", rep.aggregate.makespan.to_bits());
        eprintln!("assignment: {:?}", outcome.assignment);
    }
    assert_eq!(report, golden_report(), "TrainReport drifted");

    let probe = vec![0.25f32; 10];
    let q = agent.dqn().q_values(&probe);
    assert_eq!(
        q[0].to_bits(),
        GOLDEN_Q0,
        "trained weights drifted: q0 = {}",
        q[0]
    );

    let trace = eval_trace(&suite);
    let outcome = agent.greedy_placements(&suite, &trace);
    assert_eq!(
        outcome.assignment,
        golden_assignment(),
        "placements drifted"
    );
    let rep = outcome.report.expect("drained episode has a report");
    assert_eq!(
        rep.timeline.digest(),
        GOLDEN_DIGEST,
        "timeline digest drifted"
    );
    assert_eq!(
        rep.aggregate.makespan.to_bits(),
        GOLDEN_MAKESPAN,
        "makespan drifted: {}",
        rep.aggregate.makespan
    );
}

/// Greedy placements on the evaluation trace (one node id per job).
fn golden_assignment() -> Vec<usize> {
    vec![
        3, 2, 1, 0, 1, 3, 0, 0, 1, 2, 2, 3, 3, 1, 0, 2, 1, 0, 2, 3, 2, 2, 0, 1, 3, 3, 0, 2, 1, 0,
        1, 0, 2, 3, 0, 1, 2, 3, 2, 0, 1, 2, 3, 3, 0, 1, 3, 1,
    ]
}

#[test]
fn trained_policy_beats_round_robin_and_least_loaded_on_the_skewed_trace() {
    // The acceptance gate behind `repro cluster --selector policy
    // --trace skewed`: ground-truth rewards must actually pay off
    // against the heuristics, for any worker count.
    let suite = Suite::paper_suite(&GpuArch::a100());

    let mut cfg = PlacementConfig::quick();
    cfg.n_workers = 1;
    let (agent_serial, report_serial) = train_placement(&suite, cfg.clone());
    cfg.n_workers = 4;
    let (agent_par, report_par) = train_placement(&suite, cfg.clone());
    assert_eq!(
        report_serial, report_par,
        "training must be worker-count invariant"
    );
    let probe = vec![0.25f32; 10];
    assert_eq!(
        agent_serial.dqn().q_values(&probe),
        agent_par.dqn().q_values(&probe),
        "weights must be worker-count invariant"
    );

    let trace = eval_trace(&suite);
    let run = |sel: &mut dyn NodeSelector| {
        MultiNodeSim::new(cfg.nodes, cfg.gpus_per_node).run(&suite, trace.clone(), sel, |_| {
            dispatcher_for(SelectorKind::Policy, cfg.gpus_per_node, 0.0)
        })
    };

    let policy = run(&mut agent_serial.selector());
    assert_eq!(
        policy,
        run(&mut agent_par.selector()),
        "the deployment must be worker-count invariant"
    );
    let rr = run(SelectorKind::RoundRobin.build().as_mut());
    let ll = run(SelectorKind::LeastLoaded.build().as_mut());
    assert!(
        policy.aggregate.makespan < rr.aggregate.makespan,
        "policy {} must beat round-robin {}",
        policy.aggregate.makespan,
        rr.aggregate.makespan
    );
    assert!(
        policy.aggregate.makespan <= ll.aggregate.makespan,
        "policy {} must match-or-beat least-loaded {}",
        policy.aggregate.makespan,
        ll.aggregate.makespan
    );
}
