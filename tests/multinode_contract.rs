//! Property tests (proptest) for the multi-node cluster simulator's
//! determinism contract:
//!
//! * the merged cluster timeline is invariant to node-simulation order
//!   and thread count (`--threads 1` vs `HRP_TEST_THREADS` vs auto);
//! * a one-node cluster is event-for-event identical to the
//!   single-node simulator on the same trace;
//! * completed jobs are conserved across any selector: every job
//!   arrives once, starts once, and finishes once;
//! * the epoch fan-out mode — serial, per-run worker pool, or a
//!   shared caller-owned pool — never moves an event, at 100 k jobs
//!   included.
//!
//! (`tests/trace_contract.rs` extends the same guarantees to generated
//! traces and the RL `PolicySelector`.)
//!
//! Set `HRP_TEST_THREADS` to pick the parallel worker count the
//! invariance cases exercise (CI runs the suite under 1 and 4).

mod common;
use common::test_threads;

use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::select::{LeastLoaded, RoundRobin};
use hrp::cluster::sim::{ClusterSim, EventKind};
use hrp::cluster::trace::{generate, TraceConfig, TraceKind};
use hrp::cluster::{
    BackfillPlanner, BackfillPolicy, ClusterJob, CoSchedulingDispatcher, SelectorKind,
};
use hrp::prelude::*;
use proptest::prelude::*;

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

/// Build a trace from a generated shape: benchmark pick, arrival slot
/// (duplicates produce simultaneous-arrival bursts), and width.
fn trace(s: &Suite, shape: &[(usize, u32, bool)]) -> Vec<ClusterJob> {
    shape
        .iter()
        .enumerate()
        .map(|(i, (pick, slot, wide))| {
            let name = s.by_index(pick % s.len()).app.name.clone();
            let gpus = if *wide { 2 } else { 1 };
            ClusterJob::new(i, &name, f64::from(*slot) * 3.0, gpus, s)
        })
        .collect()
}

fn dispatcher() -> CoSchedulingDispatcher<MpsOnly> {
    CoSchedulingDispatcher::new(MpsOnly, 4, 4)
}

fn shape_strategy() -> impl Strategy<Value = Vec<(usize, u32, bool)>> {
    proptest::collection::vec((0usize..1000, 0u32..5, any::<bool>()), 1..=9)
}

proptest! {
    #[test]
    fn merged_timeline_is_invariant_to_thread_count(
        shape in shape_strategy(),
        nodes in 1usize..=4,
        least_loaded in any::<bool>(),
    ) {
        let s = suite();
        let kind = if least_loaded { SelectorKind::LeastLoaded } else { SelectorKind::RoundRobin };
        let run = |threads: usize| {
            let mut sel = kind.build();
            MultiNodeSim::new(nodes, 2)
                .with_threads(threads)
                .run(&s, trace(&s, &shape), sel.as_mut(), |_| dispatcher())
        };
        let serial = run(1);
        for threads in [test_threads(), 0] {
            let got = run(threads);
            prop_assert_eq!(&got.timeline.events, &serial.timeline.events,
                "timeline drifted at {} threads", threads);
            prop_assert_eq!(&got.per_node, &serial.per_node);
            prop_assert_eq!(&got.aggregate, &serial.aggregate);
            prop_assert_eq!(got.timeline.digest(), serial.timeline.digest());
        }
    }

    #[test]
    fn one_node_cluster_is_event_for_event_the_single_node_simulator(
        shape in shape_strategy(),
        least_loaded in any::<bool>(),
    ) {
        let s = suite();
        let multi = if least_loaded {
            let mut sel = LeastLoaded;
            MultiNodeSim::new(1, 2)
                .with_threads(test_threads())
                .run(&s, trace(&s, &shape), &mut sel, |_| dispatcher())
        } else {
            let mut sel = RoundRobin::default();
            MultiNodeSim::new(1, 2)
                .with_threads(test_threads())
                .run(&s, trace(&s, &shape), &mut sel, |_| dispatcher())
        };
        let mut single = dispatcher();
        let (report, events) = ClusterSim::new(2).run_traced(&s, trace(&s, &shape), &mut single);
        prop_assert_eq!(&multi.timeline.events, &events, "event streams diverged");
        prop_assert_eq!(&multi.aggregate, &report, "reports diverged");
        // Bitwise, not approximately: the N = 1 path must *be* the
        // single-node simulator.
        prop_assert_eq!(multi.aggregate.makespan.to_bits(), report.makespan.to_bits());
        prop_assert_eq!(multi.aggregate.avg_wait.to_bits(), report.avg_wait.to_bits());
        prop_assert_eq!(multi.aggregate.utilization.to_bits(), report.utilization.to_bits());
    }

    #[test]
    fn fanout_modes_never_move_an_event(
        shape in shape_strategy(),
        nodes in 1usize..=4,
    ) {
        // Serial and pooled (`with_threads`) must merge to one timeline.
        let s = suite();
        let threads = test_threads();
        let run = |sim: MultiNodeSim| {
            let mut sel = SelectorKind::LeastLoaded.build();
            sim.run(&s, trace(&s, &shape), sel.as_mut(), |_| dispatcher())
        };
        let serial = run(MultiNodeSim::new(nodes, 2));
        let pooled = run(MultiNodeSim::new(nodes, 2).with_threads(threads));
        prop_assert_eq!(&pooled, &serial, "pooled fan-out drifted");
    }

    #[test]
    fn completed_jobs_are_conserved_for_any_selector(
        shape in shape_strategy(),
        nodes in 1usize..=4,
        least_loaded in any::<bool>(),
    ) {
        let s = suite();
        let kind = if least_loaded { SelectorKind::LeastLoaded } else { SelectorKind::RoundRobin };
        let mut sel = kind.build();
        let report = MultiNodeSim::new(nodes, 2)
            .with_threads(test_threads())
            .run(&s, trace(&s, &shape), sel.as_mut(), |_| dispatcher());
        let n = shape.len();
        let mut arrived = vec![0usize; n];
        let mut started = vec![0usize; n];
        let mut finished = vec![0usize; n];
        for e in report.timeline.events.iter() {
            match e.kind {
                EventKind::Arrival { job } => arrived[job] += 1,
                EventKind::Start { job_ids, .. } => {
                    for id in job_ids {
                        started[*id] += 1;
                    }
                }
                EventKind::Finish { job_ids, .. } => {
                    for id in job_ids {
                        finished[*id] += 1;
                    }
                }
            }
        }
        prop_assert!(arrived.iter().all(|&c| c == 1), "every job arrives exactly once");
        prop_assert!(started.iter().all(|&c| c == 1), "every job starts exactly once");
        prop_assert!(finished.iter().all(|&c| c == 1), "every job finishes exactly once");
        prop_assert_eq!(report.completed_jobs(), n);
        let routed: usize = report.per_node.iter().map(|p| p.jobs).sum();
        prop_assert_eq!(routed, n, "selector routed every job somewhere");
        prop_assert_eq!(
            report.aggregate.placements,
            report.per_node.iter().map(|p| p.placements).sum::<usize>()
        );
    }
}

/// The at-scale pin: on a 100k-job bursty trace across 8 FCFS nodes
/// (backfilling at exact estimates), the pooled fan-out at
/// `HRP_TEST_THREADS` merges to the exact serial report and loses no
/// job.
#[test]
fn pooled_engine_matches_serial_at_100k_jobs() {
    let s = suite();
    let jobs = generate(
        &s,
        &TraceConfig::new(TraceKind::Bursty, 100_000, 42).max_gpus(2),
    );
    let run = |threads: usize| {
        let mut sel = SelectorKind::LeastLoaded.build();
        MultiNodeSim::new(8, 2)
            .with_threads(threads)
            .run(&s, jobs.clone(), sel.as_mut(), |_| {
                BackfillPlanner::new(BackfillPolicy::Easy, 2)
            })
    };
    let serial = run(1);
    let pooled = run(test_threads());
    assert_eq!(pooled.timeline.digest(), serial.timeline.digest());
    assert_eq!(pooled.aggregate, serial.aggregate);
    assert_eq!(pooled.sync, serial.sync);
    assert_eq!(pooled.completed_jobs(), 100_000);
}
