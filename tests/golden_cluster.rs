//! Golden regression for the multi-node cluster schedule, in the style
//! of `tests/golden_train.rs`: the 4-node round-robin drain of the
//! deterministic 24-job staggered trace is pinned by its merged-event
//! digest and bit-exact aggregate metrics, so any refactor of
//! `sim.rs`/`multinode.rs` that moves a single event is caught. The
//! least-loaded schedule is pinned alongside it (a change to the load
//! snapshot or tie-breaking shows up there first).
//!
//! Golden values captured from the initial `multinode` implementation
//! at `MultiNodeSim::new(4, 2)`, `staggered_trace(suite, 24)`,
//! `CoSchedulingDispatcher::new(MpsOnly, 4, 4)` per node. Both thread
//! modes (serial and `HRP_TEST_THREADS`-wide) must reproduce them.

mod common;
use common::test_threads;

use hrp::cluster::multinode::{staggered_trace, MultiNodeReport, MultiNodeSim};
use hrp::cluster::trace::{generate, TraceConfig, TraceKind};
use hrp::cluster::{BackfillPlanner, BackfillPolicy, CoSchedulingDispatcher, SelectorKind};
use hrp::prelude::*;

struct Golden {
    selector: SelectorKind,
    digest: u64,
    events: usize,
    makespan: u64,
    avg_wait: u64,
    utilization: u64,
    placements: usize,
    node_jobs: [usize; 4],
}

/// Captured from the initial implementation (see module docs).
fn golden_runs() -> Vec<Golden> {
    vec![
        Golden {
            selector: SelectorKind::RoundRobin,
            digest: 0x6c98_cadf_c573_5ef4,
            events: 60,
            makespan: 0x4067_2000_0000_0000,    // 185.0
            avg_wait: 0x4032_3555_5555_5555,    // 18.208333…
            utilization: 0x3fe0_9c21_3476_2d87, // 0.519058…
            placements: 18,
            node_jobs: [6, 6, 6, 6],
        },
        Golden {
            selector: SelectorKind::LeastLoaded,
            digest: 0xe617_3422_d4ac_2489,
            events: 58,
            makespan: 0x4060_c5d9_37c0_9cbe,    // 134.182765…
            avg_wait: 0x402e_e000_0000_0000,    // 15.4375
            utilization: 0x3fe6_5696_b34f_5871, // 0.698069…
            placements: 17,
            node_jobs: [7, 4, 6, 7],
        },
    ]
}

fn run(selector: SelectorKind, threads: usize) -> MultiNodeReport {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let mut sel = selector.build();
    MultiNodeSim::new(4, 2).with_threads(threads).run(
        &suite,
        staggered_trace(&suite, 24),
        sel.as_mut(),
        |_| CoSchedulingDispatcher::new(MpsOnly, 4, 4),
    )
}

#[test]
fn four_node_schedules_match_the_golden_pin_for_any_thread_count() {
    for golden in golden_runs() {
        for threads in [1usize, test_threads()] {
            let report = run(golden.selector, threads);
            let mode = format!("selector={} threads={}", golden.selector.name(), threads);
            assert_eq!(
                report.timeline.digest(),
                golden.digest,
                "timeline digest drifted ({mode})"
            );
            assert_eq!(report.timeline.len(), golden.events, "event count ({mode})");
            assert_eq!(
                report.aggregate.makespan.to_bits(),
                golden.makespan,
                "makespan drifted ({mode}): {}",
                report.aggregate.makespan
            );
            assert_eq!(
                report.aggregate.avg_wait.to_bits(),
                golden.avg_wait,
                "avg_wait drifted ({mode}): {}",
                report.aggregate.avg_wait
            );
            assert_eq!(
                report.aggregate.utilization.to_bits(),
                golden.utilization,
                "utilization drifted ({mode}): {}",
                report.aggregate.utilization
            );
            assert_eq!(report.aggregate.placements, golden.placements, "{mode}");
            let jobs: Vec<usize> = report.per_node.iter().map(|n| n.jobs).collect();
            assert_eq!(jobs, golden.node_jobs, "placement spread drifted ({mode})");
            assert_eq!(report.completed_jobs(), 24, "{mode}");
        }
    }
}

/// Golden pin for one *large* skewed trace (5000 jobs, 8 nodes of
/// FCFS + backfilling at exact estimates, least-loaded placement),
/// reproduced serially and on the `HRP_TEST_THREADS` pool.
#[test]
fn large_skewed_trace_matches_the_golden_pin_in_both_engines() {
    const DIGEST: u64 = 0x841a_9d30_d786_e4b9;
    const EVENTS: usize = 15_000;
    const MAKESPAN: u64 = 0x40d4_3ada_cfb3_7d18; // 20715.418927…
    const AVG_WAIT: u64 = 0x4078_1a3e_c938_cac8; // 385.640328…
    let suite = Suite::paper_suite(&GpuArch::a100());
    let jobs = generate(
        &suite,
        &TraceConfig::new(TraceKind::Skewed, 5000, 42).max_gpus(2),
    );
    for threads in [1, test_threads()] {
        let mut sel = SelectorKind::LeastLoaded.build();
        let report = MultiNodeSim::new(8, 2).with_threads(threads).run(
            &suite,
            jobs.clone(),
            sel.as_mut(),
            |_| BackfillPlanner::new(BackfillPolicy::Easy, 2),
        );
        assert_eq!(report.timeline.digest(), DIGEST, "{threads} threads");
        assert_eq!(report.timeline.len(), EVENTS);
        assert_eq!(report.aggregate.makespan.to_bits(), MAKESPAN);
        assert_eq!(report.aggregate.avg_wait.to_bits(), AVG_WAIT);
        assert_eq!(report.aggregate.placements, 5000);
    }
}

#[test]
fn one_node_round_robin_reproduces_the_single_node_schedule() {
    // The acceptance pin behind `repro --nodes 1`: the multi-node path
    // at N = 1 *is* the single-node simulator, bit for bit.
    let suite = Suite::paper_suite(&GpuArch::a100());
    let jobs = staggered_trace(&suite, 24);
    let mut sel = SelectorKind::RoundRobin.build();
    let multi = MultiNodeSim::new(1, 2).with_threads(test_threads()).run(
        &suite,
        jobs.clone(),
        sel.as_mut(),
        |_| CoSchedulingDispatcher::new(MpsOnly, 4, 4),
    );
    let mut single = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
    let (base, events) = hrp::cluster::ClusterSim::new(2).run_traced(&suite, jobs, &mut single);
    assert_eq!(multi.timeline.events, events);
    assert_eq!(multi.aggregate.makespan.to_bits(), base.makespan.to_bits());
    assert_eq!(multi.aggregate.avg_wait.to_bits(), base.avg_wait.to_bits());
    assert_eq!(
        multi.aggregate.utilization.to_bits(),
        base.utilization.to_bits()
    );
    assert_eq!(multi.aggregate.placements, base.placements);
}
