//! Criterion benchmarks for the multi-node cluster simulator: serial
//! vs persistent-pool epoch fan-out on the same seeded trace (both
//! produce the bit-identical timeline — the benches time pure fan-out
//! overhead), the placement-training environment's episode replay,
//! the single-node event loop underneath everything, and one
//! backfilling decision in each of the three shapes an overloaded
//! node asks for.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hrp_cluster::backfill::{BackfillPlanner, BackfillPolicy};
use hrp_cluster::multinode::{staggered_trace, MultiNodeSim};
use hrp_cluster::place::{dispatcher_for, PlacementAgent, PlacementConfig, PlacementDispatcher};
use hrp_cluster::sim::{ClusterSim, Dispatcher};
use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
use hrp_cluster::{ClusterJob, SelectorKind};
use hrp_core::par::WorkerPool;
use hrp_gpusim::GpuArch;
use hrp_workloads::Suite;
use std::sync::Arc;

const JOBS: usize = 48;

/// The co-scheduling node dispatcher at the evaluation geometry.
fn node_dispatcher() -> PlacementDispatcher {
    dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0)
}

fn bench_single_node_loop(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let jobs = staggered_trace(&suite, JOBS);
    c.bench_function("cluster_single_node_drain48", |b| {
        b.iter(|| {
            let mut d = node_dispatcher();
            black_box(ClusterSim::new(2).run(&suite, black_box(jobs.clone()), &mut d))
        })
    });
}

/// Serial vs pooled fan-out: same timeline, two wall-clocks. The
/// bursty trace maximises the epoch count, which is exactly where a
/// synchronized round per arrival instant hurts.
fn bench_fanout_modes(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let jobs = generate(&suite, &TraceConfig::new(TraceKind::Bursty, JOBS, 42));
    let run = |sim: &MultiNodeSim| {
        let mut sel = SelectorKind::LeastLoaded.build();
        sim.run(&suite, jobs.clone(), sel.as_mut(), |_| node_dispatcher())
    };
    c.bench_function("cluster_4nodes_serial_drain48", |b| {
        let sim = MultiNodeSim::new(4, 2);
        b.iter(|| black_box(run(&sim)))
    });
    c.bench_function("cluster_4nodes_pool4_drain48", |b| {
        // The pool is created once and shared across iterations — the
        // steady-state cost of `with_threads(4)` inside a long-lived
        // process.
        let sim = MultiNodeSim::new(4, 2).with_pool(Arc::new(WorkerPool::new(4)));
        b.iter(|| black_box(run(&sim)))
    });
}

/// One greedy placement episode through the simulation-backed env —
/// the per-episode cost the placement-training rollout workers pay.
fn bench_placement_episode(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let cfg = PlacementConfig::quick();
    let trace = generate(&suite, &cfg.trace.clone().max_gpus(cfg.gpus_per_node));
    let agent = PlacementAgent::untrained(cfg);
    c.bench_function("placement_greedy_episode32", |b| {
        b.iter(|| black_box(agent.greedy_placements(&suite, black_box(&trace))))
    });
}

/// One `BackfillPlanner::next_placement` on a 2-GPU EASY node at the
/// overload workload's estimate error: a saturated node behind a
/// 16-job queue (six calls in ten under `serve_backfill_overload`), an
/// idle node whose head starts, and a free GPU the wide head cannot
/// use with a deep queue to look through for a backfill.
fn bench_backfill_decision(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let job = |id: usize, gpus: usize| ClusterJob {
        id,
        bench: id % suite.len(),
        arrival: 0.0,
        gpus,
        user: 0,
    };
    let narrow: Vec<ClusterJob> = (0..16).map(|id| job(id, 1)).collect();
    let wide_head: Vec<ClusterJob> = (0..16).map(|id| job(id, 2 - usize::from(id > 0))).collect();
    let planner = || BackfillPlanner::new(BackfillPolicy::Easy, 2).with_walltime_err(0.3);

    c.bench_function("backfill_decision_saturated_queue16", |b| {
        let mut p = planner();
        for _ in 0..2 {
            p.next_placement(&suite, &narrow, 1, 0.0).expect("fills");
        }
        b.iter(|| black_box(p.next_placement(&suite, black_box(&wide_head), 0, 1.0)))
    });
    c.bench_function("backfill_decision_head_fits", |b| {
        let mut p = planner();
        let mut now = 0.0;
        b.iter(|| {
            // Far enough apart that the previous booking has lapsed.
            now += 1e3;
            black_box(p.next_placement(&suite, black_box(&narrow), 2, now))
        })
    });
    c.bench_function("backfill_decision_blocked_head_queue16", |b| {
        let mut p = planner();
        p.next_placement(&suite, &narrow[..1], 2, 0.0)
            .expect("starts");
        // The booked GPU is a millisecond from its estimated release:
        // every estimate of the queue overruns the head's reservation.
        let now = p.walltime_estimate(&suite, &narrow[0]) - 1e-3;
        assert!(p.next_placement(&suite, &wide_head, 1, now).is_none());
        b.iter(|| black_box(p.next_placement(&suite, black_box(&wide_head), 1, now)))
    });
}

criterion_group!(
    benches,
    bench_single_node_loop,
    bench_fanout_modes,
    bench_placement_episode,
    bench_backfill_decision
);
criterion_main!(benches);
