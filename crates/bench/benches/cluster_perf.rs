//! Criterion benchmarks for the multi-node cluster simulator: serial
//! vs persistent-pool epoch fan-out on the same seeded trace (both
//! produce the bit-identical timeline — the benches time pure fan-out
//! overhead), the placement-training environment's episode replay,
//! and the single-node event loop underneath everything.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hrp_cluster::multinode::{staggered_trace, MultiNodeSim};
use hrp_cluster::place::{dispatcher_for, PlacementAgent, PlacementConfig, PlacementDispatcher};
use hrp_cluster::sim::ClusterSim;
use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
use hrp_cluster::SelectorKind;
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

criterion_group!(
    benches,
    bench_single_node_loop,
    bench_fanout_modes,
    bench_placement_episode
);
criterion_main!(benches);
