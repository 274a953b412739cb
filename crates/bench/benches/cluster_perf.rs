//! Criterion benchmarks for the multi-node cluster simulator: serial
//! vs persistent-pool epoch fan-out on the same seeded trace (both
//! produce the bit-identical timeline — the benches time pure fan-out
//! overhead), the placement-training environment's episode replay,
//! the single-node event loop underneath everything, one backfilling
//! decision in each of the three shapes an overloaded node asks for,
//! one cycle of an overloaded service with a long parked queue, and the
//! event timeline on its own: recording, merging and checkpointing it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hrp_cluster::backfill::{BackfillPlanner, BackfillPolicy};
use hrp_cluster::multinode::{staggered_trace, MultiNodeSim};
use hrp_cluster::place::{dispatcher_for, PlacementAgent, PlacementConfig, PlacementDispatcher};
use hrp_cluster::sim::{ClusterSim, Dispatcher, EventLog, NodeRun, Placement};
use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
use hrp_cluster::{ClusterJob, SelectorKind};
use hrp_gpusim::GpuArch;
use hrp_serve::{
    AdmissionConfig, ChannelSource, SchedulerService, ServeConfig, ServiceStep, TraceSource,
};
use hrp_workloads::Suite;
use std::sync::mpsc::Sender;

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
        let sim = MultiNodeSim::new(4, 2).with_threads(4);
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

/// Tenants of the overloaded service; at quota 1 they keep exactly its
/// eight GPUs busy.
const TENANTS: usize = 8;
/// Jobs parked behind the quota while the cycles are timed.
const PARKED: usize = 48;

/// A 4 × 2 EASY service (the overload workload's estimate error) fed
/// over a channel, stepped until every tenant has one job in flight —
/// all eight GPUs busy — and [`PARKED`] more wait at the admission
/// door. Every job is the same one-GPU benchmark, so the tenants'
/// estimated releases come round in turn.
fn overloaded_service(
    suite: &Suite,
) -> (
    Sender<ClusterJob>,
    SchedulerService<'_, ChannelSource>,
    impl FnMut(f64) -> ClusterJob + '_,
) {
    let (tx, source) = ChannelSource::channel();
    let cfg = ServeConfig::new(4, 2)
        .walltime_err(0.3)
        .admission(AdmissionConfig::new().quota(1));
    let mut service = SchedulerService::new(suite, cfg, SelectorKind::Easy, source);
    let mut next_id = 0;
    let mut job = move |arrival: f64| {
        let mut job = ClusterJob::new(next_id, "stream", arrival, 1, suite);
        job.user = (next_id % TENANTS) as u32 + 1;
        next_id += 1;
        job
    };
    for k in 0..TENANTS + PARKED {
        tx.send(job(k as f64 * 0.1)).expect("the service listens");
        assert!(matches!(service.step(), ServiceStep::Cycle { .. }));
    }
    assert_eq!(service.deferred_jobs(), PARKED);
    (tx, service, job)
}

/// One cycle of that service: with no estimated release due (the door
/// stays shut, the saturated nodes have nothing to plan), and with
/// exactly one (the door walks its queue, lets one job through, and the
/// arrival that came with the cycle takes its place in the queue).
fn bench_overload_cycle(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    c.bench_function("overload_cycle_no_release_parked48", |b| {
        let (_tx, mut service, _) = overloaded_service(&suite);
        let now = (TENANTS + PARKED) as f64 * 0.1;
        b.iter(|| service.settle(black_box(now)));
        assert_eq!(service.deferred_jobs(), PARKED);
    });
    c.bench_function("overload_cycle_one_release_parked48", |b| {
        let (tx, mut service, mut job) = overloaded_service(&suite);
        b.iter(|| {
            let release = service.next_wakeup().expect("a tenant is in flight");
            tx.send(job(release)).expect("the service listens");
            black_box(service.step())
        });
        assert_eq!(service.deferred_jobs(), PARKED);
    });
}

/// The cheapest dispatcher there is — the first waiting job that fits,
/// alone — so that a node's advance is mostly its event recording.
struct FirstFit;

impl Dispatcher for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        _now: f64,
    ) -> Option<Placement> {
        let job = waiting.iter().find(|j| j.gpus <= free_gpus)?;
        Some(Placement {
            job_ids: vec![job.id],
            gpus: job.gpus,
            duration: job.solo_time(suite),
        })
    }
}

/// `jobs` one-GPU jobs a second apart through one 2-GPU node: one
/// arrival, one start and one finish each.
fn recorded_log(suite: &Suite, node: usize, jobs: usize) -> EventLog {
    let mut run = NodeRun::new(node, 2, FirstFit);
    run.reserve_jobs(jobs);
    for id in 0..jobs {
        run.push_arrival(ClusterJob {
            id,
            bench: id % suite.len(),
            arrival: id as f64,
            gpus: 1,
            user: 0,
        });
    }
    run.advance_until(suite, f64::INFINITY);
    run.finish().1
}

/// The event timeline on its own: a node recording 256 jobs (768
/// events) into a reserved log, eight 10 000-event node logs merged
/// into one timeline (their clone is part of the figure), and the
/// `HRPS` encoding of a one-node service that has recorded ≈ 9 000
/// events.
fn bench_timeline(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    c.bench_function("timeline_record_256_jobs", |b| {
        b.iter(|| black_box(recorded_log(&suite, 0, 256)))
    });
    c.bench_function("timeline_merge_8x10k_events", |b| {
        let logs: Vec<EventLog> = (0..8).map(|n| recorded_log(&suite, n, 3_334)).collect();
        assert!(logs.iter().all(|log| log.len() == 10_002));
        b.iter(|| black_box(EventLog::merge(black_box(logs.clone()))))
    });
    c.bench_function("timeline_checkpoint_1node_3k_jobs", |b| {
        let trace = TraceConfig::new(TraceKind::Bursty, 3_100, 42).max_gpus(2);
        let source = TraceSource::new(&suite, trace);
        let cfg = ServeConfig::new(1, 2);
        let mut service = SchedulerService::new(&suite, cfg, SelectorKind::LeastLoaded, source);
        while service.consumed() < 3_000 {
            assert!(matches!(service.step(), ServiceStep::Cycle { .. }));
        }
        b.iter(|| black_box(service.checkpoint().expect("a trace source checkpoints")))
    });
}

criterion_group!(
    benches,
    bench_single_node_loop,
    bench_fanout_modes,
    bench_placement_episode,
    bench_backfill_decision,
    bench_overload_cycle,
    bench_timeline
);
criterion_main!(benches);
