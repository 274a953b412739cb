//! Peak live heap of one served pass, in bytes.
//!
//! The benchmark's `peak_rss_mb` is the outside view of the service's
//! memory, and it also counts what the harness itself keeps per pass.
//! This is the inside view: the recording `#[global_allocator]` of
//! `tests/common/alloc.rs` follows the bytes live on this thread through
//! one pass of each serve workload at its `--quick` size (and of the
//! overload workload at full size), and the peak over the pass —
//! service, event logs, checkpoint blob, restored service, merged
//! timeline — is held to a budget. The passes are deterministic, so the peak is exact per seed
//! and does not depend on how many passes a harness fits in its window.
//!
//! Measured at seed 42 (release and debug builds agree), with the event
//! log as 40-byte records in one growing vector sorted into the merged
//! timeline beside a vector of every decision's latency, and as 32-byte
//! records in fixed chunks merged k ways beside a fixed latency
//! histogram:
//!
//! | pass                                | 40 B, sorted | 32 B, k-way |
//! |-------------------------------------|--------------|-------------|
//! | 2 000-job policy pass, kill/restore | 519 492      | 393 527     |
//! | 4 000 s overload pass               | 657 840      | 564 032     |
//! | 200 000 s overload pass             | 26 225 824   | 15 332 504  |
//!
//! The policy pass read 437 827 in the second layout while the agent's
//! inference plan kept a row-major copy of each layer's weights beside
//! the packed panels it runs, and 423 223 while the selector's snapshot
//! held a clone of the `QNet` (weights, gradients and caches) beside its
//! plan; the snapshot now holds the plan alone.
//!
//! A budget sits about 1 % above its measurement: a change that grows
//! what a decision leaves behind fails here before any benchmark runs.
//!
//! The full-size overload pass (about 1.5 s in a debug build) also pins
//! what `SchedulerService::finish` adds on top of what the run holds:
//! 8 371 472 bytes on 17 854 352 with the first layout (the merge copied
//! every node log before sorting it), 2 190 536 on 13 141 968 with the
//! second.

mod common;
use common::alloc::{live_bytes, peak_live_heap, RecordingAlloc};

use hrp::cluster::place::{PlacementAgent, PlacementConfig};
use hrp::cluster::{SelectorKind, TraceConfig, TraceKind};
use hrp::gpusim::GpuArch;
use hrp::serve::{
    restore, AdmissionConfig, ArrivalSource, LoadGen, LoadShape, SchedulerService, ServeConfig,
    ServeReport, TraceSource,
};
use hrp::workloads::Suite;

#[global_allocator]
static GLOBAL: RecordingAlloc = RecordingAlloc;

const NODES: usize = 8;
const GPUS_PER_NODE: usize = 2;
const USERS: u32 = 6;
const SEED: u64 = 42;

fn drain<S: ArrivalSource>(mut service: SchedulerService<'_, S>) -> ServeReport {
    service.run_to_close();
    service.finish()
}

/// `serve_policy_steady` at `--quick` size, with an untrained agent
/// (memory does not depend on what the weights are): 2 000 bursty jobs
/// from six tenants at quota 4, killed and restored at the midpoint.
#[test]
fn a_policy_pass_with_kill_restore_stays_within_its_heap_budget() {
    const JOBS: usize = 2_000;
    const BUDGET: usize = 397_500;
    let suite = Suite::paper_suite(&GpuArch::a100());
    let mut agent_cfg = PlacementConfig::default_cfg();
    agent_cfg.nodes = NODES;
    agent_cfg.gpus_per_node = GPUS_PER_NODE;
    let agent = PlacementAgent::untrained(agent_cfg);
    let (served, peak) = peak_live_heap(|| {
        let trace = TraceConfig::new(TraceKind::Bursty, JOBS, SEED)
            .mean_gap(12.0)
            .max_gpus(GPUS_PER_NODE)
            .users(USERS);
        let cfg = ServeConfig::new(NODES, GPUS_PER_NODE).admission(AdmissionConfig::new().quota(4));
        let source = TraceSource::new(&suite, trace);
        let mut service = SchedulerService::with_agent(&suite, cfg, agent, source);
        while service.consumed() < JOBS / 2 {
            let _ = service.step();
        }
        let blob = service.checkpoint().expect("a trace source checkpoints");
        drop(service);
        drain(restore(&suite, blob).expect("round trip"))
    });
    assert_eq!(served.stats.decisions, JOBS as u64);
    println!("policy pass: peak live heap {peak} bytes");
    assert!(
        peak <= BUDGET,
        "peak live heap {peak} bytes, budget {BUDGET}"
    );
}

/// `serve_backfill_overload`'s service: `duration` simulated seconds
/// of bursty load at 1.4 × capacity through EASY backfilling, quota 8,
/// SLO 20.
fn overload(suite: &Suite, duration: f64) -> SchedulerService<'_, LoadGen<'_>> {
    let cfg = ServeConfig::new(NODES, GPUS_PER_NODE)
        .walltime_err(0.3)
        .admission(AdmissionConfig::new().quota(8).slo(20.0));
    let source = LoadGen::new(suite, LoadShape::Bursty, 0.5, duration, SEED).with_users(USERS, 1.2);
    SchedulerService::new(suite, cfg, SelectorKind::Easy, source)
}

/// `serve_backfill_overload` at `--quick` size: 4 000 s.
#[test]
fn an_overload_pass_stays_within_its_heap_budget() {
    const BUDGET: usize = 570_000;
    let suite = Suite::paper_suite(&GpuArch::a100());
    let (served, peak) = peak_live_heap(|| drain(overload(&suite, 4_000.0)));
    assert!(served.stats.rejected > 0 && served.stats.deferred > 0);
    println!("overload pass: peak live heap {peak} bytes");
    assert!(
        peak <= BUDGET,
        "peak live heap {peak} bytes, budget {BUDGET}"
    );
}

/// `serve_backfill_overload` at full size: 200 000 s, about 70 000
/// admitted jobs. Draining the nodes and merging their logs into the
/// timeline may raise the live heap by at most a fifth of what the run
/// holds when `finish` begins: the timeline is never held twice.
#[test]
fn a_full_size_overload_pass_finishes_within_a_fifth_of_its_heap() {
    const BUDGET: usize = 15_490_000;
    let suite = Suite::paper_suite(&GpuArch::a100());
    let base = live_bytes();
    let (service, run_peak) = peak_live_heap(|| {
        let mut service = overload(&suite, 200_000.0);
        service.run_to_close();
        service
    });
    let held = live_bytes() - base;
    let (served, rise) = peak_live_heap(|| service.finish());
    let peak = run_peak.max(held + rise);
    assert!(served.stats.decisions > 60_000 && served.stats.rejected > 0);
    println!(
        "full-size overload pass: {held} bytes held at finish, which adds {rise}; \
         peak live heap {peak} bytes"
    );
    assert!(rise <= held / 5, "finish adds {rise} bytes to {held}");
    assert!(
        peak <= BUDGET,
        "peak live heap {peak} bytes, budget {BUDGET}"
    );
}
