//! Golden regression for the online scheduler service, in the style of
//! `tests/golden_cluster.rs`: for every generated trace kind, the
//! 4-node least-loaded service drain of a deterministic 96-job trace
//! is pinned by its merged-event digest, bit-exact makespan, and the
//! logical cycle counters — and each pin must also be reproduced by a
//! service *killed* at one fixed mid-trace point (48 consumed jobs),
//! checkpointed to an `HRPS` blob, restored, and drained. A refactor
//! of the service cycle, the dirty-set rule, or the checkpoint format
//! that moves one event or re-plans one extra node is caught here.
//!
//! Golden values captured from the initial `hrp-serve` implementation
//! at `ServeConfig::new(4, 2)`,
//! `TraceConfig::new(kind, 96, 42).max_gpus(2).mean_gap(12.0)
//! .gang_share(0.25)`. Regenerate with:
//!
//! ```text
//! cargo test --test golden_serve -- --ignored print_golden_serve_pins --nocapture
//! ```
//!
//! The second golden is the service the other way round — a scaled-down
//! `serve_backfill_overload` (see `benchmark/README.md`): a bursty
//! [`LoadGen`] offering about 1.4 × what 4 × 2 GPUs can run, six
//! tenants, EASY backfilling at `walltime_err 0.3`, quota 8, SLO 20 —
//! so the reject / defer / revisit paths and a backfill planner with
//! deep queues behind saturated nodes are pinned too. Captured on
//! PR 19's parent commit, before the planner's slot set changed
//! representation; regenerate with `--ignored
//! print_golden_overload_pins`.
//!
//! The third is the admission door with deferral dominating: the same
//! cluster and tenants at **quota 1** and no SLO, so 975 of 1 040
//! arrivals are parked at least once, 565 are still parked when the
//! source closes, and `run_to_close` drains them through 566 wake
//! cycles. A third of its arrival cycles run with jobs parked and no
//! release due — the cycles on which the door leaves its queue alone.
//! Pinned uninterrupted, killed and restored at three points (one of
//! them just before such a cycle, one mid-drain) and by batch replay. Captured on PR 20's parent commit, before the
//! door stopped walking its queue every cycle; regenerate with
//! `--ignored print_golden_parked_pins`.

use hrp::cluster::trace::{TraceConfig, TraceKind};
use hrp::cluster::{BackfillTier, MultiNodeSim, SelectorKind};
use hrp::prelude::*;
use hrp::serve::{
    dispatcher_for, restore, AdmissionConfig, ArrivalSource, LoadGen, LoadShape, SchedulerService,
    ServeConfig, ServeReport, ServiceStep, TraceSource,
};

const NODES: usize = 4;
const GPUS_PER_NODE: usize = 2;
const N_JOBS: usize = 96;
const SEED: u64 = 42;
const MEAN_GAP: f64 = 12.0;
const GANG_SHARE: f64 = 0.25;
/// The fixed kill point: consumed jobs at which the service is
/// checkpointed and discarded.
const KILL_AT: usize = 48;

struct Golden {
    kind: TraceKind,
    digest: u64,
    events: usize,
    makespan: u64,
    replanned: u64,
    skipped: u64,
}

/// Captured from the initial implementation (see module docs).
fn golden_runs() -> Vec<Golden> {
    vec![
        Golden {
            kind: TraceKind::Uniform,
            digest: 0x2a49_de31_dd40_6b21,
            events: 288,
            makespan: 0x4092_f477_d33c_e86d, // 1213.117016…
            replanned: 275,
            skipped: 109,
        },
        Golden {
            kind: TraceKind::Bursty,
            digest: 0x2b14_4607_7339_c54c,
            events: 276,
            makespan: 0x4093_6328_936a_75eb, // 1240.789624…
            replanned: 102,
            skipped: 10,
        },
        Golden {
            kind: TraceKind::Skewed,
            digest: 0x9b7a_91b6_b703_1812,
            events: 284,
            makespan: 0x4092_a3c4_aec5_22b7, // 1192.942072…
            replanned: 188,
            skipped: 4,
        },
        Golden {
            kind: TraceKind::HeavyTail,
            digest: 0xf6ae_0dc1_bbb8_a115,
            events: 288,
            makespan: 0x4092_42f9_256f_238a, // 1168.743306…
            replanned: 244,
            skipped: 140,
        },
        Golden {
            kind: TraceKind::Colocate,
            digest: 0xf01a_473c_28b0_d50e,
            events: 288,
            makespan: 0x4091_f711_e76a_1b0c, // 1149.767484…
            replanned: 269,
            skipped: 115,
        },
        Golden {
            kind: TraceKind::Staggered,
            digest: 0xe1be_cc6c_4fdc_4fb2,
            events: 214,
            makespan: 0x407c_7836_a48d_f160, // 455.513340…
            replanned: 96,
            skipped: 0,
        },
    ]
}

fn trace_cfg(kind: TraceKind) -> TraceConfig {
    TraceConfig::new(kind, N_JOBS, SEED)
        .max_gpus(GPUS_PER_NODE)
        .mean_gap(MEAN_GAP)
        .gang_share(GANG_SHARE)
}

fn fresh_service(suite: &Suite, kind: TraceKind) -> SchedulerService<'_, TraceSource<'_>> {
    SchedulerService::new(
        suite,
        ServeConfig::new(NODES, GPUS_PER_NODE),
        SelectorKind::LeastLoaded,
        TraceSource::new(suite, trace_cfg(kind)),
    )
}

/// The uninterrupted drain.
fn run_uninterrupted(suite: &Suite, kind: TraceKind) -> ServeReport {
    let mut service = fresh_service(suite, kind);
    service.run_to_close();
    service.finish()
}

/// Kill at [`KILL_AT`] consumed jobs, restore from the blob, drain.
fn run_killed_and_restored(suite: &Suite, kind: TraceKind) -> ServeReport {
    let mut service = fresh_service(suite, kind);
    while service.consumed() < KILL_AT {
        match service.step() {
            ServiceStep::Cycle { .. } => {}
            ServiceStep::Pending => {
                service.wake_cycle();
            }
            ServiceStep::Closed => break,
        }
    }
    let blob = service.checkpoint().expect("trace services checkpoint");
    drop(service); // the kill
    let mut resumed = restore(suite, blob).expect("restore from HRPS blob");
    resumed.run_to_close();
    resumed.finish()
}

#[test]
fn served_schedules_match_the_golden_pin_uninterrupted_and_killed() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    for golden in golden_runs() {
        let label = golden.kind.name();
        let full = run_uninterrupted(&suite, golden.kind);
        assert_eq!(
            full.report.timeline.digest(),
            golden.digest,
            "timeline digest drifted ({label})"
        );
        assert_eq!(
            full.report.timeline.len(),
            golden.events,
            "event count ({label})"
        );
        assert_eq!(
            full.report.aggregate.makespan.to_bits(),
            golden.makespan,
            "makespan drifted ({label}): {}",
            full.report.aggregate.makespan
        );
        assert_eq!(
            full.stats.nodes_replanned, golden.replanned,
            "dirty-set re-plan count drifted ({label})"
        );
        assert_eq!(
            full.stats.nodes_skipped, golden.skipped,
            "dirty-set skip count drifted ({label})"
        );
        assert_eq!(full.report.completed_jobs(), N_JOBS, "{label}");

        let resumed = run_killed_and_restored(&suite, golden.kind);
        assert_eq!(
            resumed.report.timeline.digest(),
            golden.digest,
            "kill/restore at {KILL_AT} jobs changed the schedule ({label})"
        );
        assert_eq!(
            resumed.report.timeline.events, full.report.timeline.events,
            "{label}"
        );
        assert_eq!(resumed.report.per_node, full.report.per_node, "{label}");
        assert_eq!(resumed.report.aggregate, full.report.aggregate, "{label}");
        assert_eq!(
            resumed.stats, full.stats,
            "logical counters diverged after restore ({label})"
        );
    }
}

/// Regenerates the `golden_runs` table (run with `--ignored
/// --nocapture` and paste).
#[test]
#[ignore = "pin printer, not a regression check"]
fn print_golden_serve_pins() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    for kind in [
        TraceKind::Uniform,
        TraceKind::Bursty,
        TraceKind::Skewed,
        TraceKind::HeavyTail,
        TraceKind::Colocate,
        TraceKind::Staggered,
    ] {
        let r = run_uninterrupted(&suite, kind);
        println!(
            "        Golden {{\n            kind: TraceKind::{kind:?},\n            \
             digest: {:#018x},\n            events: {},\n            \
             makespan: {:#018x}, // {}\n            replanned: {},\n            \
             skipped: {},\n        }},",
            r.report.timeline.digest(),
            r.report.timeline.len(),
            r.report.aggregate.makespan.to_bits(),
            r.report.aggregate.makespan,
            r.stats.nodes_replanned,
            r.stats.nodes_skipped,
        );
    }
}

// ---- the overload golden ------------------------------------------

const OVERLOAD_RATE: f64 = 0.25;
const OVERLOAD_DURATION: f64 = 12_000.0;
const OVERLOAD_SEED: u64 = 42;
const OVERLOAD_ERR: f64 = 0.3;
/// The overloaded service is killed at the first cycle past this many
/// consumed arrivals that leaves jobs parked behind a quota.
const OVERLOAD_KILL_AFTER: usize = 1_500;

/// Captured on PR 19's parent commit (see module docs).
struct OverloadGolden {
    digest: u64,
    admission_digest: u64,
    offered: usize,
    rejected: u64,
    deferred: u64,
    makespan: u64,
    /// No node of an overloaded cluster is ever quiescent, so every
    /// cycle re-plans every node.
    replanned: u64,
}

const OVERLOAD: OverloadGolden = OverloadGolden {
    digest: 0xcbca_cd1b_ff04_f014,
    admission_digest: 0xefac_ad39_7c5f_6fae,
    offered: 2962,
    rejected: 848,
    deferred: 93,
    makespan: 0x40c7_c976_ab07_9cc6, // 12178.927094413328
    replanned: 3388,
};

fn overload_service(suite: &Suite) -> SchedulerService<'_, LoadGen<'_>> {
    let source = LoadGen::new(
        suite,
        LoadShape::Bursty,
        OVERLOAD_RATE,
        OVERLOAD_DURATION,
        OVERLOAD_SEED,
    )
    .with_users(6, 1.2);
    let cfg = ServeConfig::new(NODES, GPUS_PER_NODE)
        .walltime_err(OVERLOAD_ERR)
        .admission(AdmissionConfig::new().quota(8).slo(20.0));
    SchedulerService::new(suite, cfg, SelectorKind::Easy, source)
}

/// Drain to close; returns the report and the arrivals consumed.
fn drain<S: ArrivalSource>(mut service: SchedulerService<'_, S>) -> (ServeReport, usize) {
    service.run_to_close();
    let offered = service.consumed();
    (service.finish(), offered)
}

#[test]
fn overloaded_backfill_service_matches_the_golden_pin_every_way_it_can_be_run() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let g = OVERLOAD;
    let (full, offered) = drain(overload_service(&suite));
    let admission = full.admission.as_ref().expect("admission tier is on");
    assert_eq!(full.report.timeline.digest(), g.digest, "timeline digest");
    assert_eq!(admission.digest, g.admission_digest, "admission digest");
    assert_eq!(offered, g.offered, "arrivals offered");
    assert_eq!(full.stats.rejected, g.rejected, "SLO rejections");
    assert_eq!(full.stats.deferred, g.deferred, "quota deferrals");
    assert!(
        g.rejected > 0 && g.deferred > 0,
        "the pin drives both paths"
    );
    assert_eq!(
        full.report.aggregate.makespan.to_bits(),
        g.makespan,
        "makespan drifted: {}",
        full.report.aggregate.makespan
    );
    assert_eq!(full.stats.nodes_replanned, g.replanned, "re-plan count");
    assert_eq!(
        full.stats.decisions + full.stats.rejected,
        offered as u64,
        "every arrival was placed or rejected"
    );
    assert_eq!(full.report.completed_jobs() as u64, full.stats.decisions);

    // Killed mid-run with jobs parked and queues deep, then restored.
    let mut service = overload_service(&suite);
    while service.consumed() < OVERLOAD_KILL_AFTER || service.deferred_jobs() == 0 {
        assert!(matches!(service.step(), ServiceStep::Cycle { .. }));
    }
    let blob = service.checkpoint().expect("load generators checkpoint");
    drop(service);
    let (resumed, _) = drain(restore(&suite, blob).expect("restore from HRPS blob"));
    assert_eq!(resumed.report.timeline.digest(), g.digest, "kill/restore");
    assert_eq!(
        resumed.admission.as_ref().map(|a| a.digest),
        Some(g.admission_digest),
        "kill/restore admission digest"
    );
    assert_eq!(resumed.stats, full.stats, "counters after restore");
    assert_eq!(resumed.report.aggregate, full.report.aggregate);

    // The admitted trace replayed through the batch engine.
    let policy = SelectorKind::Easy.backfill_policy().expect("a tier");
    let batch = MultiNodeSim::new(NODES, GPUS_PER_NODE).run(
        &suite,
        admission.effective.clone(),
        &mut BackfillTier::new(policy),
        |_| dispatcher_for(SelectorKind::Easy, GPUS_PER_NODE, OVERLOAD_ERR),
    );
    assert_eq!(batch.timeline.digest(), g.digest, "batch replay");
}

/// Regenerates [`OVERLOAD`] (run with `--ignored --nocapture` and paste).
#[test]
#[ignore = "pin printer, not a regression check"]
fn print_golden_overload_pins() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let (r, offered) = drain(overload_service(&suite));
    println!(
        "const OVERLOAD: OverloadGolden = OverloadGolden {{\n    digest: {:#018x},\n    \
         admission_digest: {:#018x},\n    offered: {offered},\n    rejected: {},\n    \
         deferred: {},\n    makespan: {:#018x}, // {}\n    replanned: {},\n}};",
        r.report.timeline.digest(),
        r.admission.as_ref().expect("admission tier is on").digest,
        r.stats.rejected,
        r.stats.deferred,
        r.report.aggregate.makespan.to_bits(),
        r.report.aggregate.makespan,
        r.stats.nodes_replanned,
    );
}

// ---- the deferral-heavy golden --------------------------------------

const PARKED_RATE: f64 = 0.25;
const PARKED_DURATION: f64 = 4_000.0;
const PARKED_SEED: u64 = 42;

/// Captured on PR 20's parent commit (see module docs).
struct ParkedGolden {
    digest: u64,
    admission_digest: u64,
    offered: usize,
    deferred: u64,
    cycles: u64,
    wake_cycles: u64,
    decisions: u64,
    makespan: u64,
}

const PARKED: ParkedGolden = ParkedGolden {
    digest: 0xb8ac_0064_9155_d4cb,
    admission_digest: 0x3068_8a91_4090_1ed4,
    offered: 1040,
    deferred: 975,
    cycles: 302,
    wake_cycles: 566,
    decisions: 1040,
    makespan: 0x40d0_da43_d5bd_bace, // 17257.059920723368
};

fn parked_service(suite: &Suite) -> SchedulerService<'_, LoadGen<'_>> {
    let source = LoadGen::new(
        suite,
        LoadShape::Bursty,
        PARKED_RATE,
        PARKED_DURATION,
        PARKED_SEED,
    )
    .with_users(6, 1.2);
    let cfg = ServeConfig::new(NODES, GPUS_PER_NODE)
        .walltime_err(OVERLOAD_ERR)
        .admission(AdmissionConfig::new().quota(1));
    SchedulerService::new(suite, cfg, SelectorKind::Easy, source)
}

/// Where the deferral-heavy service is killed.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// At the first cycle past this many arrivals that leaves jobs
    /// parked.
    Parked(usize),
    /// Past this many arrivals, with jobs parked, just before a cycle
    /// that comes earlier than the next estimated release: the restored
    /// service's first walk of its queue finds every tenant still at
    /// quota and has to leave every job where it is.
    QuietDoor(usize),
    /// This many wake cycles after the source closed, mid-drain.
    Draining(usize),
}

/// Run a fresh service to `kill`, checkpoint it there, and restore the
/// blob.
fn killed_and_restored(
    suite: &Suite,
    kill: Kill,
) -> SchedulerService<'_, Box<dyn ArrivalSource + '_>> {
    let mut service = parked_service(suite);
    let cycle = |service: &mut SchedulerService<'_, LoadGen<'_>>| match service.step() {
        ServiceStep::Cycle { time, .. } => time,
        other => panic!("{kill:?}: the source ran out first ({other:?})"),
    };
    let checkpoint = |service: &SchedulerService<'_, LoadGen<'_>>| {
        assert!(service.deferred_jobs() > 0, "{kill:?}: nothing is parked");
        service.checkpoint().expect("load generators checkpoint")
    };
    let blob = match kill {
        Kill::Parked(after) => {
            while service.consumed() < after || service.deferred_jobs() == 0 {
                cycle(&mut service);
            }
            checkpoint(&service)
        }
        Kill::QuietDoor(after) => {
            while service.consumed() < after || service.deferred_jobs() == 0 {
                cycle(&mut service);
            }
            loop {
                // With jobs parked the wake-up is the next release.
                let release = service.next_wakeup().expect("parked jobs await a release");
                let blob = checkpoint(&service);
                if cycle(&mut service) < release {
                    break blob;
                }
            }
        }
        Kill::Draining(wakes) => {
            while !matches!(service.step(), ServiceStep::Closed) {}
            for _ in 0..wakes {
                service.wake_cycle().expect("parked jobs wake the service");
            }
            checkpoint(&service)
        }
    };
    restore(suite, blob).expect("restore from HRPS blob")
}

#[test]
fn deferral_heavy_service_matches_the_golden_pin_every_way_it_can_be_run() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let g = PARKED;
    let (full, offered) = drain(parked_service(&suite));
    let admission = full.admission.as_ref().expect("admission tier is on");
    assert_eq!(full.report.timeline.digest(), g.digest, "timeline digest");
    assert_eq!(admission.digest, g.admission_digest, "admission digest");
    assert_eq!(offered, g.offered, "arrivals offered");
    assert_eq!(full.stats.deferred, g.deferred, "quota deferrals");
    assert_eq!(full.stats.cycles, g.cycles, "arrival cycles");
    assert_eq!(full.stats.wake_cycles, g.wake_cycles, "wake cycles");
    assert_eq!(full.stats.decisions, g.decisions, "decisions");
    assert_eq!(
        full.report.aggregate.makespan.to_bits(),
        g.makespan,
        "makespan drifted: {}",
        full.report.aggregate.makespan
    );
    assert!(
        2 * g.deferred > g.offered as u64 && g.wake_cycles > g.cycles,
        "the pin is one where deferral dominates and the queue outlives the source"
    );
    assert_eq!(full.stats.rejected, 0, "no SLO, nothing rejected");
    assert_eq!(full.stats.decisions, offered as u64, "every arrival placed");

    for kill in [Kill::Parked(200), Kill::QuietDoor(500), Kill::Draining(100)] {
        let mut resumed = killed_and_restored(&suite, kill);
        if let Kill::QuietDoor(_) = kill {
            let parked = resumed.deferred_jobs();
            assert!(matches!(resumed.step(), ServiceStep::Cycle { .. }));
            assert!(
                resumed.deferred_jobs() >= parked,
                "{kill:?}: no release was due, yet a parked job went through"
            );
        }
        let (resumed, _) = drain(resumed);
        assert_eq!(resumed.report.timeline.digest(), g.digest, "{kill:?}");
        assert_eq!(
            resumed.admission.as_ref().map(|a| a.digest),
            Some(g.admission_digest),
            "{kill:?}: admission digest"
        );
        assert_eq!(resumed.stats, full.stats, "{kill:?}: counters");
        assert_eq!(resumed.report.aggregate, full.report.aggregate, "{kill:?}");
    }

    // The admitted trace replayed through the batch engine.
    let policy = SelectorKind::Easy.backfill_policy().expect("a tier");
    let batch = MultiNodeSim::new(NODES, GPUS_PER_NODE).run(
        &suite,
        admission.effective.clone(),
        &mut BackfillTier::new(policy),
        |_| dispatcher_for(SelectorKind::Easy, GPUS_PER_NODE, OVERLOAD_ERR),
    );
    assert_eq!(batch.timeline.digest(), g.digest, "batch replay");
}

/// Regenerates [`PARKED`] (run with `--ignored --nocapture` and paste).
#[test]
#[ignore = "pin printer, not a regression check"]
fn print_golden_parked_pins() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let (r, offered) = drain(parked_service(&suite));
    println!(
        "const PARKED: ParkedGolden = ParkedGolden {{\n    digest: {:#018x},\n    \
         admission_digest: {:#018x},\n    offered: {offered},\n    deferred: {},\n    \
         cycles: {},\n    wake_cycles: {},\n    decisions: {},\n    \
         makespan: {:#018x}, // {}\n}};",
        r.report.timeline.digest(),
        r.admission.as_ref().expect("admission tier is on").digest,
        r.stats.deferred,
        r.stats.cycles,
        r.stats.wake_cycles,
        r.stats.decisions,
        r.report.aggregate.makespan.to_bits(),
        r.report.aggregate.makespan,
    );
}
