//! Golden regression for the admission-control + fair-share front
//! door, in the style of `tests/golden_serve.rs`: for each fairness
//! trace kind (bursty, skewed — the regimes the admission tier
//! targets), a tenant-tagged 96-job trace is drained through the
//! 4-node least-loaded service twice — once with the legacy FCFS
//! front door, once with the admission tier on — and each run is
//! pinned by its merged-event digest, bit-exact makespan, bit-exact
//! Jain index, and the deferred counter. The fair run is additionally
//! pinned by its rolling admission-decision digest and must reproduce
//! both digests after a kill/restore at one fixed mid-trace point
//! (48 consumed jobs). A refactor of the karma accounting, the burst
//! ordering, the quota bookkeeping, or the checkpoint format that
//! moves one decision is caught here.
//!
//! A second, pin-free case holds the admission tier's acceptance gate
//! at a contended 400-job, 6-tenant geometry: the fair front door must
//! strictly beat FCFS on Jain's index at no more than 2 % makespan
//! cost. The 96-job pins do not imply it — on the skewed trace their
//! fair Jain is *below* the FCFS one.
//!
//! Golden values captured from the initial admission-tier
//! implementation at `ServeConfig::new(4, 2)` with
//! `AdmissionConfig::new().quota(8)` and
//! `TraceConfig::new(kind, 96, 42).max_gpus(2).mean_gap(3.0)
//! .users(4)`. The bursty fair row was captured a second time, on the
//! parent of the commit that made the karma half-life a constant, with
//! the half-life set to that constant (300 s; the original pins used a
//! test-only 120 s, at which the skewed row reads the same bits).
//! Regenerate with:
//!
//! ```text
//! cargo test --test golden_fair -- --ignored print_golden_fair_pins --nocapture
//! ```

use hrp::cluster::fair::user_fairness;
use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::trace::{generate, TraceConfig, TraceKind};
use hrp::cluster::SelectorKind;
use hrp::prelude::*;
use hrp::serve::{
    dispatcher_for, restore, AdmissionConfig, SchedulerService, ServeConfig, ServeReport,
    ServiceStep, TraceSource,
};

const NODES: usize = 4;
const GPUS_PER_NODE: usize = 2;
const N_JOBS: usize = 96;
const SEED: u64 = 42;
const MEAN_GAP: f64 = 3.0;
const USERS: u32 = 4;
const QUOTA: usize = 8;
/// The fixed kill point of the fair run's checkpoint pin.
const KILL_AT: usize = 48;

struct Golden {
    kind: TraceKind,
    /// `None` = the legacy FCFS front door, `Some(admission digest)`
    /// = the admission tier at the pinned knobs.
    admission_digest: Option<u64>,
    digest: u64,
    makespan: u64,
    jain: u64,
    deferred: u64,
}

/// Captured from the initial implementation (see module docs).
fn golden_runs() -> Vec<Golden> {
    vec![
        Golden {
            kind: TraceKind::Bursty,
            admission_digest: None,
            digest: 0x4120_3f82_8062_0c43,
            makespan: 0x407b_c20c_8b59_2d8a, // 444.128062…
            jain: 0x3fed_788b_7d07_8762,     // 0.920964…
            deferred: 0,
        },
        Golden {
            kind: TraceKind::Bursty,
            admission_digest: Some(0x3651_1b6d_838e_7e0e),
            digest: 0xe49d_6cb5_d7e4_908e,
            makespan: 0x4079_8ce0_7596_1a23, // 408.804799…
            jain: 0x3fee_b62c_e004_996a,     // 0.959738…
            deferred: 13,
        },
        Golden {
            kind: TraceKind::Skewed,
            admission_digest: None,
            digest: 0x5d24_3353_c06b_beb7,
            makespan: 0x4085_9b95_03a7_4a55, // 691.447760…
            jain: 0x3fef_ee0b_0f7c_46bd,     // 0.997808…
            deferred: 0,
        },
        Golden {
            kind: TraceKind::Skewed,
            admission_digest: Some(0x7cd9_5906_8a8b_80ba),
            digest: 0x735a_dbbd_85f0_d6d4,
            makespan: 0x4085_31e8_7e1b_54ba, // 678.238521…
            jain: 0x3fee_8862_701f_3465,     // 0.954148…
            deferred: 49,
        },
    ]
}

fn trace_cfg(kind: TraceKind) -> TraceConfig {
    TraceConfig::new(kind, N_JOBS, SEED)
        .max_gpus(GPUS_PER_NODE)
        .mean_gap(MEAN_GAP)
        .users(USERS)
}

fn admission() -> AdmissionConfig {
    AdmissionConfig::new().quota(QUOTA)
}

/// A service over `trace`: the admission tier for `Some`, the legacy
/// FCFS front door for `None`.
fn fresh_service<'a>(
    suite: &'a Suite,
    trace: &TraceConfig,
    admission: Option<AdmissionConfig>,
) -> SchedulerService<'a, TraceSource<'a>> {
    let mut cfg = ServeConfig::new(NODES, GPUS_PER_NODE);
    if let Some(admission) = admission {
        cfg = cfg.admission(admission);
    }
    SchedulerService::new(
        suite,
        cfg,
        SelectorKind::LeastLoaded,
        TraceSource::new(suite, trace.clone()),
    )
}

/// Drain one policy's run and compute its Jain index against the
/// original submission arrivals.
fn run_policy(
    suite: &Suite,
    trace: &TraceConfig,
    admission: Option<AdmissionConfig>,
) -> (ServeReport, f64) {
    let mut service = fresh_service(suite, trace, admission);
    service.run_to_close();
    let served = service.finish();
    let submissions = generate(suite, trace);
    let jain = user_fairness(suite, &submissions, &served.report.timeline.events).jain;
    (served, jain)
}

/// The pinned runs' policy at the golden geometry.
fn run_pinned(suite: &Suite, kind: TraceKind, fair: bool) -> (ServeReport, f64) {
    run_policy(suite, &trace_cfg(kind), fair.then(admission))
}

#[test]
fn fair_and_fcfs_front_doors_match_their_golden_pins() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    for golden in golden_runs() {
        let fair = golden.admission_digest.is_some();
        let label = format!(
            "{} / {}",
            golden.kind.name(),
            if fair { "fair" } else { "fcfs" }
        );
        let (served, jain) = run_pinned(&suite, golden.kind, fair);
        assert_eq!(
            served.report.timeline.digest(),
            golden.digest,
            "timeline digest drifted ({label})"
        );
        assert_eq!(
            served.report.aggregate.makespan.to_bits(),
            golden.makespan,
            "makespan drifted ({label}): {}",
            served.report.aggregate.makespan
        );
        assert_eq!(
            jain.to_bits(),
            golden.jain,
            "Jain index drifted ({label}): {jain}"
        );
        assert_eq!(
            served.stats.deferred, golden.deferred,
            "deferred count drifted ({label})"
        );
        assert_eq!(
            served.stats.rejected, 0,
            "infinite SLO never rejects ({label})"
        );
        assert_eq!(served.report.completed_jobs(), N_JOBS, "{label}");
        match (&served.admission, golden.admission_digest) {
            (Some(adm), Some(pin)) => assert_eq!(
                adm.digest, pin,
                "admission decision digest drifted ({label})"
            ),
            (None, None) => {}
            _ => panic!("admission outcome presence mismatch ({label})"),
        }
    }
}

/// The fair run killed at [`KILL_AT`] consumed jobs and restored from
/// its `HRPS` blob reproduces both pinned digests bit-exactly.
#[test]
fn killed_and_restored_fair_runs_reproduce_the_pins() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    for golden in golden_runs() {
        let Some(admission_pin) = golden.admission_digest else {
            continue;
        };
        let mut service = fresh_service(&suite, &trace_cfg(golden.kind), Some(admission()));
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
        let mut resumed = restore(&suite, blob).expect("restore from HRPS blob");
        resumed.run_to_close();
        let served = resumed.finish();
        let label = golden.kind.name();
        assert_eq!(
            served.report.timeline.digest(),
            golden.digest,
            "kill/restore at {KILL_AT} jobs changed the fair schedule ({label})"
        );
        assert_eq!(
            served.admission.expect("admission on").digest,
            admission_pin,
            "kill/restore at {KILL_AT} jobs changed the admission decisions ({label})"
        );
        assert_eq!(
            served.stats.deferred, golden.deferred,
            "deferred count diverged after restore ({label})"
        );
    }
}

/// The admission tier's acceptance gate, at the geometry it was tuned
/// for (400 jobs, 6 tenants, mean gap 2.5 s, quota 16): Jain's index
/// strictly improves over FCFS at ≤ 2 % makespan cost with nothing
/// rejected, and replaying the admitted jobs at their effective arrivals through the
/// batch engine reproduces the service timeline bit-exactly.
#[test]
fn fair_front_door_beats_fcfs_within_the_makespan_budget() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let gate = AdmissionConfig::new().quota(16);
    for kind in [TraceKind::Bursty, TraceKind::Skewed] {
        let label = kind.name();
        let trace = TraceConfig::new(kind, 400, SEED)
            .max_gpus(GPUS_PER_NODE)
            .mean_gap(2.5)
            .users(6);
        let (fcfs, fcfs_jain) = run_policy(&suite, &trace, None);
        let (fair, fair_jain) = run_policy(&suite, &trace, Some(gate.clone()));

        assert!(
            fair_jain > fcfs_jain,
            "{label}: Jain must strictly improve (fair {fair_jain} vs fcfs {fcfs_jain})"
        );
        let (fair_span, fcfs_span) = (
            fair.report.aggregate.makespan,
            fcfs.report.aggregate.makespan,
        );
        assert!(
            fair_span <= 1.02 * fcfs_span,
            "{label}: fair makespan {fair_span} exceeds 1.02 x fcfs {fcfs_span}"
        );
        assert_eq!(
            fair.stats.rejected, 0,
            "{label}: infinite SLO never rejects"
        );
        assert_eq!(fcfs.stats.rejected, 0, "{label}");
        assert_eq!(fair.report.completed_jobs(), 400, "{label}");
        assert_eq!(fcfs.report.completed_jobs(), 400, "{label}");

        let digest = fair.report.timeline.digest();
        let mut selector = SelectorKind::LeastLoaded.build();
        let replay = MultiNodeSim::new(NODES, GPUS_PER_NODE).run(
            &suite,
            fair.admission.expect("admission on").effective,
            selector.as_mut(),
            |_| dispatcher_for(SelectorKind::LeastLoaded, GPUS_PER_NODE, 0.0),
        );
        assert_eq!(
            replay.timeline.digest(),
            digest,
            "{label}: effective-trace batch replay diverged from the service"
        );
    }
}

/// Regenerates the `golden_runs` table (run with `--ignored
/// --nocapture` and paste).
#[test]
#[ignore = "pin printer, not a regression check"]
fn print_golden_fair_pins() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    for kind in [TraceKind::Bursty, TraceKind::Skewed] {
        for fair in [false, true] {
            let (served, jain) = run_pinned(&suite, kind, fair);
            let admission_digest = served
                .admission
                .as_ref()
                .map_or("None".to_owned(), |a| format!("Some({:#018x})", a.digest));
            println!(
                "        Golden {{\n            kind: TraceKind::{kind:?},\n            \
                 admission_digest: {admission_digest},\n            \
                 digest: {:#018x},\n            \
                 makespan: {:#018x}, // {}\n            \
                 jain: {:#018x}, // {}\n            \
                 deferred: {},\n        }},",
                served.report.timeline.digest(),
                served.report.aggregate.makespan.to_bits(),
                served.report.aggregate.makespan,
                jain.to_bits(),
                jain,
                served.stats.deferred,
            );
        }
    }
}
