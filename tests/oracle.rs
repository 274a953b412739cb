//! The scheduler stack's oracle: every case runs every way it can be
//! run — served, killed and restored, batch, the fair-order batch —
//! and all of the runs must agree (see
//! `tests/common/harness.rs`).
//!
//! * The pin table (`tests/common/pins.rs`) fixes what chosen cases
//!   produce; this file holds its `backfill` rows and its printer, and
//!   `golden_serve`, `golden_fair` and `golden_cluster` hold the rest.
//! * [`drawn_cases_agree_every_way_they_run`] draws cases over the whole
//!   space of `harness::Draw`: trace kind, load shape and hand-shaped
//!   batch traces, seed, size, gap, gang share, nodes, selector,
//!   estimate error, admission tier, tenants and kill points.
//!   `multinode_contract`, `backfill_contract` and `serve_contract`
//!   draw the slices of it their tests name.
//! * The rest are the gates the design answers to: fair share beats
//!   FCFS on Jain's index, backfilling beats FCFS on makespan (and on
//!   2-GPU nodes delays no job), a restored door lets nothing through
//!   early, and the batch engine matches the service at 100 k jobs.

mod common;
use common::harness::{self, shape_strategy, Case, Cut, Draw, Source, GPUS};
use common::pins;

use hrp::cluster::backfill::{BackfillPlanner, BackfillPolicy};
use hrp::cluster::select::RoundRobin;
use hrp::cluster::sim::EventKind;
use hrp::cluster::trace::{TraceConfig, TraceKind};
use hrp::cluster::MultiNodeSim;
use hrp::cluster::SelectorKind;
use hrp::prelude::*;
use hrp::serve::{AdmissionConfig, ServiceStep};
use proptest::prelude::*;

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

#[test]
fn backfill_rows_hold_every_way_they_run() {
    let s = suite();
    for name in pins::names(|name| name.starts_with("backfill/")) {
        pins::check(&s, name, &pins::case(name));
    }
}

/// Regenerates the pin table (run with `--ignored --nocapture` and
/// paste).
#[test]
#[ignore = "pin printer, not a regression check"]
fn print_pins() {
    pins::print_all(&suite());
}

proptest! {
    #[test]
    fn drawn_cases_agree_every_way_they_run(draw in Draw::strategy()) {
        draw.run();
    }

    // With node widths of at most 2 GPUs and exact estimates, a
    // backfilled job always completes before the release that gates
    // the blocked head (otherwise it would not fit the backfill
    // window), so the machine state at every release instant matches
    // plain FCFS. EASY and conservative therefore start *every* job no
    // later than FCFS does — which subsumes both "EASY never delays the
    // queue head beyond its FCFS start" and "conservative never delays
    // a reserved job".
    #[test]
    fn backfilling_never_delays_any_job_on_two_gpu_nodes(
        shape in shape_strategy(),
        conservative in any::<bool>(),
    ) {
        let s = suite();
        let jobs = Source::Shape(shape).jobs(&s);
        let starts = |policy: BackfillPolicy| -> Vec<f64> {
            let report = MultiNodeSim::new(1, GPUS).run(&s, jobs.clone(), &mut RoundRobin::new(), |_| {
                BackfillPlanner::new(policy, GPUS)
            });
            let mut starts = vec![f64::NAN; jobs.len()];
            for e in report.timeline.events.iter() {
                if let EventKind::Start { job_ids, .. } = e.kind {
                    for &id in job_ids {
                        starts[id] = e.time;
                    }
                }
            }
            starts
        };
        let policy = if conservative { BackfillPolicy::Conservative } else { BackfillPolicy::Easy };
        let fcfs = starts(BackfillPolicy::Fcfs);
        for (id, (got, bound)) in starts(policy).iter().zip(&fcfs).enumerate() {
            prop_assert!(
                got <= &(bound + 1e-9),
                "{:?} delayed job {} to {} (FCFS starts it at {})",
                policy, id, got, bound
            );
        }
    }
}

// ---- the gates ------------------------------------------------------

/// The admission tier's acceptance gate, at the geometry it was tuned
/// for (400 jobs, 6 tenants, mean gap 2.5 s, quota 16): Jain's index
/// strictly improves over FCFS at no more than 2 % makespan cost, with
/// nothing rejected.
#[test]
fn fair_front_door_beats_fcfs_within_the_makespan_budget() {
    let s = suite();
    for kind in [TraceKind::Bursty, TraceKind::Skewed] {
        let trace = TraceConfig::new(kind, 400, 42)
            .max_gpus(GPUS)
            .mean_gap(2.5)
            .users(6);
        let fcfs = Case::new(Source::Trace(trace), 4, SelectorKind::LeastLoaded);
        let fair = Case {
            admission: Some(AdmissionConfig::new().quota(16)),
            ..fcfs.clone()
        };
        let [(fcfs_jain, fcfs_span), (fair_jain, fair_span)] = [fcfs, fair].map(|case| {
            let outcome = harness::run(&s, &case);
            let first = &outcome.runs[0];
            (outcome.jain(&s, first), first.aggregate.makespan)
        });
        let label = kind.name();
        assert!(
            fair_jain > fcfs_jain,
            "{label}: Jain must strictly improve (fair {fair_jain} vs fcfs {fcfs_jain})"
        );
        assert!(
            fair_span <= 1.02 * fcfs_span,
            "{label}: fair makespan {fair_span} exceeds 1.02 x fcfs {fcfs_span}"
        );
    }
}

/// At quick scale both backfilling policies finish the bursty, skewed
/// and colocate evaluation traces strictly sooner than plain FCFS.
#[test]
fn backfilling_beats_plain_fcfs_on_every_pinned_trace() {
    let s = suite();
    let makespan = |kind: &str, tier: &str| {
        let case = pins::case(&format!("backfill/{kind}/{tier}"));
        harness::run(&s, &case).runs[0].aggregate.makespan
    };
    for kind in ["bursty", "skewed", "colocate"] {
        let fcfs = makespan(kind, "fcfs");
        for tier in ["easy", "conservative"] {
            let got = makespan(kind, tier);
            assert!(
                got < fcfs,
                "{tier} must beat FCFS on {kind}: {got} vs {fcfs}"
            );
        }
    }
}

/// Restored just before a cycle that comes earlier than the next
/// estimated release, the parked row's door finds every tenant still at
/// quota: its first cycle lets no parked job through.
#[test]
fn quiet_door_restore_lets_no_parked_job_through() {
    let s = suite();
    let case = pins::case("serve/parked");
    let mut restored = harness::restored_at(&s, &case, Cut::QuietDoor(500));
    let parked = restored.deferred_jobs();
    assert!(parked > 0);
    assert!(matches!(restored.step(), ServiceStep::Cycle { .. }));
    assert!(
        restored.deferred_jobs() >= parked,
        "no release was due, yet a parked job went through"
    );
}

/// The at-scale contract: a 100 k-job bursty trace across 8 EASY nodes
/// at exact estimates runs the same way served and in batch, and loses
/// no job.
#[test]
fn pooled_engine_matches_serial_at_100k_jobs() {
    let trace = TraceConfig::new(TraceKind::Bursty, 100_000, 42).max_gpus(GPUS);
    let case = Case::new(Source::Trace(trace), 8, SelectorKind::Easy);
    let outcome = harness::run(&suite(), &case);
    assert_eq!(outcome.jobs.len(), 100_000);
}
