//! The oracle's pin table: what fixed cases produce, and the cases.
//!
//! [`PINS`] holds the timeline digest, event count and makespan bits of
//! each row, plus the counters, Jain indices, admission digests and node
//! spreads a row fixes. Every run of a row's case is held to it
//! ([`check`]). Regenerate it only after an intentional schedule change,
//! with `cargo test --test oracle -- --ignored print_pins --nocapture`.

use super::harness::{check_pin, print_pin, Case, Cut, Source, GPUS};
use hrp::cluster::trace::{TraceConfig, TraceKind, EVAL_SEED_OFFSET};
use hrp::cluster::SelectorKind;
use hrp::prelude::*;
use hrp::serve::{AdmissionConfig, LoadShape};

/// Every pinned row: a name that picks its case ([`case`]), then the
/// `key=value` pairs every run of that case shows (`f64`s and digests as
/// hex bits; a counter holds for the served runs only). The `serve` rows
/// were captured from the first service; the overload row on the parent
/// of the commit that changed the planner's slot set (it drives both SLO
/// rejection and quota deferral), and the parked row — 975 of 1 040
/// arrivals parked, the queue outliving the source by 566 wake cycles —
/// on the parent of the commit that stopped the door walking its queue
/// every cycle. The `fair` rows come from the first admission tier (the
/// bursty fair row again once the karma half-life became the constant
/// 300 s); on the skewed trace the fair Jain is *below* the FCFS one,
/// which is why the fairness gate has its own geometry. The `backfill`
/// rows come from the first slot-tree planner (on 2-GPU nodes EASY and
/// conservative coincide; both are pinned so that a divergence in either
/// shows), the `cluster` rows from the first multi-node engine.
const PINS: &str = "
serve/uniform digest=2a49de31dd406b21 events=288 makespan=4092f477d33ce86d replanned=275 skipped=109
serve/bursty digest=2b1446077339c54c events=276 makespan=40936328936a75eb replanned=102 skipped=10
serve/skewed digest=9b7a91b6b7031812 events=284 makespan=4092a3c4aec522b7 replanned=188 skipped=4
serve/heavy-tail digest=f6ae0dc1bbb8a115 events=288 makespan=409242f9256f238a replanned=244 skipped=140
serve/colocate digest=f01a473c28b0d50e events=288 makespan=4091f711e76a1b0c replanned=269 skipped=115
serve/staggered digest=e1becc6c4fdc4fb2 events=214 makespan=407c7836a48df160 replanned=96 skipped=0
serve/overload digest=cbcacd1bff04f014 events=6342 makespan=40c7c976ab079cc6 admission=efacad397c5f6fae offered=2962 rejected=848 deferred=93 replanned=3388
serve/parked digest=b8ac00649155d4cb events=3120 makespan=40d0da43d5bdbace admission=30688a9140901ed4 offered=1040 deferred=975 cycles=302 wake_cycles=566 decisions=1040
fair/bursty/fcfs digest=41203f8280620c43 events=188 makespan=407bc20c8b592d8a jain=3fed788b7d078762 deferred=0
fair/bursty/fair digest=e49d6cb5d7e4908e events=196 makespan=40798ce075961a23 jain=3feeb62ce004996a deferred=13 admission=36511b6d838e7e0e
fair/skewed/fcfs digest=5d243353c06bbeb7 events=162 makespan=40859b9503a74a55 jain=3fefee0b0f7c46bd deferred=0
fair/skewed/fair digest=735adbbd85f0d6d4 events=166 makespan=408531e87e1b54ba jain=3fee8862701f3465 deferred=49 admission=7cd959068a8b80ba
backfill/bursty/easy digest=87dd7b3c45a487c2 events=288 makespan=407ebb7c5b2e35b9
backfill/bursty/conservative digest=87dd7b3c45a487c2 events=288 makespan=407ebb7c5b2e35b9
backfill/skewed/easy digest=d313173b2768c3fc events=288 makespan=408d2eaf8aef56e8
backfill/skewed/conservative digest=d313173b2768c3fc events=288 makespan=408d2eaf8aef56e8
backfill/colocate/easy digest=b0b665580b7e89aa events=288 makespan=407f1bd1ba19d4bc
backfill/colocate/conservative digest=b0b665580b7e89aa events=288 makespan=407f1bd1ba19d4bc
cluster/staggered/round-robin digest=6c98cadfc5735ef4 events=60 makespan=4067200000000000 avg_wait=4032355555555555 utilization=3fe09c2134762d87 placements=18 node_jobs=6,6,6,6
cluster/staggered/least-loaded digest=e6173422d4ac2489 events=58 makespan=4060c5d937c09cbe avg_wait=402ee00000000000 utilization=3fe65696b34f5871 placements=17 node_jobs=7,4,6,7
cluster/skewed-5000 digest=841a9d30d786e4b9 events=15000 makespan=40d43adacfb37d18 avg_wait=40781a3ec938cac8 placements=5000
";

/// The case a pin row's name stands for. The 96-job cases are killed
/// at 48 consumed jobs, the staggered ones at 12.
pub fn case(name: &str) -> Case {
    use SelectorKind::{Easy, LeastLoaded};
    use TraceKind::{Skewed, Staggered};
    let kind = |name| TraceKind::parse(name).expect("a trace kind");
    let selector = |name| SelectorKind::parse(name).expect("a selector");
    let trace = |kind, jobs, seed| TraceConfig::new(kind, jobs, seed).max_gpus(GPUS);
    let served = |trace, nodes, selector, cut| Case {
        cuts: vec![Cut::Consumed(cut)],
        ..Case::new(Source::Trace(trace), nodes, selector)
    };
    // A scaled-down `serve_backfill_overload`: a bursty load generator
    // offering about 1.4 × what 4 × 2 GPUs can run to six tenants, EASY
    // backfilling over estimates 30 % off, behind `admission`.
    let overloaded = |duration, admission, cuts| {
        let source = Source::Load {
            shape: LoadShape::Bursty,
            rate: 0.25,
            duration,
            seed: 42,
            users: 6,
        };
        Case {
            walltime_err: 0.3,
            admission: Some(admission),
            cuts,
            ..Case::new(source, 4, Easy)
        }
    };
    match name.split('/').collect::<Vec<_>>()[..] {
        ["serve", "overload"] => overloaded(
            12_000.0,
            AdmissionConfig::new().quota(8).slo(20.0),
            vec![Cut::Parked(1_500)],
        ),
        ["serve", "parked"] => overloaded(
            4_000.0,
            AdmissionConfig::new().quota(1),
            vec![Cut::Parked(200), Cut::QuietDoor(500), Cut::Draining(100)],
        ),
        ["serve", t] => {
            let trace = trace(kind(t), 96, 42).mean_gap(12.0).gang_share(0.25);
            served(trace, 4, LeastLoaded, 48)
        }
        // A contended four-tenant trace at the fair-share front door
        // (quota 8) or the FCFS one.
        ["fair", t, door] => Case {
            admission: (door == "fair").then(|| AdmissionConfig::new().quota(8)),
            ..served(
                trace(kind(t), 96, 42).mean_gap(3.0).users(4),
                4,
                LeastLoaded,
                48,
            )
        },
        // The quick-scale evaluation trace `repro cluster --quick`
        // schedules, over estimates 25 % off.
        ["backfill", t, tier] => {
            let trace = trace(kind(t), 96, 42 ^ EVAL_SEED_OFFSET).gang_share(0.25);
            Case {
                walltime_err: 0.25,
                ..served(trace, 4, selector(tier), 48)
            }
        }
        // The 24-job demo trace of `multinode::staggered_trace`.
        ["cluster", "staggered", tier] => served(trace(Staggered, 24, 0), 4, selector(tier), 12),
        ["cluster", "skewed-5000"] => Case::new(Source::Trace(trace(Skewed, 5000, 42)), 8, Easy),
        _ => panic!("no case is named '{name}'"),
    }
}

/// `(name, pinned pairs)` of every row.
fn rows() -> impl Iterator<Item = (&'static str, &'static str)> {
    PINS.lines().filter_map(|row| row.split_once(' '))
}

/// The names of the rows `pick` keeps.
pub fn names(pick: impl Fn(&str) -> bool) -> Vec<&'static str> {
    rows()
        .map(|(name, _)| name)
        .filter(|name| pick(name))
        .collect()
}

/// Run `case` every way it can be run and hold each run to the pinned
/// pairs of row `name`.
pub fn check(suite: &Suite, name: &str, case: &Case) {
    check_pin(suite, name, case, pinned(name));
}

/// Print every row with the values its case produces now.
pub fn print_all(suite: &Suite) {
    for name in names(|_| true) {
        print_pin(suite, name, &case(name), pinned(name));
    }
}

fn pinned(name: &str) -> &'static str {
    rows()
        .find(|(row, _)| *row == name)
        .expect("a pinned row")
        .1
}
