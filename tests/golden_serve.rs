//! The `serve/*` rows of the oracle's pin table
//! (`tests/common/pins.rs`): the online service's schedules, each held
//! on every run the harness gives it — uninterrupted, killed and
//! restored at its cuts, and replayed in batch.

mod common;
use common::pins;

use hrp::prelude::*;

fn check(pick: impl Fn(&str) -> bool) {
    let s = Suite::paper_suite(&GpuArch::a100());
    for name in pins::names(|name| name.starts_with("serve/") && pick(name)) {
        pins::check(&s, name, &pins::case(name));
    }
}

/// The six trace kinds served by 4 least-loaded nodes, killed at 48 of
/// 96 consumed jobs.
#[test]
fn served_schedules_match_the_golden_pin_uninterrupted_and_killed() {
    check(|name| !["serve/overload", "serve/parked"].contains(&name));
}

/// A scaled-down `serve_backfill_overload`: SLO rejection and quota
/// deferral under EASY backfilling, killed with jobs parked.
#[test]
fn overloaded_backfill_service_matches_the_golden_pin_every_way_it_can_be_run() {
    check(|name| name == "serve/overload");
}

/// Quota 1: 975 of 1 040 arrivals parked, the queue outliving the
/// source by 566 wake cycles; killed parked, at a quiet door and
/// mid-drain.
#[test]
fn deferral_heavy_service_matches_the_golden_pin_every_way_it_can_be_run() {
    check(|name| name == "serve/parked");
}
