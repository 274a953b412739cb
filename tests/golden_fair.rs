//! The `fair/*` rows of the oracle's pin table
//! (`tests/common/pins.rs`): a contended four-tenant trace behind the
//! fair-share front door (quota 8) and the FCFS one. Digest, makespan,
//! Jain's index, deferrals and the admission digest hold on the
//! uninterrupted service and its batch replays, and again on the
//! service killed at 48 of 96 consumed jobs and restored.

mod common;
use common::pins;

use hrp::prelude::*;

fn check(killed: bool) {
    let s = Suite::paper_suite(&GpuArch::a100());
    for name in pins::names(|name| name.starts_with("fair/")) {
        let mut case = pins::case(name);
        if !killed {
            case.cuts.clear();
        }
        pins::check(&s, name, &case);
    }
}

#[test]
fn fair_and_fcfs_front_doors_match_their_golden_pins() {
    check(false);
}

#[test]
fn killed_and_restored_fair_runs_reproduce_the_pins() {
    check(true);
}
