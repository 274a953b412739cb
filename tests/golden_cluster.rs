//! The `cluster/*` rows of the oracle's pin table
//! (`tests/common/pins.rs`): the multi-node engine's schedules, each
//! held in batch and served, plus the one-node case behind
//! `repro --nodes 1`.

mod common;
use common::harness::{self, Case};
use common::pins;

use hrp::prelude::*;

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

/// The 24-job staggered demo trace on 4 round-robin and least-loaded
/// nodes: digest, events, makespan, wait, utilization, placements and
/// node spread.
#[test]
fn four_node_schedules_match_the_golden_pin_for_any_thread_count() {
    let s = suite();
    for name in pins::names(|name| name.starts_with("cluster/staggered/")) {
        pins::check(&s, name, &pins::case(name));
    }
}

/// 5 000 skewed jobs on 8 EASY nodes, batch and served.
#[test]
fn large_skewed_trace_matches_the_golden_pin_in_both_engines() {
    let name = "cluster/skewed-5000";
    pins::check(&suite(), name, &pins::case(name));
}

/// The acceptance case behind `repro --nodes 1`: at one node the
/// staggered schedule is the same, event for event and bit for bit,
/// served, killed and restored, and in batch.
#[test]
fn one_node_round_robin_reproduces_the_single_node_schedule() {
    let one_node = Case {
        nodes: 1,
        ..pins::case("cluster/staggered/round-robin")
    };
    let outcome = harness::run(&suite(), &one_node);
    assert!(outcome.runs.iter().any(|run| run.how == "batch"));
    assert!(outcome.runs.iter().any(|run| run.how.ends_with("restored")));
}
