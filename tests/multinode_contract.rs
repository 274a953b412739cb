//! The multi-node engine's determinism contract, as slices of the
//! oracle's drawn cases (`tests/common/harness.rs`): hand-shaped batch
//! traces whose merged timeline is the same under every selector's
//! batch run, whose jobs are conserved, and which hold at one node too.

mod common;
use common::harness::{Draw, Origin};

use hrp::cluster::SelectorKind;
use proptest::prelude::*;

fn placement(least_loaded: bool) -> SelectorKind {
    if least_loaded {
        SelectorKind::LeastLoaded
    } else {
        SelectorKind::RoundRobin
    }
}

proptest! {
    #[test]
    fn merged_timeline_is_invariant_to_thread_count(
        draw in Draw::strategy(),
        least_loaded in any::<bool>(),
    ) {
        let selector = placement(least_loaded);
        Draw { origin: Origin::Shape, selector, ..draw }.run();
    }

    #[test]
    fn one_node_cluster_is_event_for_event_the_single_node_simulator(
        draw in Draw::strategy(),
        least_loaded in any::<bool>(),
    ) {
        let selector = placement(least_loaded);
        let outcome = Draw { origin: Origin::Shape, nodes: 1, selector, ..draw }.run();
        prop_assert!(outcome.runs.iter().all(|run| run.per_node.len() == 1));
    }

    #[test]
    fn fanout_modes_never_move_an_event(draw in Draw::strategy()) {
        let selector = SelectorKind::LeastLoaded;
        Draw { origin: Origin::Shape, selector, ..draw }.run();
    }

    #[test]
    fn completed_jobs_are_conserved_for_any_selector(draw in Draw::strategy()) {
        Draw { origin: Origin::Shape, ..draw }.run();
    }
}
