//! The backfilling planner's scheduling contract, as slices of the
//! oracle's drawn cases (`tests/common/harness.rs`): hand-shaped batch
//! traces under FCFS, EASY and conservative nodes, over estimates exact,
//! 30 % or 70 % off. On every run no job starts before it arrives, no
//! GPU is double-booked, every job is conserved, strict FCFS starts
//! jobs in arrival order, and the widths agree. (That backfilling never
//! delays a job on 2-GPU nodes is a property of `tests/oracle.rs`.)

mod common;
use common::harness::{Draw, Origin};

use hrp::cluster::SelectorKind;
use proptest::prelude::*;

const ERRS: [f64; 3] = [0.0, 0.3, 0.7];

proptest! {
    #[test]
    fn starts_respect_arrivals_and_gpus_are_never_double_booked(
        draw in Draw::strategy(),
        tier in 0usize..3,
        err in 0usize..3,
    ) {
        use SelectorKind::{Conservative, Easy, Fcfs};
        let selector = [Fcfs, Easy, Conservative][tier];
        Draw { origin: Origin::Shape, selector, walltime_err: ERRS[err], ..draw }.run();
    }

    #[test]
    fn strict_fcfs_dispatches_in_arrival_order_per_node(
        draw in Draw::strategy(),
        err in 0usize..3,
    ) {
        let selector = SelectorKind::Fcfs;
        Draw { origin: Origin::Shape, selector, walltime_err: ERRS[err], ..draw }.run();
    }

    #[test]
    fn timelines_are_invariant_to_threads_chunks_and_fanout(
        draw in Draw::strategy(),
        conservative in any::<bool>(),
        err in 0usize..3,
    ) {
        let selector = if conservative { SelectorKind::Conservative } else { SelectorKind::Easy };
        Draw { origin: Origin::Shape, selector, walltime_err: ERRS[err], ..draw }.run();
    }
}
