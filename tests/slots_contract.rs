//! Property tests (proptest) for the slot tree
//! (`hrp_cluster::slots::TreeSlotSet`) — the free-capacity profile
//! every backfilling decision plans against:
//!
//! * claiming and then releasing any feasible set of windows restores
//!   the free set exactly (one full-capacity segment, structural
//!   equality with a fresh tree);
//! * adjacent segments with equal capacity always coalesce: the
//!   segment count equals the number of distinct steps of an
//!   independent pointwise oracle, never the number of operations;
//! * capacity never goes negative and never exceeds the total, at
//!   every boundary the oracle knows about;
//! * `earliest_fit` returns exactly what a naive scan over the
//!   oracle's breakpoints finds.
//!
//! The oracle is deliberately primitive: it stores the raw operation
//! list and evaluates capacity at a point by folding the operations in
//! order — no interval tree, no coalescing, nothing shared with the
//! implementation under test.

use hrp::cluster::slots::TreeSlotSet;
use proptest::prelude::*;

/// One recorded operation, for pointwise replay.
#[derive(Debug, Clone, Copy)]
enum Op {
    Claim { start: f64, end: f64, gpus: usize },
    Release { start: f64, end: f64, gpus: usize },
}

/// Capacity at instant `t` after folding `ops` in order — the
/// independent oracle for [`TreeSlotSet::capacity_at`].
fn oracle_capacity(total: usize, ops: &[Op], t: f64) -> usize {
    let mut cap = total;
    for op in ops {
        match *op {
            Op::Claim { start, end, gpus } if t >= start && t < end => {
                assert!(cap >= gpus, "oracle underflow: op list was infeasible");
                cap -= gpus;
            }
            Op::Release { start, end, gpus } if t >= start && t < end => {
                assert!(
                    cap + gpus <= total,
                    "oracle overflow: op list over-released"
                );
                cap += gpus;
            }
            _ => {}
        }
    }
    cap
}

/// Every boundary any operation introduced, sorted and deduplicated.
fn breakpoints(ops: &[Op]) -> Vec<f64> {
    let mut ts: Vec<f64> = ops
        .iter()
        .flat_map(|op| match *op {
            Op::Claim { start, end, .. } | Op::Release { start, end, .. } => [start, end],
        })
        .collect();
    ts.sort_by(f64::total_cmp);
    ts.dedup_by(|a, b| a.total_cmp(b).is_eq());
    ts
}

/// Minimum oracle capacity over `[start, end)`: the step function only
/// changes at breakpoints, so sampling `start` plus every breakpoint
/// inside the window is exact.
fn oracle_min_capacity(total: usize, ops: &[Op], start: f64, end: f64) -> usize {
    let mut min = oracle_capacity(total, ops, start);
    for &t in &breakpoints(ops) {
        if t > start && t < end {
            min = min.min(oracle_capacity(total, ops, t));
        }
    }
    min
}

/// Naive earliest fit: walk candidate starts (the query time plus every
/// breakpoint after it) in order and return the first whose whole
/// window clears `gpus`.
fn oracle_earliest_fit(total: usize, ops: &[Op], after: f64, gpus: usize, duration: f64) -> f64 {
    let mut candidates = vec![after];
    candidates.extend(breakpoints(ops).into_iter().filter(|&t| t > after));
    for c in candidates {
        if oracle_min_capacity(total, ops, c, c + duration) >= gpus {
            return c;
        }
    }
    unreachable!("the window past the last breakpoint always fits");
}

/// Distinct steps of the oracle's profile: the `-inf` head segment plus
/// one segment per breakpoint where the capacity actually changes —
/// exactly what a coalesced [`TreeSlotSet::n_segments`] must report.
fn oracle_n_segments(total: usize, ops: &[Op]) -> usize {
    let bps = breakpoints(ops);
    let mut prev = total; // capacity before the first breakpoint
    let mut segments = 1;
    for &t in &bps {
        let cap = oracle_capacity(total, ops, t);
        if cap != prev {
            segments += 1;
            prev = cap;
        }
    }
    segments
}

/// Raw op shapes: quarter-second grid starts (duplicates exercise
/// shared boundaries), short durations, widths up to the total, and an
/// op selector (0 = claim, 1 = release).
fn ops_strategy() -> impl Strategy<Value = Vec<(u32, u32, usize, u32)>> {
    proptest::collection::vec((0u32..120, 1u32..40, 0usize..=4, 0u32..2), 1..=12)
}

/// Apply the generated shapes, skipping any claim or release the
/// oracle proves infeasible (the tree would rightly panic on those —
/// covered by unit tests). Returns the ops that were actually applied.
fn apply(slots: &mut TreeSlotSet, total: usize, shapes: &[(u32, u32, usize, u32)]) -> Vec<Op> {
    let mut ops: Vec<Op> = Vec::new();
    for &(start_q, dur_q, gpus, which) in shapes {
        let (start, end) = (f64::from(start_q) * 0.25, f64::from(start_q + dur_q) * 0.25);
        let gpus = gpus.min(total);
        if gpus == 0 {
            continue;
        }
        match which {
            0 => {
                if oracle_min_capacity(total, &ops, start, end) >= gpus {
                    slots.claim(start, end, gpus);
                    ops.push(Op::Claim { start, end, gpus });
                }
            }
            _ => {
                // Feasible iff no instant of the window would exceed
                // the total: max capacity + gpus <= total.
                let mut max = oracle_capacity(total, &ops, start);
                for &t in &breakpoints(&ops) {
                    if t > start && t < end {
                        max = max.max(oracle_capacity(total, &ops, t));
                    }
                }
                if max + gpus <= total {
                    slots.release(start, end, gpus);
                    ops.push(Op::Release { start, end, gpus });
                }
            }
        }
    }
    ops
}

proptest! {
    #[test]
    fn capacity_matches_the_pointwise_oracle_and_stays_in_range(
        total in 1usize..=4,
        shapes in ops_strategy(),
    ) {
        let mut slots = TreeSlotSet::new(total);
        let ops = apply(&mut slots, total, &shapes);
        // Sample every breakpoint, midpoints between them, and points
        // outside the touched range.
        let bps = breakpoints(&ops);
        let mut samples = vec![-5.0, 1e6];
        for (i, &t) in bps.iter().enumerate() {
            samples.push(t);
            if let Some(&next) = bps.get(i + 1) {
                samples.push((t + next) / 2.0);
            }
        }
        for t in samples {
            let got = slots.capacity_at(t);
            prop_assert_eq!(got, oracle_capacity(total, &ops, t), "capacity at {} drifted", t);
            prop_assert!(got <= total, "capacity above the cluster total");
        }
    }

    #[test]
    fn adjacent_equal_segments_always_coalesce(
        total in 1usize..=4,
        shapes in ops_strategy(),
    ) {
        let mut slots = TreeSlotSet::new(total);
        let ops = apply(&mut slots, total, &shapes);
        prop_assert_eq!(
            slots.n_segments(),
            oracle_n_segments(total, &ops),
            "segment count must equal the number of distinct capacity steps"
        );
    }

    #[test]
    fn claim_release_round_trip_restores_the_free_set(
        total in 1usize..=4,
        shapes in proptest::collection::vec((0u32..120, 1u32..40, 1usize..=4), 1..=10),
        reverse in any::<bool>(),
    ) {
        let fresh = TreeSlotSet::new(total);
        let mut slots = fresh.clone();
        let mut claimed: Vec<(f64, f64, usize)> = Vec::new();
        let mut ops: Vec<Op> = Vec::new();
        for &(start_q, dur_q, gpus) in &shapes {
            let (start, end) = (f64::from(start_q) * 0.25, f64::from(start_q + dur_q) * 0.25);
            let gpus = gpus.min(total);
            if oracle_min_capacity(total, &ops, start, end) >= gpus {
                slots.claim(start, end, gpus);
                claimed.push((start, end, gpus));
                ops.push(Op::Claim { start, end, gpus });
            }
        }
        if reverse {
            claimed.reverse();
        }
        for (start, end, gpus) in claimed {
            slots.release(start, end, gpus);
        }
        prop_assert_eq!(slots.n_segments(), 1, "round trip must coalesce to one segment");
        prop_assert_eq!(&slots, &fresh, "round trip must restore the fresh tree exactly");
    }

    #[test]
    fn earliest_fit_matches_the_naive_scan(
        total in 1usize..=4,
        shapes in ops_strategy(),
        after_q in 0u32..140,
        gpus in 1usize..=4,
        dur_q in 1u32..40,
    ) {
        let mut slots = TreeSlotSet::new(total);
        let ops = apply(&mut slots, total, &shapes);
        let gpus = gpus.min(total);
        let (after, duration) = (f64::from(after_q) * 0.25, f64::from(dur_q) * 0.25);
        let got = slots.earliest_fit(after, gpus, duration);
        let want = oracle_earliest_fit(total, &ops, after, gpus, duration);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "earliest_fit({}, {}, {}): got {}, oracle {}",
            after, gpus, duration, got, want
        );
        // And the returned window really is free.
        prop_assert!(oracle_min_capacity(total, &ops, got, got + duration) >= gpus);
    }
}
