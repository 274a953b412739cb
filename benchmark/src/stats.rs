//! Order statistics and the fastest-parts estimator behind the
//! end-to-end timing metrics.
//!
//! The host this benchmark runs on is a small shared VM whose speed
//! moves with the load of the host's other tenants: mostly between two
//! states that each last one to ten seconds and differ by about 1.45×,
//! sometimes through minutes of intermediate slowdown (the time series
//! is in `README.md`). A mean or a median over a 20 s window follows
//! whichever state happened to dominate the window, so two runs of
//! identical code disagree by far more than any bound worth enforcing.
//! The window therefore repeats a few inputs, and [`fastest_parts`]
//! takes every part of the repeated work at its fastest repetition: it
//! reports how fast the code runs while the host is quiet, which is
//! the quantity a change to the code moves.

use std::collections::BTreeMap;

/// The 1-based nearest rank `ceil(q·n)`, clamped into `1..=n`.
fn rank_of(q: f64, n: usize) -> usize {
    let scaled = q * n as f64;
    let mut rank = scaled.ceil();
    // q·n that is integral in the reals can land one ulp above it in
    // f64; ceil would then pick one rank too high.
    if rank - scaled > 1.0 - 1e-9 {
        rank -= 1.0;
    }
    (rank as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(q·n)`, clamped into `1..=n`. `None` on an empty sample.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_of(q, sorted.len()) - 1])
}

/// Which order statistic the tail metric reads, for a sample of `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailRank {
    /// 1-based rank into the ascending-sorted sample.
    pub rank: usize,
    /// The percentile that rank stands for (`rank / n · 100`).
    pub percentile: f64,
}

/// The tail rule: p99 once 1 000 operations were timed, otherwise the
/// highest order statistic that still has ten samples beyond it.
/// `None` below eleven samples, where no such statistic exists.
#[must_use]
pub fn tail_rank(n: usize) -> Option<TailRank> {
    const BEYOND: usize = 10;
    let rank = if n >= 1000 {
        rank_of(0.99, n)
    } else if n > BEYOND {
        n - BEYOND
    } else {
        return None;
    };
    Some(TailRank {
        rank,
        percentile: rank as f64 / n as f64 * 100.0,
    })
}

/// First quartile, median and third quartile of a sample, by the
/// exclusive method (`statistics.quantiles(values, n=4)` in Python),
/// so `compare` judges spreads the way the driver does. Needs two
/// values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // CPython's exclusive method, term for term.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some([at(1), at(2), at(3)])
}

/// One measured slice of the window: a pass over one input.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Which input the pass ran over; passes over one input repeat
    /// the same work.
    pub input: usize,
    /// Wall time of the whole slice, everything the pass does included.
    pub wall_s: f64,
    /// Work units the slice completed (the throughput numerator).
    pub units: u64,
    /// Duration of every timed operation in the slice, microseconds.
    pub ops_us: Vec<f64>,
}

/// The three timing metrics, with what they were computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Work units per second of the fastest-parts time (see
    /// [`fastest_parts`]).
    pub throughput_per_s: f64,
    /// Median over the distinct operations' fastest repetitions.
    pub latency_p50_us: f64,
    /// Tail operation time (see [`tail_rank`]) of the tail sample.
    pub latency_tail_us: f64,
    /// The tail as a multiple of the tail sample's own median.
    pub latency_tail_ratio: f64,
    /// The percentile `latency_tail_us` stands for.
    pub tail_percentile: f64,
    /// Size of the tail sample.
    pub samples: usize,
    /// Slices measured.
    pub slices: usize,
    /// Distinct inputs among them.
    pub inputs: usize,
}

/// Fewest distinct operations for which the latencies are computed
/// from each operation's fastest repetition (below it, from the raw
/// operations of the fastest quarter of passes): enough for a p90.
pub const MIN_DISTINCT_OPS: usize = 100;

/// Compute the timing metrics of a window from the fastest repetition
/// of every part of its work.
///
/// A pass over input `i` does the same work every time: the same
/// operations in the same order, and the same rest (building the
/// service, checkpointing, draining — whatever the pass does outside
/// its timed operations). Load from other tenants only adds to a
/// part's time, so each part is taken at its fastest repetition:
///
/// * operation `j` of input `i` costs `min` over the passes over `i`
///   of its timed duration;
/// * the rest of a pass over `i` costs `min` over the passes of
///   `wall − Σ operations`;
/// * throughput is the units of one pass over every input ÷ the sum
///   of these parts; median and tail are taken over the operations'
///   costs, and the tail is also given as a multiple of the median.
///
/// A workload with fewer than [`MIN_DISTINCT_OPS`] distinct operations
/// (the batch workload has one per input) has too few for a tail; its
/// tail sample is the operations, as timed, of the fastest quarter of
/// the passes over each input, and the tail ratio is taken within
/// that sample.
///
/// # Errors
/// Fails when there is nothing to measure — no slice, no unit, too few
/// operations for the tail rule — and when two passes over one input
/// differ in units or in the number of operations, which repetitions
/// of deterministic work cannot.
pub fn fastest_parts(slices: &[Slice]) -> Result<Timing, String> {
    if slices.is_empty() {
        return Err("no slice was measured".into());
    }
    if slices.iter().any(|s| s.units == 0 || s.wall_s <= 0.0) {
        return Err("a slice completed no work".into());
    }
    let mut by_input: BTreeMap<usize, Vec<&Slice>> = BTreeMap::new();
    for slice in slices {
        by_input.entry(slice.input).or_default().push(slice);
    }
    let (mut units, mut best_s) = (0u64, 0.0f64);
    let mut fastest: Vec<f64> = Vec::new();
    let mut quiet_raw: Vec<f64> = Vec::new();
    for (input, passes) in &mut by_input {
        let first = passes[0];
        let mut ops = first.ops_us.clone();
        let mut rest_s = f64::INFINITY;
        for pass in passes.iter() {
            if pass.ops_us.len() != ops.len() || pass.units != first.units {
                return Err(format!(
                    "two passes over input {input} differ: {} and {} operations, {} and {} units",
                    ops.len(),
                    pass.ops_us.len(),
                    first.units,
                    pass.units
                ));
            }
            for (best, op) in ops.iter_mut().zip(&pass.ops_us) {
                *best = best.min(*op);
            }
            let timed_s = pass.ops_us.iter().sum::<f64>() / 1e6;
            rest_s = rest_s.min((pass.wall_s - timed_s).max(0.0));
        }
        units += first.units;
        best_s += ops.iter().sum::<f64>() / 1e6 + rest_s;
        fastest.extend(ops);
        passes.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let quarter = &passes[..passes.len().div_ceil(4)];
        quiet_raw.extend(quarter.iter().flat_map(|s| s.ops_us.iter().copied()));
    }
    fastest.sort_by(f64::total_cmp);
    let latency_p50_us = nearest_rank(&fastest, 0.5).ok_or("no operation was timed")?;
    let mut ops = if fastest.len() >= MIN_DISTINCT_OPS {
        fastest
    } else {
        quiet_raw
    };
    ops.sort_by(f64::total_cmp);
    let tail = tail_rank(ops.len()).ok_or_else(|| {
        format!(
            "{} timed operations, the tail needs 11: lengthen --seconds",
            ops.len()
        )
    })?;
    let latency_tail_us = ops[tail.rank - 1];
    Ok(Timing {
        throughput_per_s: units as f64 / best_s,
        latency_p50_us,
        latency_tail_us,
        latency_tail_ratio: latency_tail_us / nearest_rank(&ops, 0.5).expect("ops is not empty"),
        tail_percentile: tail.percentile,
        samples: ops.len(),
        slices: slices.len(),
        inputs: by_input.len(),
    })
}

/// Median of a sample (mean of the middle two for an even count).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.5), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        let ten = ramp(10);
        assert_eq!(nearest_rank(&ten, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&ten, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&ten, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&ten, 0.0), Some(1.0));
        // 0.07 · 100 is 7.000000000000001 in f64; rank 7, not 8.
        assert_eq!(nearest_rank(&ramp(100), 0.07), Some(7.0));
        assert_eq!(nearest_rank(&ramp(160), 0.5), Some(80.0));
        assert_eq!(nearest_rank(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_until_p99_applies() {
        assert_eq!(tail_rank(0), None);
        assert_eq!(tail_rank(1), None);
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(11).map(|t| t.rank), Some(1));
        let t = tail_rank(160).expect("160 samples have a tail");
        assert_eq!(t.rank, 150);
        assert!((t.percentile - 93.75).abs() < 1e-12);
        // 999 samples still use the ten-beyond rule ...
        assert_eq!(tail_rank(999).map(|t| t.rank), Some(989));
        // ... 1 000 switch to p99, which also leaves ten beyond.
        let t = tail_rank(1000).expect("1000 samples have a tail");
        assert_eq!(t.rank, 990);
        assert!((t.percentile - 99.0).abs() < 1e-12);
        assert_eq!(tail_rank(100_000).map(|t| t.rank), Some(99_000));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        assert_eq!(quartiles(&[1.0]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    /// A pass of `ops` operations of `op_us` each plus `rest_s` of
    /// untimed work.
    fn slice(input: usize, rest_s: f64, units: u64, op_us: f64, ops: usize) -> Slice {
        Slice {
            input,
            wall_s: rest_s + op_us * ops as f64 / 1e6,
            units,
            ops_us: vec![op_us; ops],
        }
    }

    #[test]
    fn throughput_assembles_the_fastest_repetition_of_every_part() {
        // 120 operations, three passes; a different third of them is
        // slowed tenfold in every pass and the rest differs too, so no
        // pass is clean, but every part has a clean repetition.
        let pass = |slow: usize, rest_s: f64| {
            let ops_us: Vec<f64> = (0..120)
                .map(|j| (1.0 + j as f64) * if j % 3 == slow { 10.0 } else { 1.0 })
                .collect();
            Slice {
                input: 0,
                wall_s: rest_s + ops_us.iter().sum::<f64>() / 1e6,
                units: 120,
                ops_us,
            }
        };
        let passes = [pass(0, 0.5), pass(1, 0.002), pass(2, 0.3)];
        let t = fastest_parts(&passes).expect("measurable");
        assert_eq!((t.samples, t.slices, t.inputs), (120, 3, 1));
        assert_eq!(t.latency_p50_us, 60.0);
        assert_eq!(t.latency_tail_us, 110.0);
        assert!((t.latency_tail_ratio - 110.0 / 60.0).abs() < 1e-12);
        // Σ 1..=120 µs of operations plus the 2 ms rest.
        let best_s = 7260.0 / 1e6 + 0.002;
        assert!((t.throughput_per_s - 120.0 / best_s).abs() < 1e-6);
    }

    #[test]
    fn every_input_counts_once_whatever_its_size() {
        // Input 1 is ten times the work of input 0; five passes each
        // under rising load.
        let mut slices = Vec::new();
        for rep in 0..5 {
            let load = 1.0 + 0.1 * f64::from(rep);
            slices.push(slice(0, 0.1 * load, 10, 1.0 * load, 6));
            slices.push(slice(1, 1.0 * load, 100, 2.0 * load, 6));
        }
        let t = fastest_parts(&slices).expect("measurable");
        assert_eq!((t.slices, t.inputs), (10, 2));
        let best_s = 0.1 + 6.0e-6 + 1.0 + 12.0e-6;
        assert!((t.throughput_per_s - 110.0 / best_s).abs() < 1e-6);
        // Twelve distinct operations are too few for a tail: the raw
        // operations of the fastest ceil(5 / 4) = 2 passes over each
        // input stand in (loads 1.0 and 1.1).
        assert_eq!(t.samples, 24);
        assert_eq!(t.latency_tail_us, 2.0);
        assert!((t.latency_tail_ratio - 2.0 / 1.1).abs() < 1e-12);
        // The median is that of the twelve fastest repetitions.
        assert_eq!(t.latency_p50_us, 1.0);
    }

    #[test]
    fn passes_that_differ_are_not_repetitions() {
        let mut short = slice(0, 0.1, 10, 1.0, 20);
        short.ops_us.pop();
        assert!(fastest_parts(&[slice(0, 0.1, 10, 1.0, 20), short]).is_err());
        let other_units = slice(0, 0.1, 11, 1.0, 20);
        assert!(fastest_parts(&[slice(0, 0.1, 10, 1.0, 20), other_units]).is_err());
    }

    #[test]
    fn nothing_to_measure_is_an_error() {
        assert!(fastest_parts(&[]).is_err());
        assert!(fastest_parts(&[slice(0, 1.0, 0, 1.0, 20)]).is_err());
        assert!(fastest_parts(&[slice(0, 1.0, 5, 1.0, 10)]).is_err());
    }
}
