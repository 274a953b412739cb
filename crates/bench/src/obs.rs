//! The observational studies of paper §III (Figs. 3–5).
//!
//! These run directly on the simulator — no learning involved — and
//! establish the three mechanisms the scheduler exploits: mix-dependent
//! optimal MPS splits (Fig. 3), the benefit of bandwidth isolation
//! (Fig. 4), and the superiority of hierarchical partitioning for larger
//! groups (Fig. 5).

use hrp_core::actions::{mig_mps_space, mps_only_space};
use hrp_core::problem::{evaluate_group, evaluate_group_best_assignment};
use hrp_gpusim::PartitionScheme;
use hrp_workloads::{JobQueue, Suite};

/// One Fig. 3 curve: throughput vs the first app's compute share.
#[derive(Debug, Clone)]
pub struct SplitSweep {
    /// Mix label, e.g. `"bt_solver_C + sp_solver_C"`.
    pub mix: String,
    /// `(share_of_first_app, relative_throughput)` points.
    pub points: Vec<(f64, f64)>,
    /// Share of the first app at the best observed throughput.
    pub best_share: f64,
}

/// Fig. 3: co-run throughput as a function of the MPS compute split for
/// three characteristic mixes. The optimum moves with the mix: skewed
/// for complementary CI+MI pairs (the compute-hungry app takes the big
/// share); for a symmetric US+US pair the curve plateaus around balance
/// and falls off at the extremes.
#[must_use]
pub fn fig3_mps_sweep(suite: &Suite) -> Vec<SplitSweep> {
    let mixes: [(&str, &str); 3] = [
        ("bt_solver_C", "sp_solver_C"),
        ("hotspot3D", "lud_A"),
        ("kmeans", "dwt2d"),
    ];
    mixes
        .iter()
        .map(|(a, b)| {
            let queue = JobQueue::from_names("fig3", &[a, b], suite);
            let solo = queue.total_solo_time(suite);
            let mut points = Vec::new();
            let mut best = (0.0, f64::NEG_INFINITY);
            for i in 1..=9 {
                let share = f64::from(i) / 10.0;
                let scheme = PartitionScheme::mps_only(vec![share, 1.0 - share]);
                let g = evaluate_group(suite, &queue, &[0, 1], &scheme, &[0, 1]);
                let tp = solo / g.corun_time;
                if tp > best.1 {
                    best = (share, tp);
                }
                points.push((share, tp));
            }
            SplitSweep {
                mix: format!("{a} + {b}"),
                points,
                best_share: best.0,
            }
        })
        .collect()
}

/// One Fig. 4 bar pair: shared vs private memory at equal compute.
#[derive(Debug, Clone)]
pub struct BandwidthComparison {
    /// Mix label.
    pub mix: String,
    /// Which app is on the 3g side.
    pub orientation: String,
    /// Relative throughput with the shared-memory option.
    pub shared: f64,
    /// Relative throughput with the private-memory option.
    pub private: f64,
}

/// Fig. 4: bandwidth partitioning benefit. The same 3g/4g compute split
/// is evaluated with memory shared (`[{3g}+{4g},1m]`) and private
/// (`[{3g},.5m]+[{4g},.5m]`); for interference-sensitive mixes the
/// private option wins.
#[must_use]
pub fn fig4_bandwidth(suite: &Suite) -> Vec<BandwidthComparison> {
    // Duration-matched MI pairs: with mismatched durations the *shared*
    // option profits from the survivor grabbing the whole bandwidth pool
    // after its partner leaves (MIG partitions are static), which masks
    // the interference effect this figure isolates.
    let mixes: [(&str, &str); 2] = [("lud_C", "sp_solver_B"), ("lud_B", "sp_solver_A")];
    let mut out = Vec::new();
    for (a, b) in mixes {
        let queue = JobQueue::from_names("fig4", &[a, b], suite);
        let solo = queue.total_solo_time(suite);
        for (first_on_3g, label) in [(true, a), (false, b)] {
            let assignment: Vec<usize> = if first_on_3g { vec![0, 1] } else { vec![1, 0] };
            let shared = evaluate_group(
                suite,
                &queue,
                &[0, 1],
                &PartitionScheme::mig_shared_3_4(),
                &assignment,
            );
            let private = evaluate_group(
                suite,
                &queue,
                &[0, 1],
                &PartitionScheme::mig_private_3_4(),
                &assignment,
            );
            out.push(BandwidthComparison {
                mix: format!("{a} + {b}"),
                orientation: format!("{label} on 3g"),
                shared: solo / shared.corun_time,
                private: solo / private.corun_time,
            });
        }
    }
    out
}

/// One Fig. 5 bar: a partitioning option's best achievable throughput.
#[derive(Debug, Clone)]
pub struct VariantComparison {
    /// Option label (paper Fig. 2 numbering).
    pub option: String,
    /// Relative throughput (vs time sharing) with optimal pairing/config.
    pub throughput: f64,
    /// The winning configuration, in the paper's notation.
    pub detail: String,
}

/// The four-program mix used by our Fig. 5 reproduction: one CI, one MI
/// and two US programs — the shape for which four-way co-location pays
/// (compute-hungry CI programs would rather run in sequential pairs).
pub const FIG5_MIX: [&str; 4] = ["bt_solver_A", "sp_solver_B", "qs_Coral_P1", "qs_Coral_P2"];

/// Fig. 5: compare the four partitioning options of Fig. 2 on a
/// four-program mix. Options 1–3 pair the programs optimally (two
/// sequential co-runs of two); option 4 co-locates all four at once
/// under the best hierarchical MIG+MPS setup.
#[must_use]
pub fn fig5_variants(suite: &Suite) -> Vec<VariantComparison> {
    let queue = JobQueue::from_names("fig5", &FIG5_MIX, suite);
    let solo = queue.total_solo_time(suite);

    // The three 2+2 pairings of four jobs.
    let pairings: [([usize; 2], [usize; 2]); 3] =
        [([0, 1], [2, 3]), ([0, 2], [1, 3]), ([0, 3], [1, 2])];

    let best_paired = |schemes: &[PartitionScheme]| -> (f64, String) {
        let mut best = (f64::INFINITY, String::new());
        for (p1, p2) in &pairings {
            for s1 in schemes {
                let g1 = evaluate_group_best_assignment(suite, &queue, p1, s1);
                for s2 in schemes {
                    let g2 = evaluate_group_best_assignment(suite, &queue, p2, s2);
                    let total = g1.corun_time + g2.corun_time;
                    if total < best.0 {
                        best = (total, format!("{s1} | {s2}"));
                    }
                }
            }
        }
        (solo / best.0, best.1)
    };

    let mut out = Vec::new();
    // Option 1: MPS only.
    let (tp, detail) = best_paired(&mps_only_space(2));
    out.push(VariantComparison {
        option: "1: MPS only (shared mem)".into(),
        throughput: tp,
        detail,
    });
    // Option 2: MIG shared memory.
    let (tp, detail) = best_paired(&[PartitionScheme::mig_shared_3_4()]);
    out.push(VariantComparison {
        option: "2: MIG only (shared mem)".into(),
        throughput: tp,
        detail,
    });
    // Option 3: MIG private memory.
    let (tp, detail) = best_paired(&[PartitionScheme::mig_private_3_4()]);
    out.push(VariantComparison {
        option: "3: MIG only (private mem)".into(),
        throughput: tp,
        detail,
    });
    // Option 4: full hierarchy, all four at once.
    let mut best = (f64::INFINITY, String::new());
    for scheme in mig_mps_space(4).iter().filter(|s| s.uses_mig()) {
        let g = evaluate_group_best_assignment(suite, &queue, &[0, 1, 2, 3], scheme);
        if g.corun_time < best.0 {
            best = (g.corun_time, scheme.to_string());
        }
    }
    out.push(VariantComparison {
        option: "4: MIG+MPS hierarchical".into(),
        throughput: solo / best.0,
        detail: best.1,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    #[test]
    fn fig3_optimal_split_depends_on_mix() {
        let sweeps = fig3_mps_sweep(&suite());
        assert_eq!(sweeps.len(), 3);
        for s in &sweeps {
            assert_eq!(s.points.len(), 9);
            // The sweep must contain a co-run better than time sharing.
            assert!(
                s.points.iter().any(|(_, tp)| *tp > 1.0),
                "{}: no beneficial split",
                s.mix
            );
        }
        // The CI+MI mixes peak at a skewed split (CI gets more compute).
        assert!(
            sweeps[0].best_share >= 0.6,
            "CI+MI should skew: {}",
            sweeps[0].best_share
        );
        assert!(sweeps[1].best_share >= 0.6);
        // The symmetric US+US mix: balance is (essentially) optimal and
        // the extremes are clearly worse.
        let us = &sweeps[2];
        let max = us.points.iter().map(|(_, t)| *t).fold(0.0, f64::max);
        let at = |x: f64| {
            us.points
                .iter()
                .find(|(s, _)| (*s - x).abs() < 1e-9)
                .map(|(_, t)| *t)
                .unwrap()
        };
        assert!(
            at(0.5) >= 0.98 * max,
            "balanced near-optimal: {} vs {max}",
            at(0.5)
        );
        assert!(
            at(0.1) < 0.95 * max && at(0.9) < max - 1e-6,
            "extremes fall off: {} / {} vs {max}",
            at(0.1),
            at(0.9)
        );
    }

    #[test]
    fn fig4_private_beats_shared_for_mi_pairs() {
        for c in fig4_bandwidth(&suite()) {
            assert!(
                c.private > c.shared,
                "{} ({}): private {} ≤ shared {}",
                c.mix,
                c.orientation,
                c.private,
                c.shared
            );
        }
    }

    #[test]
    fn fig5_hierarchy_wins() {
        let variants = fig5_variants(&suite());
        assert_eq!(variants.len(), 4);
        let hier = variants[3].throughput;
        for v in &variants[..3] {
            assert!(
                hier >= v.throughput - 1e-9,
                "hierarchical {hier} < {} ({})",
                v.throughput,
                v.option
            );
        }
        // And it must beat time sharing outright.
        assert!(hier > 1.0);
    }
}
