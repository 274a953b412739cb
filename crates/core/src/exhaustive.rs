//! Optimal job-set selection by set-partition dynamic programming.
//!
//! The paper's baselines choose their co-scheduling groups *exhaustively*
//! ("the job set selections and assignments are optimal, i.e.,
//! exhaustively chosen from all the possible setups", §V-A4). Minimising
//! `Σ cost(JSi)` over all partitions of the window into groups of size
//! `≤ Cmax` is a classic subset DP:
//!
//! `dp[mask] = min over subsets s ∋ lowest_bit(mask): dp[mask \ s] + cost(s)`
//!
//! Group costs are memoised per subset first (there are only
//! `Σ_{c≤Cmax} C(W,c)` of them — 793 for W=12, Cmax=4), so the expensive
//! part (simulating candidate co-runs) is not repeated across DP states.

use crate::problem::ScheduledGroup;

/// Result of the DP: the optimal grouping and its total time.
#[derive(Debug, Clone)]
pub struct PartitionSolution {
    /// Chosen groups (each evaluated by the caller's cost function).
    pub groups: Vec<ScheduledGroup>,
    /// Total cost `Σ corun_time`.
    pub total: f64,
}

/// Enumerate all subsets of `{0..n}` with `1 ≤ |s| ≤ cmax`, invoking
/// `f(mask, members)`.
fn for_each_small_subset(n: usize, cmax: usize, mut f: impl FnMut(u32, &[usize])) {
    assert!(n <= 24, "window too large for subset enumeration");
    let mut members = Vec::with_capacity(cmax);
    // Recursive enumeration picking increasing indices.
    fn rec(
        n: usize,
        cmax: usize,
        start: usize,
        mask: u32,
        members: &mut Vec<usize>,
        f: &mut impl FnMut(u32, &[usize]),
    ) {
        if !members.is_empty() {
            f(mask, members);
        }
        if members.len() == cmax {
            return;
        }
        for i in start..n {
            members.push(i);
            rec(n, cmax, i + 1, mask | (1 << i), members, f);
            members.pop();
        }
    }
    rec(n, cmax, 0, 0, &mut members, &mut f);
}

/// Solve the set-partition problem. `cost(mask, members)` returns the
/// best evaluated group for that job subset, or `None` when the subset
/// admits no feasible configuration (e.g. violates the time-sharing
/// constraint); singletons must always be feasible.
///
/// # Panics
/// Panics if any singleton subset is infeasible (a job must always be
/// runnable solo) or `n > 24`.
pub fn best_partition(
    n: usize,
    cmax: usize,
    mut cost: impl FnMut(u32, &[usize]) -> Option<ScheduledGroup>,
) -> PartitionSolution {
    assert!((1..=24).contains(&n), "window size {n} out of range");
    let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };

    // Phase 1: memoise group costs per subset.
    let mut group_of: Vec<Option<ScheduledGroup>> = vec![None; 1 << n];
    for_each_small_subset(n, cmax, |mask, members| {
        let g = cost(mask, members);
        if members.len() == 1 {
            assert!(g.is_some(), "singleton {members:?} must be feasible");
        }
        group_of[mask as usize] = g;
    });

    // Phase 2: DP over masks.
    let mut dp = vec![f64::INFINITY; (full as usize) + 1];
    let mut choice = vec![0u32; (full as usize) + 1];
    dp[0] = 0.0;
    for mask in 1..=(full as usize) {
        let m = mask as u32;
        let low = m.trailing_zeros();
        // Enumerate subsets of `m` containing `low`, size ≤ cmax.
        let rest = m & !(1 << low);
        // Iterate sub-masks of `rest` with ≤ cmax − 1 bits.
        let mut sub = rest;
        loop {
            let s = sub | (1 << low);
            if s.count_ones() as usize <= cmax {
                if let Some(g) = &group_of[s as usize] {
                    let prev = dp[(m & !s) as usize];
                    let cand = prev + g.corun_time;
                    if cand < dp[mask] {
                        dp[mask] = cand;
                        choice[mask] = s;
                    }
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
    }

    // Reconstruct.
    let mut groups = Vec::new();
    let mut m = full;
    while m != 0 {
        let s = choice[m as usize];
        assert!(s != 0, "DP failed to cover mask {m:b}");
        groups.push(
            group_of[s as usize]
                .clone()
                .expect("chosen subset has a group"),
        );
        m &= !s;
    }
    groups.reverse();
    PartitionSolution {
        groups,
        total: dp[full as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::PartitionScheme;

    /// Build a fake group with a given cost.
    fn fake(members: &[usize], cost: f64) -> ScheduledGroup {
        ScheduledGroup {
            job_ids: members.to_vec(),
            scheme: PartitionScheme::exclusive(),
            assignment: (0..members.len()).collect(),
            corun_time: cost,
            solo_time: cost,
            app_times: vec![cost; members.len()],
        }
    }

    #[test]
    fn subset_enumeration_counts() {
        let mut count = 0;
        for_each_small_subset(12, 4, |_, _| count += 1);
        // C(12,1)+C(12,2)+C(12,3)+C(12,4) = 12+66+220+495.
        assert_eq!(count, 793);
    }

    #[test]
    fn subset_masks_match_members() {
        for_each_small_subset(6, 3, |mask, members| {
            let rebuilt: u32 = members.iter().map(|&i| 1 << i).sum();
            assert_eq!(mask, rebuilt);
            assert!(members.len() <= 3 && !members.is_empty());
        });
    }

    #[test]
    fn dp_prefers_good_pairs() {
        // 4 jobs, solo cost 10 each; pairing (0,1) costs 12, (2,3) costs
        // 14; all other pairs cost 25 (worse than two solos). Optimal:
        // {0,1} + {2,3} = 26.
        let sol = best_partition(4, 2, |_, members| {
            Some(match members {
                [a] => fake(&[*a], 10.0),
                [0, 1] => fake(members, 12.0),
                [2, 3] => fake(members, 14.0),
                _ => fake(members, 25.0),
            })
        });
        assert!((sol.total - 26.0).abs() < 1e-9);
        assert_eq!(sol.groups.len(), 2);
        let sets: Vec<Vec<usize>> = sol.groups.iter().map(|g| g.job_ids.clone()).collect();
        assert!(sets.contains(&vec![0, 1]));
        assert!(sets.contains(&vec![2, 3]));
    }

    #[test]
    fn dp_falls_back_to_solos_when_groups_are_bad() {
        let sol = best_partition(3, 3, |_, members| {
            if members.len() == 1 {
                Some(fake(members, 5.0))
            } else {
                None // every multi-job group infeasible
            }
        });
        assert!((sol.total - 15.0).abs() < 1e-9);
        assert_eq!(sol.groups.len(), 3);
    }

    #[test]
    fn dp_uses_larger_groups_when_they_win() {
        // A 4-way group costing 11 beats any pairing of 10-cost solos.
        let sol = best_partition(4, 4, |_, members| {
            Some(match members.len() {
                1 => fake(members, 10.0),
                4 => fake(members, 11.0),
                _ => fake(members, 19.0),
            })
        });
        assert!((sol.total - 11.0).abs() < 1e-9);
        assert_eq!(sol.groups.len(), 1);
        assert_eq!(sol.groups[0].job_ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dp_respects_cmax() {
        let sol = best_partition(4, 2, |_, members| {
            Some(match members.len() {
                1 => fake(members, 10.0),
                2 => fake(members, 9.0),
                _ => fake(members, 0.1), // would win, but size > cmax
            })
        });
        // cost(mask) is never even asked for size > 2 groups, so the DP
        // must pick two pairs.
        assert!((sol.total - 18.0).abs() < 1e-9);
        assert_eq!(sol.groups.len(), 2);
    }

    #[test]
    fn all_jobs_covered_exactly_once() {
        let sol = best_partition(7, 3, |_, members| Some(fake(members, members.len() as f64)));
        let mut seen = [false; 7];
        for g in &sol.groups {
            for &j in &g.job_ids {
                assert!(!seen[j]);
                seen[j] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
