//! The optimization problem of §IV-A: decision types, group evaluation,
//! and constraint validation.

use hrp_gpusim::engine::{simulate_corun, EngineConfig};
use hrp_gpusim::{AppModel, PartitionScheme};
use hrp_workloads::{JobQueue, Suite};

/// One co-scheduled group: a job set `JSi` with its resource setup `Ri`
/// and the measured outcome of running it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledGroup {
    /// Queue job ids in this group.
    pub job_ids: Vec<usize>,
    /// The resource partitioning `Ri`.
    pub scheme: PartitionScheme,
    /// `assignment[k]` = slot index of `job_ids[k]` in the compiled
    /// scheme.
    pub assignment: Vec<usize>,
    /// Measured co-run makespan `CoRunTime(JSi, Ri)` in seconds.
    pub corun_time: f64,
    /// `SoloRunTime(JSi)`: sum of the members' solo times.
    pub solo_time: f64,
    /// Per-member completion time from group start (`CoRunAppTime`),
    /// aligned with `job_ids`.
    pub app_times: Vec<f64>,
}

impl ScheduledGroup {
    /// Group concurrency `Ci = |JSi|`.
    #[must_use]
    pub fn concurrency(&self) -> usize {
        self.job_ids.len()
    }

    /// Does this group satisfy the first §IV-A constraint
    /// (`CoRunTime ≤ SoloRunTime`)?
    #[must_use]
    pub fn beats_time_sharing(&self) -> bool {
        self.corun_time <= self.solo_time * (1.0 + 1e-9)
    }
}

/// A complete decision: `LJS` + `LR` + measured outcomes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScheduleDecision {
    /// The groups, in execution order.
    pub groups: Vec<ScheduledGroup>,
}

impl ScheduleDecision {
    /// Total time to drain the window: `Σ CoRunTime(JSi, Ri)` (groups run
    /// back to back — the GPU is reconfigured between groups).
    #[must_use]
    pub fn total_time(&self) -> f64 {
        self.groups.iter().map(|g| g.corun_time).sum()
    }

    /// Total solo (time-sharing) time of all scheduled jobs.
    #[must_use]
    pub fn total_solo_time(&self) -> f64 {
        self.groups.iter().map(|g| g.solo_time).sum()
    }

    /// Validate the §IV-A constraints against the source queue:
    /// mutually-exclusive collectively-exhaustive job sets, `Ci ≤ Cmax`,
    /// and (optionally strict) the per-group time-sharing constraint.
    pub fn validate(
        &self,
        queue: &JobQueue,
        cmax: usize,
        require_beats_time_sharing: bool,
    ) -> Result<(), String> {
        let mut seen = vec![false; queue.len()];
        for (gi, g) in self.groups.iter().enumerate() {
            if g.job_ids.is_empty() {
                return Err(format!("group {gi} is empty"));
            }
            if g.concurrency() > cmax {
                return Err(format!(
                    "group {gi} has concurrency {} > Cmax {cmax}",
                    g.concurrency()
                ));
            }
            if g.job_ids.len() != g.assignment.len() || g.job_ids.len() != g.app_times.len() {
                return Err(format!("group {gi} has inconsistent member arrays"));
            }
            for &j in &g.job_ids {
                if j >= queue.len() {
                    return Err(format!("group {gi} references job {j} outside the window"));
                }
                if seen[j] {
                    return Err(format!("job {j} scheduled twice"));
                }
                seen[j] = true;
            }
            if require_beats_time_sharing && g.concurrency() > 1 && !g.beats_time_sharing() {
                return Err(format!(
                    "group {gi} violates CoRunTime ≤ SoloRunTime ({} > {})",
                    g.corun_time, g.solo_time
                ));
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("job {missing} never scheduled"));
        }
        Ok(())
    }
}

/// Run one candidate group on the simulator ("the hardware", the
/// suite's GPU) and record the outcome.
///
/// # Panics
/// Panics if the scheme does not compile or the assignment is invalid —
/// callers construct both from validated action spaces.
#[must_use]
pub fn evaluate_group(
    suite: &Suite,
    queue: &JobQueue,
    job_ids: &[usize],
    scheme: &PartitionScheme,
    assignment: &[usize],
    engine: &EngineConfig,
) -> ScheduledGroup {
    let part = scheme.compile(suite.arch()).expect("scheme must compile");
    let apps: Vec<&AppModel> = job_ids
        .iter()
        .map(|&j| &suite.by_index(queue.jobs[j].bench).app)
        .collect();
    let result = simulate_corun(&apps, assignment, &part, engine);
    let solo_time = apps.iter().map(|a| a.solo_time).sum();
    ScheduledGroup {
        job_ids: job_ids.to_vec(),
        scheme: scheme.clone(),
        assignment: assignment.to_vec(),
        corun_time: result.makespan,
        solo_time,
        app_times: result.finish_times,
    }
}

/// Evaluate a group trying **all slot permutations**, returning the best
/// (lowest makespan). Used by the exhaustive baselines; `C ≤ 4` keeps
/// this at ≤ 24 simulations.
#[must_use]
pub fn evaluate_group_best_assignment(
    suite: &Suite,
    queue: &JobQueue,
    job_ids: &[usize],
    scheme: &PartitionScheme,
    engine: &EngineConfig,
) -> ScheduledGroup {
    let c = job_ids.len();
    let mut best: Option<ScheduledGroup> = None;
    let mut perm: Vec<usize> = (0..c).collect();
    permute(&mut perm, 0, &mut |assignment| {
        let g = evaluate_group(suite, queue, job_ids, scheme, assignment, engine);
        if best.as_ref().is_none_or(|b| g.corun_time < b.corun_time) {
            best = Some(g);
        }
    });
    best.expect("at least one permutation")
}

/// Visit every permutation of `xs[k..]` (small `n`: the slot
/// assignments of one group).
pub(crate) fn permute(xs: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == xs.len() {
        visit(xs);
        return;
    }
    for i in k..xs.len() {
        xs.swap(k, i);
        permute(xs, k + 1, visit);
        xs.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Suite, JobQueue, EngineConfig) {
        let suite = Suite::paper_suite(&hrp_gpusim::GpuArch::a100());
        // bt_solver_A (CI, 45 s) and sp_solver_B (MI, 55 s) are a
        // duration-matched complementary pair.
        let queue = JobQueue::from_names(
            "t",
            &["bt_solver_A", "sp_solver_B", "kmeans", "pathfinder"],
            &suite,
        );
        (suite, queue, EngineConfig::default())
    }

    #[test]
    fn evaluate_solo_group_is_solo_time() {
        let (suite, queue, eng) = setup();
        let g = evaluate_group(
            &suite,
            &queue,
            &[0],
            &PartitionScheme::exclusive(),
            &[0],
            &eng,
        );
        let bt = suite.get("bt_solver_A").unwrap().app.solo_time;
        assert!((g.corun_time - bt).abs() < 1e-6);
        assert!((g.solo_time - bt).abs() < 1e-9);
        assert!(g.beats_time_sharing());
    }

    #[test]
    fn complementary_pair_beats_time_sharing() {
        let (suite, queue, eng) = setup();
        // bt_solver_A (CI) on the big share, sp_solver_B (MI) on the
        // small one.
        let g = evaluate_group(
            &suite,
            &queue,
            &[0, 1],
            &PartitionScheme::mps_only(vec![0.7, 0.3]),
            &[0, 1],
            &eng,
        );
        assert!(
            g.beats_time_sharing(),
            "corun {} vs solo {}",
            g.corun_time,
            g.solo_time
        );
    }

    #[test]
    fn best_assignment_picks_the_right_orientation() {
        let (suite, queue, eng) = setup();
        let scheme = PartitionScheme::mps_only(vec![0.2, 0.8]);
        let best = evaluate_group_best_assignment(&suite, &queue, &[0, 1], &scheme, &eng);
        // bt_solver_A (job 0, CI) must land on the 0.8 slot (slot 1).
        let ci_pos = best.job_ids.iter().position(|&j| j == 0).unwrap();
        assert_eq!(best.assignment[ci_pos], 1);
        // And must be at least as good as the wrong orientation.
        let wrong = evaluate_group(&suite, &queue, &[0, 1], &scheme, &[1, 0], &eng);
        assert!(best.corun_time <= wrong.corun_time + 1e-9);
    }

    #[test]
    fn validation_catches_all_violations() {
        let (suite, queue, eng) = setup();
        let solo = |j: usize| {
            evaluate_group(
                &suite,
                &queue,
                &[j],
                &PartitionScheme::exclusive(),
                &[0],
                &eng,
            )
        };
        // Complete, valid decision.
        let full = ScheduleDecision {
            groups: (0..4).map(solo).collect(),
        };
        full.validate(&queue, 4, true).unwrap();

        // Missing job.
        let missing = ScheduleDecision {
            groups: (0..3).map(solo).collect(),
        };
        assert!(missing.validate(&queue, 4, true).is_err());

        // Duplicate job.
        let dup = ScheduleDecision {
            groups: vec![solo(0), solo(0), solo(1), solo(2), solo(3)],
        };
        assert!(dup.validate(&queue, 4, true).is_err());

        // Concurrency above Cmax.
        let big = evaluate_group(
            &suite,
            &queue,
            &[0, 1, 2],
            &PartitionScheme::mps_only(vec![0.34, 0.33, 0.33]),
            &[0, 1, 2],
            &eng,
        );
        let over = ScheduleDecision {
            groups: vec![big, solo(3)],
        };
        assert!(over.validate(&queue, 2, false).is_err());
        // With the cap raised the structure is fine (the equal 3-way MPS
        // split may not beat time sharing, so skip that check here).
        assert!(over.validate(&queue, 3, false).is_ok());
    }

    #[test]
    fn totals_accumulate() {
        let (suite, queue, eng) = setup();
        let d = ScheduleDecision {
            groups: (0..4)
                .map(|j| {
                    evaluate_group(
                        &suite,
                        &queue,
                        &[j],
                        &PartitionScheme::exclusive(),
                        &[0],
                        &eng,
                    )
                })
                .collect(),
        };
        assert!((d.total_time() - queue.total_solo_time(&suite)).abs() < 1e-6);
        assert!((d.total_solo_time() - queue.total_solo_time(&suite)).abs() < 1e-9);
    }
}
