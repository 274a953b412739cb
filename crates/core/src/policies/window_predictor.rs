//! Shared helper: a profile-driven predictor for one scheduling window.
//!
//! The exhaustive baselines of §V-A4 cannot *measure* every candidate
//! group on hardware (the paper's own search-space bound is ~10⁵ co-runs
//! per window); like any deployable scheduler they must choose job sets
//! from profile-based predictions and only run the chosen schedule. This
//! helper builds the [`CoRunPredictor`] a policy needs for one window
//! from the profiles the context's repository holds.

use super::ScheduleContext;
use crate::predict::CoRunPredictor;
use crate::problem::{evaluate_group, ScheduledGroup};
use hrp_gpusim::{CompiledPartition, GpuArch, PartitionScheme};
use hrp_profile::Profiler;

/// The profiler whose solo runs fill an evaluation's repository: a fixed
/// seed and mild measurement noise, so baseline runs are deterministic
/// and comparable with the RL pipeline.
#[must_use]
pub fn window_profiler(arch: GpuArch) -> Profiler {
    Profiler::new(arch, 0.03, 17)
}

/// Build the predictor for a window from `ctx.repo`, in queue order.
///
/// # Panics
/// Panics, naming the job, if the repository lacks a member's profile.
#[must_use]
pub(super) fn window_predictor(ctx: &ScheduleContext<'_>) -> CoRunPredictor {
    let profiles = ctx.queue.jobs.iter().map(|j| {
        ctx.repo.get(j.bench).unwrap_or_else(|| {
            panic!(
                "job '{}' has no profile",
                ctx.suite.by_index(j.bench).app.name
            )
        })
    });
    CoRunPredictor::new(profiles, ctx.suite.arch(), ctx.engine.clone())
}

/// Choose the best scheme for `members` by *predicted* makespan across
/// `schemes`, then **measure** the chosen configuration (the run that
/// actually happens). Returns `None` when the measured run violates the
/// time-sharing constraint of §IV-A.
#[must_use]
pub(super) fn select_and_measure(
    ctx: &ScheduleContext<'_>,
    predictor: &CoRunPredictor,
    members: &[usize],
    schemes: &[(PartitionScheme, CompiledPartition)],
) -> Option<ScheduledGroup> {
    let mut best: Option<(f64, usize, Vec<usize>)> = None;
    for (idx, (_, part)) in schemes.iter().enumerate() {
        if part.slots.len() != members.len() {
            continue;
        }
        let (makespan, assignment) = predictor.predict_best_assignment(members, part);
        if best.as_ref().is_none_or(|(m, _, _)| makespan < *m) {
            best = Some((makespan, idx, assignment));
        }
    }
    let (_, idx, assignment) = best?;
    let group = evaluate_group(
        ctx.suite,
        ctx.queue,
        members,
        &schemes[idx].0,
        &assignment,
        &ctx.engine,
    );
    group.beats_time_sharing().then_some(group)
}

/// Compile a scheme list once (schemes paired with compiled partitions).
#[must_use]
pub(super) fn compile_schemes(
    ctx: &ScheduleContext<'_>,
    schemes: Vec<PartitionScheme>,
) -> Vec<(PartitionScheme, CompiledPartition)> {
    schemes
        .into_iter()
        .map(|s| {
            let c = s.compile(ctx.suite.arch()).expect("space schemes compile");
            (s, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::test_util::small_fixture;
    use super::*;
    use crate::actions::mps_only_space;
    use hrp_profile::ProfileRepository;

    #[test]
    fn predictor_selection_yields_feasible_groups() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let predictor = window_predictor(&ctx);
        let schemes = compile_schemes(&ctx, mps_only_space(2));
        // bt_solver_A (4) + lud_A (5): a complementary CI/MI pair.
        let group = select_and_measure(&ctx, &predictor, &[4, 5], &schemes)
            .expect("pair should beat time sharing");
        assert_eq!(group.concurrency(), 2);
        assert!(group.beats_time_sharing());
    }

    #[test]
    fn hopeless_groups_are_rejected_after_measurement() {
        let (suite, queue, repo) = small_fixture();
        let ctx = ScheduleContext::new(&suite, &queue, &repo, 4);
        let predictor = window_predictor(&ctx);
        let schemes = compile_schemes(&ctx, mps_only_space(2));
        // lavaMD (0) + bt_solver_A (4): two CI hogs — measured co-run
        // should violate the constraint under the crowd model.
        let group = select_and_measure(&ctx, &predictor, &[0, 4], &schemes);
        assert!(group.is_none(), "CI+CI pair should be infeasible");
    }

    #[test]
    #[should_panic(expected = "job 'pathfinder' has no profile")]
    fn a_member_missing_from_the_repository_panics_naming_the_job() {
        let (suite, queue, full) = small_fixture();
        let pathfinder = suite.index_of("pathfinder").expect("in the suite");
        let mut repo = ProfileRepository::new();
        for job in queue.jobs.iter().filter(|j| j.bench != pathfinder) {
            repo.insert(job.bench, full.get(job.bench).expect("full").clone());
        }
        let _ = window_predictor(&ScheduleContext::new(&suite, &queue, &repo, 4));
    }
}
