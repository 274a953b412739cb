//! The co-scheduling dispatcher: single-GPU jobs are batched into
//! windows of `W` and scheduled on one GPU by a node-local
//! [`hrp_core::policies::Policy`]; multi-GPU jobs gang-schedule
//! exclusively (the paper defers their co-location to future work
//! because of the load-imbalance problem it describes in §VI).

use crate::job::ClusterJob;
use crate::sim::{Dispatcher, Placement};
use hrp_core::policies::{window_profiler, Policy, ScheduleContext};
use hrp_core::ProfileRepository;
use hrp_workloads::{Job, JobQueue, Suite};

/// Dispatcher wrapping a node-local co-scheduling policy.
pub struct CoSchedulingDispatcher<P: Policy> {
    policy: P,
    w: usize,
    cmax: usize,
}

impl<P: Policy> CoSchedulingDispatcher<P> {
    /// New dispatcher with window size `w` and concurrency cap `cmax`.
    #[must_use]
    pub fn new(policy: P, w: usize, cmax: usize) -> Self {
        Self { policy, w, cmax }
    }

    /// Ask the policy for one window decision. No [`Policy`] reads the
    /// queue label, so windows go unlabelled. The window's distinct
    /// benches are profiled into a repository of its own.
    fn decide(&self, suite: &Suite, batch: &[&ClusterJob]) -> f64 {
        let queue = JobQueue {
            label: String::new(),
            jobs: batch
                .iter()
                .map(|j| Job {
                    bench: usize::from(j.bench),
                })
                .collect(),
        };
        let profiler = window_profiler(suite.arch().clone());
        let mut repo = ProfileRepository::new();
        for job in &queue.jobs {
            if repo.get(job.bench).is_none() {
                repo.insert(job.bench, profiler.profile(&suite.by_index(job.bench).app));
            }
        }
        let ctx = ScheduleContext::new(suite, &queue, &repo, self.cmax);
        self.policy.schedule(&ctx).total_time()
    }
}

impl<P: Policy> Dispatcher for CoSchedulingDispatcher<P> {
    fn name(&self) -> &'static str {
        "co-scheduling"
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        _now: f64,
    ) -> Option<Placement> {
        if free_gpus == 0 {
            return None;
        }
        // Multi-GPU head jobs run exclusively as soon as they fit.
        if let Some(job) = waiting
            .iter()
            .find(|j| j.gpus > 1 && usize::from(j.gpus) <= free_gpus)
        {
            return Some(Placement {
                job_ids: vec![job.id],
                gpus: usize::from(job.gpus),
                duration: job.solo_time(suite),
            });
        }
        // Batch single-GPU jobs into a window.
        let singles: Vec<&ClusterJob> = waiting.iter().filter(|j| j.gpus == 1).collect();
        if singles.is_empty() {
            return None;
        }
        // An under-full window launches: the backlog never waits for
        // arrivals that may not come.
        let batch = &singles[..singles.len().min(self.w)];
        let duration = self.decide(suite, batch);
        Some(Placement {
            job_ids: batch.iter().map(|j| j.id).collect(),
            gpus: 1,
            duration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill::{BackfillPlanner, BackfillPolicy};
    use crate::sim::ClusterSim;
    use hrp_core::policies::MpsOnly;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// An over-crowded queue: everything arrives at t = 0.
    fn crowded_trace(s: &Suite) -> Vec<ClusterJob> {
        let names = [
            "lavaMD",
            "stream",
            "kmeans",
            "pathfinder",
            "bt_solver_A",
            "lud_A",
            "sp_solver_B",
            "qs_Coral_P1",
        ];
        names
            .iter()
            .enumerate()
            .map(|(i, n)| ClusterJob::new(i, n, 0.0, 1, s))
            .collect()
    }

    #[test]
    fn cosched_beats_fcfs_on_crowded_queue() {
        let s = suite();
        let sim = ClusterSim::new(2);
        let mut backfill = BackfillPlanner::new(BackfillPolicy::Easy, 2);
        let fcfs = sim.run(&s, crowded_trace(&s), &mut backfill);
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let cos = sim.run(&s, crowded_trace(&s), &mut co);
        assert!(
            cos.makespan < fcfs.makespan,
            "co-scheduling {} should beat FCFS {}",
            cos.makespan,
            fcfs.makespan
        );
        // Eight single-GPU jobs in windows of four: two placements.
        assert_eq!(cos.placements, 2);
    }

    #[test]
    fn multi_gpu_jobs_run_exclusively() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "lavaMD", 0.0, 2, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let report = ClusterSim::new(2).run(&s, jobs, &mut co);
        assert_eq!(report.placements, 2);
    }

    #[test]
    fn partial_windows_flush() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "kmeans", 0.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 12, 4);
        let report = ClusterSim::new(1).run(&s, jobs, &mut co);
        assert_eq!(report.placements, 1, "two jobs in one partial window");
    }

    #[test]
    fn empty_queue_drains_without_windows() {
        let s = suite();
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let report = ClusterSim::new(2).run(&s, Vec::new(), &mut co);
        assert_eq!(report.placements, 0);
        assert_eq!(report.makespan, 0.0);
    }
}
