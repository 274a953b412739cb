//! FCFS with conservative backfilling — the scheduling policy the paper
//! names as the sensible default for *lightly* loaded systems (§VI).
//!
//! Jobs start strictly in arrival order, except that a later job may
//! *backfill* onto free GPUs if it cannot delay the head job (here,
//! conservatively: it must finish before the head job could possibly
//! start, estimated from the currently known releases).

use crate::job::ClusterJob;
use crate::sim::{Dispatcher, Placement};
use hrp_workloads::Suite;

/// FCFS + conservative backfilling dispatcher.
#[derive(Debug, Default)]
pub struct FcfsBackfill {
    /// Known (finish_time, gpus) of placements we started; used to
    /// estimate when the queue head could start.
    releases: Vec<(f64, usize)>,
}

impl FcfsBackfill {
    /// New dispatcher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest time the head job (needing `need` GPUs) could start given
    /// `free` GPUs now and the pending releases.
    fn head_start_estimate(&self, need: usize, free: usize, now: f64) -> f64 {
        if need <= free {
            return now;
        }
        let mut rel: Vec<(f64, usize)> = self.releases.clone();
        rel.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut avail = free;
        for (t, g) in rel {
            avail += g;
            if avail >= need {
                return t;
            }
        }
        f64::INFINITY
    }
}

impl Dispatcher for FcfsBackfill {
    fn name(&self) -> &'static str {
        "FCFS+backfill"
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        // Forget releases that have already happened.
        self.releases.retain(|(t, _)| *t > now + 1e-12);
        let head = waiting.first()?;
        if head.gpus <= free_gpus {
            let duration = head.solo_time(suite);
            self.releases.push((now + duration, head.gpus));
            return Some(Placement {
                job_ids: vec![head.id],
                gpus: head.gpus,
                duration,
            });
        }
        // Head blocked: try to backfill a later job that finishes before
        // the head's estimated start.
        let head_start = self.head_start_estimate(head.gpus, free_gpus, now);
        for job in waiting.iter().skip(1) {
            if job.gpus > free_gpus {
                continue;
            }
            let duration = job.solo_time(suite);
            if now + duration <= head_start + 1e-9 {
                self.releases.push((now + duration, job.gpus));
                return Some(Placement {
                    job_ids: vec![job.id],
                    gpus: job.gpus,
                    duration,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterSim;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    #[test]
    fn fcfs_runs_everything() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "lavaMD", 0.0, 1, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
            ClusterJob::new(2, "kmeans", 0.0, 1, &s),
        ];
        let report = ClusterSim::new(2).run(&s, jobs, &mut FcfsBackfill::new());
        assert_eq!(report.placements, 3);
        assert!(report.makespan >= 38.0, "{}", report.makespan);
    }

    #[test]
    fn backfill_fills_hole_before_wide_job() {
        let s = suite();
        // Head after j0: a 2-GPU job that must wait for both GPUs; a
        // short 1-GPU job should backfill into the idle second GPU.
        let jobs = vec![
            ClusterJob::new(0, "lavaMD", 0.0, 1, &s), // 38 s on GPU 0
            ClusterJob::new(1, "bt_solver_A", 0.1, 2, &s), // needs both
            ClusterJob::new(2, "stream", 0.2, 1, &s), // 10 s, can backfill
        ];
        let report = ClusterSim::new(2).run(&s, jobs, &mut FcfsBackfill::new());
        // With backfilling, stream runs inside lavaMD's window:
        // makespan = 38 + 22.5 = 60.5. Without it: 38 + 22.5 + 10 later.
        assert!(
            report.makespan < 38.0 + 22.5 + 1.0,
            "makespan {} suggests no backfill",
            report.makespan
        );
        assert_eq!(report.placements, 3);
    }

    #[test]
    fn empty_queue_yields_no_placement() {
        let s = suite();
        let mut fcfs = FcfsBackfill::new();
        assert_eq!(fcfs.next_placement(&s, &[], 4, 0.0), None);
        let report = ClusterSim::new(4).run(&s, Vec::new(), &mut fcfs);
        assert_eq!(report.placements, 0);
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn simultaneous_arrivals_start_in_submission_order() {
        let s = suite();
        // Three 1-GPU jobs at the same instant on one GPU: strict FCFS
        // order, waits of 0, 10, and 10 + 16 seconds.
        let jobs = vec![
            ClusterJob::new(0, "stream", 3.0, 1, &s),     // 10 s
            ClusterJob::new(1, "kmeans", 3.0, 1, &s),     // 16 s
            ClusterJob::new(2, "pathfinder", 3.0, 1, &s), // 14 s
        ];
        let report = ClusterSim::new(1).run(&s, jobs, &mut FcfsBackfill::new());
        assert_eq!(report.placements, 3);
        assert!((report.makespan - 43.0).abs() < 1e-9, "{}", report.makespan);
        assert!((report.avg_wait - 12.0).abs() < 1e-9, "{}", report.avg_wait);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn head_wider_than_the_cluster_deadlocks() {
        let s = suite();
        // The head can never start; conservative backfilling keeps
        // later jobs flowing, but the drain must flag the stranded
        // head rather than exit silently.
        let jobs = vec![
            ClusterJob::new(0, "lavaMD", 0.0, 4, &s), // wider than the pool
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let _ = ClusterSim::new(2).run(&s, jobs, &mut FcfsBackfill::new());
    }

    #[test]
    fn infinite_head_estimate_lets_everything_backfill() {
        let s = suite();
        // Head blocked forever (needs 4 of 2 GPUs) → its start estimate
        // is infinite, so every later job backfills freely.
        let mut fcfs = FcfsBackfill::new();
        let waiting = vec![
            ClusterJob::new(0, "lavaMD", 0.0, 4, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let p = fcfs.next_placement(&s, &waiting, 2, 0.0);
        assert_eq!(p.expect("backfill").job_ids, vec![1]);
    }

    #[test]
    fn wide_job_eventually_runs() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "lavaMD", 0.0, 4, &s),
        ];
        let report = ClusterSim::new(4).run(&s, jobs, &mut FcfsBackfill::new());
        assert_eq!(report.placements, 2);
        // lavaMD (4-GPU, 9.5 s) waits for stream (10 s) → ≈ 19.5 s.
        assert!((report.makespan - 19.5).abs() < 1e-6, "{}", report.makespan);
    }
}
