//! The co-scheduling dispatcher: single-GPU jobs are batched into
//! windows of `W` and scheduled on one GPU by a node-local
//! [`hrp_core::policies::Policy`]; multi-GPU jobs gang-schedule
//! exclusively (the paper defers their co-location to future work
//! because of the load-imbalance problem it describes in §VI).
//!
//! # Parallel window drain
//!
//! Draining a crowded backlog asks the policy for one window decision
//! per placement — for the exhaustive baselines and the RL rollout that
//! decision is the dominant cost, and the windows are independent of
//! each other. [`CoSchedulingDispatcher::with_threads`] therefore plans
//! *all* currently-formable windows in one bounded
//! [`hrp_core::par::parallel_map`] fan-out and serves them from a plan
//! cache. The cache is validated against the live waiting queue before
//! every pop (prefix and window-shape must match exactly) and dropped
//! otherwise, so the simulated schedule is **identical to the serial
//! drain for any thread count** — the same contract as the training
//! pipeline's rollout workers.

use crate::job::ClusterJob;
use crate::sim::{Dispatcher, Placement};
use hrp_core::par::{parallel_map, resolve_threads};
use hrp_core::policies::{Policy, ScheduleContext};
use hrp_gpusim::engine::EngineConfig;
use hrp_workloads::{Job, JobQueue, Suite};
use std::collections::VecDeque;

/// One pre-planned window: the cluster job ids it covers and the
/// policy's decided co-run duration.
struct PlannedWindow {
    job_ids: Vec<usize>,
    duration: f64,
}

/// Dispatcher wrapping a node-local co-scheduling policy.
pub struct CoSchedulingDispatcher<P: Policy> {
    policy: P,
    w: usize,
    cmax: usize,
    engine: EngineConfig,
    windows: usize,
    /// Flush windows even when under-full once the backlog is this old
    /// (prevents starvation at trace end).
    flush_partial: bool,
    /// Worker threads for the parallel window drain (`1` = plan each
    /// window serially on demand, `0` = available parallelism).
    threads: usize,
    /// Windows planned ahead by the parallel drain, in service order.
    planned: VecDeque<PlannedWindow>,
}

impl<P: Policy> CoSchedulingDispatcher<P> {
    /// New dispatcher with window size `w` and concurrency cap `cmax`.
    #[must_use]
    pub fn new(policy: P, w: usize, cmax: usize) -> Self {
        Self {
            policy,
            w,
            cmax,
            engine: EngineConfig::default(),
            windows: 0,
            flush_partial: true,
            threads: 1,
            planned: VecDeque::new(),
        }
    }

    /// Plan backlogged windows with up to `threads` worker threads
    /// (`0` = available parallelism). The drained schedule is identical
    /// for any value; only wall-clock changes.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Whether under-full windows launch (default `true`). With
    /// `false`, a backlog smaller than `w` waits for more arrivals —
    /// the trace must guarantee they come, or the trailing partial
    /// window never forms and the simulator's deadlock check fires.
    #[must_use]
    pub fn with_flush_partial(mut self, flush: bool) -> Self {
        self.flush_partial = flush;
        self
    }

    /// Number of windows scheduled so far.
    #[must_use]
    pub fn windows_scheduled(&self) -> usize {
        self.windows
    }

    /// Restore the window counter on a freshly built dispatcher when
    /// resuming from a live checkpoint. The counter feeds the
    /// `win{n}` queue labels, so it must survive a kill/restore for
    /// the resumed schedule to be bit-identical. The plan-ahead cache
    /// is cleared: it is validated memoization (see
    /// `cached_window_is_current`), so dropping it never changes a
    /// decision — only when the planning work happens.
    pub fn restore_windows_scheduled(&mut self, windows: usize) {
        self.windows = windows;
        self.planned.clear();
    }

    /// The window the serial path would form right now: the first
    /// `min(|singles|, w)` waiting single-GPU jobs.
    fn window_shape(&self, singles: &[&ClusterJob]) -> usize {
        singles.len().min(self.w)
    }

    /// Ask the policy for one window decision.
    fn decide(&self, suite: &Suite, label: String, batch: &[&ClusterJob]) -> f64 {
        let queue = JobQueue {
            label,
            jobs: batch
                .iter()
                .enumerate()
                .map(|(id, j)| Job {
                    id,
                    name: j.name.clone(),
                    bench: j.bench,
                })
                .collect(),
        };
        let ctx = ScheduleContext {
            suite,
            queue: &queue,
            cmax: self.cmax,
            engine: self.engine.clone(),
        };
        self.policy.schedule(&ctx).total_time()
    }
}

impl<P: Policy + Sync> CoSchedulingDispatcher<P> {
    /// A cached plan entry is served only if it is exactly the window
    /// the serial dispatcher would form from the current waiting queue:
    /// same leading jobs *and* same window length (a grown backlog turns
    /// a cached partial window stale).
    fn cached_window_is_current(&self, singles: &[&ClusterJob]) -> bool {
        let Some(head) = self.planned.front() else {
            return false;
        };
        head.job_ids.len() == self.window_shape(singles)
            && head
                .job_ids
                .iter()
                .zip(singles.iter())
                .all(|(id, j)| *id == j.id)
    }

    /// Plan every window formable from the current backlog in one
    /// parallel fan-out.
    fn plan_windows(&mut self, suite: &Suite, singles: &[&ClusterJob]) {
        let full = singles.len() / self.w;
        let partial = usize::from(self.flush_partial && !singles.len().is_multiple_of(self.w));
        let n_windows = full + partial;
        let durations = parallel_map(n_windows, self.threads, |k| {
            let lo = k * self.w;
            let hi = (lo + self.w).min(singles.len());
            self.decide(suite, format!("win{}", self.windows + k), &singles[lo..hi])
        });
        self.planned = durations
            .into_iter()
            .enumerate()
            .map(|(k, duration)| {
                let lo = k * self.w;
                let hi = (lo + self.w).min(singles.len());
                PlannedWindow {
                    job_ids: singles[lo..hi].iter().map(|j| j.id).collect(),
                    duration,
                }
            })
            .collect();
    }
}

impl<P: Policy + Sync> Dispatcher for CoSchedulingDispatcher<P> {
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
        if let Some(job) = waiting.iter().find(|j| j.gpus > 1 && j.gpus <= free_gpus) {
            return Some(Placement {
                job_ids: vec![job.id],
                gpus: job.gpus,
                duration: job.solo_time(suite),
            });
        }
        // Batch single-GPU jobs into a window.
        let singles: Vec<&ClusterJob> = waiting.iter().filter(|j| j.gpus == 1).collect();
        if singles.is_empty() {
            return None;
        }
        let take = self.window_shape(&singles);
        if take < self.w && !self.flush_partial {
            return None;
        }

        if resolve_threads(self.threads) > 1 {
            // Parallel drain: (re)plan the whole backlog when the cache
            // does not describe the current queue, then serve the head.
            if !self.cached_window_is_current(&singles) {
                self.plan_windows(suite, &singles);
            }
            let head = self.planned.pop_front().expect("planned at least one");
            self.windows += 1;
            return Some(Placement {
                job_ids: head.job_ids,
                gpus: 1,
                duration: head.duration,
            });
        }

        let batch = &singles[..take];
        let duration = self.decide(suite, format!("win{}", self.windows), batch);
        self.windows += 1;
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
    use crate::fcfs::FcfsBackfill;
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
        let fcfs = sim.run(&s, crowded_trace(&s), &mut FcfsBackfill::new());
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let cos = sim.run(&s, crowded_trace(&s), &mut co);
        assert!(
            cos.makespan < fcfs.makespan,
            "co-scheduling {} should beat FCFS {}",
            cos.makespan,
            fcfs.makespan
        );
        assert_eq!(co.windows_scheduled(), 2);
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

    /// A trace with staggered arrivals, so the plan cache is invalidated
    /// mid-run and must replan — the adversarial case for drain
    /// equivalence.
    fn staggered_trace(s: &Suite) -> Vec<ClusterJob> {
        let names = [
            "lavaMD",
            "stream",
            "kmeans",
            "pathfinder",
            "bt_solver_A",
            "lud_A",
            "sp_solver_B",
            "qs_Coral_P1",
            "cfd",
            "needle",
        ];
        names
            .iter()
            .enumerate()
            .map(|(i, n)| ClusterJob::new(i, n, (i / 4) as f64 * 3.0, 1, s))
            .collect()
    }

    #[test]
    fn parallel_drain_is_identical_to_serial_drain() {
        let s = suite();
        let sim = ClusterSim::new(2);
        let mut serial = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let base = sim.run(&s, staggered_trace(&s), &mut serial);
        for threads in [2usize, 4, 0] {
            let mut par = CoSchedulingDispatcher::new(MpsOnly, 4, 4).with_threads(threads);
            let got = sim.run(&s, staggered_trace(&s), &mut par);
            assert_eq!(got, base, "threads = {threads}");
            assert_eq!(par.windows_scheduled(), serial.windows_scheduled());
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn window_that_never_forms_is_a_deadlock() {
        let s = suite();
        // Two singles can never fill a window of four, and no more
        // arrivals are coming: with partial flushing off, the drain
        // must flag the stranded backlog.
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "kmeans", 0.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4).with_flush_partial(false);
        let _ = ClusterSim::new(1).run(&s, jobs, &mut co);
    }

    #[test]
    fn late_arrivals_complete_the_window_when_partial_flush_is_off() {
        let s = suite();
        // The same two singles, plus two more arriving later: the
        // window forms only once all four are waiting.
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "kmeans", 0.0, 1, &s),
            ClusterJob::new(2, "pathfinder", 7.0, 1, &s),
            ClusterJob::new(3, "lud_A", 7.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4).with_flush_partial(false);
        let report = ClusterSim::new(1).run(&s, jobs, &mut co);
        assert_eq!(report.placements, 1, "one full window");
        assert_eq!(co.windows_scheduled(), 1);
        // Nothing could start before the window completed at t = 7.
        assert!(report.avg_wait >= 3.5 - 1e-9, "{}", report.avg_wait);
    }

    #[test]
    fn empty_queue_drains_without_windows() {
        let s = suite();
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let report = ClusterSim::new(2).run(&s, Vec::new(), &mut co);
        assert_eq!(report.placements, 0);
        assert_eq!(co.windows_scheduled(), 0);
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn parallel_drain_handles_crowded_queue() {
        let s = suite();
        let sim = ClusterSim::new(2);
        let mut serial = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let base = sim.run(&s, crowded_trace(&s), &mut serial);
        let mut par = CoSchedulingDispatcher::new(MpsOnly, 4, 4).with_threads(4);
        let got = sim.run(&s, crowded_trace(&s), &mut par);
        assert_eq!(got, base);
    }
}
