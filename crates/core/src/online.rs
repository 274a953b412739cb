//! The online phase of the paper's Fig. 7.
//!
//! Jobs arrive over time. A job whose binary (its suite bench) has no
//! profile in the repository is **excluded from co-scheduling**: it runs
//! exclusively on the whole GPU while its profile is collected and
//! stored. Profiled jobs accumulate in the window; when `W` of them are
//! waiting, the scheduler (any [`Policy`]) drains the window.

use crate::metrics::{evaluate_decision, QueueMetrics};
use crate::policies::{Policy, ScheduleContext};
use hrp_gpusim::engine::EngineConfig;
use hrp_profile::{ProfileRepository, Profiler};
use hrp_workloads::{Job, JobQueue, Suite};

/// One processed batch: either a profiling solo run or a scheduled
/// window.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineEvent {
    /// A first-seen job ran exclusively to collect its profile.
    ProfilingRun {
        /// Suite index of the profiled program.
        bench: usize,
        /// Exclusive runtime (seconds).
        time: f64,
    },
    /// A full window was co-scheduled.
    WindowScheduled {
        /// Metrics of the scheduled window.
        metrics: QueueMetrics,
    },
}

/// Summary of an online session.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Everything that happened, in order.
    pub events: Vec<OnlineEvent>,
    /// Total wall time (profiling runs + window drains).
    pub total_time: f64,
    /// Total time a pure time-sharing system would have taken.
    pub time_sharing_time: f64,
}

impl OnlineReport {
    /// End-to-end throughput gain over time sharing.
    #[must_use]
    pub fn overall_gain(&self) -> f64 {
        self.time_sharing_time / self.total_time
    }

    /// Number of profiling (cold-start) runs.
    #[must_use]
    pub fn profiling_runs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, OnlineEvent::ProfilingRun { .. }))
            .count()
    }
}

/// The online scheduler driver.
pub struct OnlineSystem<'a, P: Policy> {
    suite: &'a Suite,
    policy: P,
    repo: &'a mut ProfileRepository,
    profiler: Profiler,
    engine: EngineConfig,
    w: usize,
    cmax: usize,
    waiting: Vec<Job>,
    events: Vec<OnlineEvent>,
    total_time: f64,
    time_sharing_time: f64,
    windows: usize,
}

impl<'a, P: Policy> OnlineSystem<'a, P> {
    /// Create an online system over an (initially possibly empty)
    /// repository.
    #[must_use]
    pub fn new(
        suite: &'a Suite,
        policy: P,
        repo: &'a mut ProfileRepository,
        profiler: Profiler,
        w: usize,
        cmax: usize,
    ) -> Self {
        Self {
            suite,
            policy,
            repo,
            profiler,
            engine: EngineConfig::default(),
            w,
            cmax,
            waiting: Vec::new(),
            events: Vec::new(),
            total_time: 0.0,
            time_sharing_time: 0.0,
            windows: 0,
        }
    }

    /// Submit one job by benchmark name.
    ///
    /// # Panics
    /// Panics if the name is not in the suite.
    pub fn submit(&mut self, name: &str) {
        let bench = self
            .suite
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown benchmark '{name}'"));
        let app = &self.suite.by_index(bench).app;
        self.time_sharing_time += app.solo_time;
        if self.repo.get(bench).is_none() {
            // Fig. 7: no profile → run exclusively, collect, store.
            self.repo.insert(bench, self.profiler.profile(app));
            self.total_time += app.solo_time;
            self.events.push(OnlineEvent::ProfilingRun {
                bench,
                time: app.solo_time,
            });
            return;
        }
        self.waiting.push(Job { bench });
        if self.waiting.len() == self.w {
            self.drain_window();
        }
    }

    /// Force-schedule whatever is waiting (end of session).
    pub fn flush(&mut self) {
        if !self.waiting.is_empty() {
            self.drain_window();
        }
    }

    fn drain_window(&mut self) {
        self.windows += 1;
        let queue = JobQueue {
            label: format!("W{}", self.windows),
            jobs: std::mem::take(&mut self.waiting),
        };
        let ctx = ScheduleContext {
            suite: self.suite,
            queue: &queue,
            cmax: self.cmax,
            engine: self.engine.clone(),
        };
        let decision = self.policy.schedule(&ctx);
        decision
            .validate(&queue, self.cmax, false)
            .expect("policy produced an invalid decision");
        let metrics = evaluate_decision(&queue.label, self.suite, &queue, &decision);
        self.total_time += metrics.total_time;
        self.events.push(OnlineEvent::WindowScheduled { metrics });
    }

    /// Finish the session and report.
    #[must_use]
    pub fn finish(mut self) -> OnlineReport {
        self.flush();
        OnlineReport {
            events: self.events,
            total_time: self.total_time,
            time_sharing_time: self.time_sharing_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::MpsOnly;
    use hrp_gpusim::GpuArch;

    #[test]
    fn unprofiled_jobs_run_exclusively_then_join_windows() {
        let arch = GpuArch::a100();
        let suite = Suite::paper_suite(&arch);
        let mut repo = ProfileRepository::new(); // cold start: nothing profiled
        let profiler = Profiler::new(arch, 0.02, 3);
        let mut sys = OnlineSystem::new(&suite, MpsOnly, &mut repo, profiler, 4, 4);

        // First submissions are all cold → profiling runs.
        for name in ["lavaMD", "stream", "kmeans", "pathfinder"] {
            sys.submit(name);
        }
        // Re-submissions hit the repository and fill a window of 4.
        for name in ["lavaMD", "stream", "kmeans", "pathfinder"] {
            sys.submit(name);
        }
        let report = sys.finish();
        assert_eq!(report.profiling_runs(), 4);
        let windows = report
            .events
            .iter()
            .filter(|e| matches!(e, OnlineEvent::WindowScheduled { .. }))
            .count();
        assert_eq!(windows, 1);
        // Second wave co-ran, so the whole session beats time sharing.
        assert!(
            report.overall_gain() > 1.0,
            "gain {}",
            report.overall_gain()
        );
    }

    #[test]
    fn flush_schedules_partial_windows() {
        let arch = GpuArch::a100();
        let suite = Suite::paper_suite(&arch);
        let profiler = Profiler::new(arch, 0.02, 3);
        let mut repo = ProfileRepository::for_suite(&suite, &profiler);
        let mut sys = OnlineSystem::new(&suite, MpsOnly, &mut repo, profiler, 8, 4);
        sys.submit("lavaMD");
        sys.submit("stream");
        let report = sys.finish();
        assert_eq!(report.profiling_runs(), 0);
        assert_eq!(report.events.len(), 1);
    }
}
