//! Cluster-level job descriptions.

use hrp_workloads::Suite;

/// A job submitted to the cluster: a benchmark instance plus the
/// submission metadata the paper's §VI extension uses (arrival time and
/// the GPU count "retrieved from the corresponding job script").
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterJob {
    /// Unique id.
    pub id: usize,
    /// Index into the suite — the job's identity as a workload; its
    /// name is `suite.by_index(bench).app.name`.
    pub bench: usize,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// GPUs requested (≥ 1). Multi-GPU jobs gang-schedule exclusively.
    pub gpus: usize,
    /// Submitting tenant. `0` is the untagged default; traces generated
    /// with [`crate::trace::TraceConfig::users`] ≥ 2 draw Zipf-skewed ids
    /// in `0..users`.
    pub user: u32,
}

impl ClusterJob {
    /// Build a job, resolving the benchmark against the suite.
    ///
    /// # Panics
    /// Panics on unknown benchmark names.
    #[must_use]
    pub fn new(id: usize, name: &str, arrival: f64, gpus: usize, suite: &Suite) -> Self {
        assert!(gpus >= 1, "a job needs at least one GPU");
        Self {
            id,
            bench: suite
                .index_of(name)
                .unwrap_or_else(|| panic!("unknown benchmark '{name}'")),
            arrival,
            gpus,
            user: 0,
        }
    }

    /// The job's solo runtime on one full GPU (multi-GPU jobs are modelled
    /// as perfectly strong-scaled across their GPUs, the optimistic case).
    #[must_use]
    pub fn solo_time(&self, suite: &Suite) -> f64 {
        suite.by_index(self.bench).app.solo_time / self.gpus as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    #[test]
    fn job_resolves_and_scales() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let j1 = ClusterJob::new(0, "lavaMD", 0.0, 1, &suite);
        let j2 = ClusterJob::new(1, "lavaMD", 5.0, 2, &suite);
        assert!((j1.solo_time(&suite) - 38.0).abs() < 1e-9);
        assert!((j2.solo_time(&suite) - 19.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let _ = ClusterJob::new(0, "nope", 0.0, 1, &suite);
    }
}
