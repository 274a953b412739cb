//! Cluster-level job descriptions.

use hrp_workloads::Suite;

/// A job submitted to the cluster: a benchmark instance plus the
/// submission metadata the paper's §VI extension uses (arrival time and
/// the GPU count "retrieved from the corresponding job script").
///
/// Every trace, node queue and admission log holds one per job, so the
/// bench index and GPU count are `u16`s and the job packs into 24 bytes.
/// The constructors take `usize`s and narrow with a check.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterJob {
    /// Unique id.
    pub id: usize,
    /// Index into the suite — the job's identity as a workload; its
    /// name is `suite.by_index(usize::from(bench)).app.name`.
    pub bench: u16,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// GPUs requested (≥ 1). Multi-GPU jobs gang-schedule exclusively.
    pub gpus: u16,
    /// Submitting tenant. `0` is the untagged default; traces generated
    /// with [`crate::trace::TraceConfig::users`] ≥ 2 draw Zipf-skewed ids
    /// in `0..users`.
    pub user: u32,
}

impl ClusterJob {
    /// Build a job, resolving the benchmark against the suite.
    ///
    /// # Panics
    /// Panics on unknown benchmark names, and as [`ClusterJob::indexed`]
    /// does.
    #[must_use]
    pub fn new(id: usize, name: &str, arrival: f64, gpus: usize, suite: &Suite) -> Self {
        let bench = suite
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown benchmark '{name}'"));
        Self::indexed(id, bench, arrival, gpus)
    }

    /// Build an untagged job from an already resolved bench index — what
    /// the generators emit, skipping [`ClusterJob::new`]'s
    /// O(|suite|) name lookup. Both counts narrow with a check.
    ///
    /// # Panics
    /// Panics if `gpus` is 0, or if `bench` or `gpus` exceeds
    /// `u16::MAX`.
    #[must_use]
    pub fn indexed(id: usize, bench: usize, arrival: f64, gpus: usize) -> Self {
        assert!(gpus >= 1, "a job needs at least one GPU");
        Self {
            id,
            bench: u16::try_from(bench).expect("bench index fits a u16"),
            arrival,
            gpus: u16::try_from(gpus).expect("a job requests at most 65 535 GPUs"),
            user: 0,
        }
    }

    /// The job's solo runtime on one full GPU (multi-GPU jobs are modelled
    /// as perfectly strong-scaled across their GPUs, the optimistic case).
    #[must_use]
    pub fn solo_time(&self, suite: &Suite) -> f64 {
        suite.by_index(usize::from(self.bench)).app.solo_time / f64::from(self.gpus)
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

    /// The job is what every trace, queue and admission log holds
    /// per entry: a new field shows here as a size change.
    #[test]
    fn a_cluster_job_is_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<ClusterJob>(), 24);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let _ = ClusterJob::new(0, "nope", 0.0, 1, &suite);
    }
}
