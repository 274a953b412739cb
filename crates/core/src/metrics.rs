//! Evaluation metrics (paper §V-B): relative throughput, per-application
//! slowdown (Fig. 11) and fairness (Fig. 12).

use crate::problem::ScheduleDecision;
use hrp_workloads::{JobQueue, Suite};

/// Metrics of one scheduling decision over one queue.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueMetrics {
    /// Queue label.
    pub label: String,
    /// Relative throughput normalised to time sharing:
    /// `Σ solo / Σ CoRunTime`.
    pub throughput: f64,
    /// Mean `AppSlowdown(J) = CoRunAppTime(J) / SoloRunAppTime(J)`.
    pub avg_slowdown: f64,
    /// `min(AppSlowdown) / max(AppSlowdown)` (1 = perfectly fair).
    pub fairness: f64,
    /// Total time to drain the window (seconds).
    pub total_time: f64,
    /// Total time-sharing time (seconds).
    pub total_solo: f64,
}

/// Compute the metrics for a decision.
///
/// # Panics
/// Panics if the decision does not cover the queue (validate first).
#[must_use]
pub fn evaluate_decision(
    label: &str,
    suite: &Suite,
    queue: &JobQueue,
    decision: &ScheduleDecision,
) -> QueueMetrics {
    let total_solo = queue.total_solo_time(suite);
    let total_time = decision.total_time();
    let mut slowdowns = Vec::with_capacity(queue.len());
    for g in &decision.groups {
        for (k, &j) in g.job_ids.iter().enumerate() {
            let solo = suite.by_index(queue.jobs[j].bench).app.solo_time;
            slowdowns.push(g.app_times[k] / solo);
        }
    }
    assert_eq!(
        slowdowns.len(),
        queue.len(),
        "decision must cover the queue"
    );
    let avg_slowdown = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    let min = slowdowns.iter().copied().fold(f64::INFINITY, f64::min);
    let max = slowdowns.iter().copied().fold(0.0f64, f64::max);
    QueueMetrics {
        label: label.to_owned(),
        throughput: total_solo / total_time,
        avg_slowdown,
        fairness: if max > 0.0 { min / max } else { 1.0 },
        total_time,
        total_solo,
    }
}

/// Arithmetic mean of a metric across queues (the paper's `AM` column).
#[must_use]
pub fn arithmetic_mean(metrics: &[QueueMetrics], f: impl Fn(&QueueMetrics) -> f64) -> f64 {
    if metrics.is_empty() {
        return 0.0;
    }
    metrics.iter().map(f).sum::<f64>() / metrics.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::evaluate_group;
    use hrp_gpusim::engine::EngineConfig;
    use hrp_gpusim::{GpuArch, PartitionScheme};

    fn fixture() -> (Suite, JobQueue) {
        let arch = GpuArch::a100();
        let suite = Suite::paper_suite(&arch);
        // A duration-matched complementary pair (CI + MI) plus a filler.
        let queue = JobQueue::from_names("t", &["bt_solver_A", "sp_solver_B", "kmeans"], &suite);
        (suite, queue)
    }

    #[test]
    fn time_sharing_metrics_are_unity() {
        let (suite, queue) = fixture();
        let eng = EngineConfig::default();
        let decision = ScheduleDecision {
            groups: (0..3)
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
        let m = evaluate_decision("TS", &suite, &queue, &decision);
        assert!((m.throughput - 1.0).abs() < 1e-6);
        assert!((m.avg_slowdown - 1.0).abs() < 1e-6);
        assert!((m.fairness - 1.0).abs() < 1e-6);
    }

    #[test]
    fn co_running_raises_throughput_and_slowdown() {
        let (suite, queue) = fixture();
        let eng = EngineConfig::default();
        // Co-run the complementary pair, solo the third.
        let pair = evaluate_group(
            &suite,
            &queue,
            &[0, 1],
            &PartitionScheme::mps_only(vec![0.7, 0.3]),
            &[0, 1],
            &eng,
        );
        let solo = evaluate_group(
            &suite,
            &queue,
            &[2],
            &PartitionScheme::exclusive(),
            &[0],
            &eng,
        );
        let decision = ScheduleDecision {
            groups: vec![pair, solo],
        };
        let m = evaluate_decision("CO", &suite, &queue, &decision);
        assert!(m.throughput > 1.0, "throughput {}", m.throughput);
        assert!(m.avg_slowdown > 1.0, "slowdown {}", m.avg_slowdown);
        assert!(m.fairness <= 1.0);
    }

    #[test]
    fn mean_helper_averages() {
        let (suite, queue) = fixture();
        let eng = EngineConfig::default();
        let d = ScheduleDecision {
            groups: (0..3)
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
        let m1 = evaluate_decision("A", &suite, &queue, &d);
        let mut m2 = m1.clone();
        m2.throughput = 3.0;
        let am = arithmetic_mean(&[m1, m2], |m| m.throughput);
        assert!((am - 2.0).abs() < 1e-6);
        assert_eq!(arithmetic_mean(&[], |m| m.throughput), 0.0);
    }
}
