//! The full §V evaluation: five policies × twelve queues, plus the
//! window-size / Cmax scaling studies and the ablations.
//!
//! Every policy run fans out over its queues, each decision independent,
//! on scoped threads ([`hrp_core::par::for_each_mut`]), capped by an
//! explicit `threads` argument (`0` = available parallelism) that the
//! `repro` binary surfaces as `--threads`. Results are collected in
//! item order, so evaluation output is identical for any thread count.

use hrp_core::metrics::{arithmetic_mean, evaluate_decision, QueueMetrics};
use hrp_core::par::for_each_mut;
use hrp_core::policies::{
    window_profiler, MigMpsDefault, MigMpsRl, MigOnly, MpsOnly, Policy, ScheduleContext,
    TimeSharing,
};
use hrp_core::rl::EnvKind;
use hrp_core::train::{train, TrainConfig, TrainedAgent};
use hrp_core::ProfileRepository;
use hrp_workloads::{queue::table_v_queues, JobQueue, MixCategory, QueueGenerator, Suite};
use std::time::Instant;

/// One policy's results across all queues.
#[derive(Debug, Clone)]
pub struct PolicyEval {
    /// Policy display name.
    pub policy: String,
    /// Per-queue metrics, aligned with the evaluation queues.
    pub metrics: Vec<QueueMetrics>,
}

impl PolicyEval {
    /// Arithmetic-mean throughput (the paper's `AM`).
    #[must_use]
    pub fn mean_throughput(&self) -> f64 {
        arithmetic_mean(&self.metrics, |m| m.throughput)
    }

    /// Arithmetic-mean application slowdown.
    #[must_use]
    pub fn mean_slowdown(&self) -> f64 {
        arithmetic_mean(&self.metrics, |m| m.avg_slowdown)
    }

    /// Arithmetic-mean fairness.
    #[must_use]
    pub fn mean_fairness(&self) -> f64 {
        arithmetic_mean(&self.metrics, |m| m.fairness)
    }
}

/// Results of one full evaluation.
pub struct FullEvaluation {
    /// Window size used.
    pub w: usize,
    /// Concurrency cap used.
    pub cmax: usize,
    /// The evaluation queues (Table V for W = 12, generated otherwise).
    pub queues: Vec<JobQueue>,
    /// One entry per policy, in the paper's legend order.
    pub runs: Vec<PolicyEval>,
    /// Offline training wall time (seconds).
    pub train_secs: f64,
    /// Mean online decision latency per window (milliseconds).
    pub online_decision_ms: f64,
    /// The trained agent (for reuse / ablations).
    pub trained: TrainedAgent,
}

/// Build the evaluation queues: the exact Table V mixes when `w == 12`,
/// otherwise twelve generated queues (three per category) with the same
/// structure.
#[must_use]
pub fn evaluation_queues(suite: &Suite, w: usize, seed: u64) -> Vec<JobQueue> {
    if w == 12 {
        return table_v_queues(suite);
    }
    let mut gen = QueueGenerator::new(seed ^ 0xe7a1);
    let mut queues = Vec::with_capacity(12);
    for (qi, cat) in MixCategory::ALL.iter().enumerate() {
        for v in 0..3 {
            let label = format!("Q{}", qi * 3 + v + 1);
            queues.push(gen.category_queue(suite, &label, w, *cat, false));
        }
    }
    queues
}

/// The repository an evaluation's policies read their window profiles
/// from: every bench of `suite`, profiled once by [`window_profiler`].
#[must_use]
pub fn evaluation_repository(suite: &Suite) -> ProfileRepository {
    ProfileRepository::for_suite(suite, &window_profiler(suite.arch().clone()))
}

/// Evaluate one policy over all queues (queues in parallel — each
/// decision is independent), reading profiles from `repo`. `threads`
/// caps the worker count (`0` = available parallelism).
#[must_use]
pub fn eval_policy(
    suite: &Suite,
    repo: &ProfileRepository,
    queues: &[JobQueue],
    cmax: usize,
    policy: &(dyn Policy + Sync),
    threads: usize,
) -> PolicyEval {
    let mut metrics: Vec<Option<QueueMetrics>> = vec![None; queues.len()];
    for_each_mut(&mut metrics, threads, |i, out| {
        let queue = &queues[i];
        let ctx = ScheduleContext::new(suite, queue, repo, cmax);
        let decision = policy.schedule(&ctx);
        decision
            .validate(queue, cmax, false)
            .unwrap_or_else(|e| panic!("{}: invalid decision: {e}", policy.name()));
        *out = Some(evaluate_decision(&queue.label, suite, queue, &decision));
    });
    PolicyEval {
        policy: policy.name().to_owned(),
        metrics: metrics.into_iter().flatten().collect(),
    }
}

/// Run the complete comparison (Fig. 8/11/12 source data). Evaluation
/// fan-out reuses the training config's `n_workers` as its thread cap.
///
/// With [`TrainConfig::env`] = [`EnvKind::Hierarchical`] the comparison
/// gains a sixth row: a *flat*-formulation agent is trained with the
/// same knobs, so the table reports the hierarchical agent alongside
/// the flat env and the heuristic policies.
#[must_use]
pub fn run_full(suite: &Suite, train_cfg: TrainConfig) -> FullEvaluation {
    let w = train_cfg.w;
    let cmax = train_cfg.cmax;
    let threads = train_cfg.n_workers;
    let queues = evaluation_queues(suite, w, train_cfg.seed);
    let repo = evaluation_repository(suite);

    let t0 = Instant::now();
    let (trained, _report) = train(suite, train_cfg.clone());
    let train_secs = t0.elapsed().as_secs_f64();

    // The flat-formulation reference agent for hierarchical runs.
    let flat_rl = (train_cfg.env == EnvKind::Hierarchical).then(|| {
        let mut flat_cfg = train_cfg;
        flat_cfg.env = EnvKind::Flat;
        let (flat_trained, _) = train(suite, flat_cfg);
        MigMpsRl::new(flat_trained)
    });

    // Fit the fixed-layout baseline on the evaluation queues (the paper
    // picks the MIG partitioning maximising their average throughput).
    let ctxs: Vec<ScheduleContext<'_>> = queues
        .iter()
        .map(|q| ScheduleContext::new(suite, q, &repo, cmax))
        .collect();
    let default_policy = MigMpsDefault::fit(&ctxs);

    // Online decision latency: greedy rollouts only (the simulated
    // co-runs inside are the environment, not agent work, but the paper
    // measures end-to-end decision overhead the same way).
    let t1 = Instant::now();
    for q in &queues {
        let _ = trained.greedy_decision(suite, q);
    }
    let online_decision_ms = t1.elapsed().as_secs_f64() * 1e3 / queues.len() as f64;

    let rl_policy = MigMpsRl::new(trained);
    let mut policies: Vec<&(dyn Policy + Sync)> =
        vec![&TimeSharing, &MigOnly, &MpsOnly, &default_policy];
    if let Some(flat) = &flat_rl {
        policies.push(flat);
    }
    policies.push(&rl_policy);
    let runs: Vec<PolicyEval> = policies
        .iter()
        .map(|p| eval_policy(suite, &repo, &queues, cmax, *p, threads))
        .collect();

    FullEvaluation {
        w,
        cmax,
        queues,
        runs,
        train_secs,
        online_decision_ms,
        trained: rl_policy.into_inner(),
    }
}

/// Reward-shaping ablation: train with r_i only, r_f only, and both;
/// report mean throughput on the evaluation queues.
#[must_use]
pub fn ablate_reward(suite: &Suite, base: TrainConfig) -> Vec<(String, f64)> {
    let variants = [
        ("r_i + r_f (paper)", base.ri_weight, base.rf_weight),
        ("r_i only", base.ri_weight, 0.0),
        ("r_f only", 0.0, base.rf_weight),
    ];
    let queues = evaluation_queues(suite, base.w, base.seed);
    let repo = evaluation_repository(suite);
    variants
        .iter()
        .map(|(name, ri, rf)| {
            let mut cfg = base.clone();
            cfg.ri_weight = *ri;
            cfg.rf_weight = *rf;
            let (trained, _) = train(suite, cfg);
            let policy = MigMpsRl::new(trained);
            let run = eval_policy(suite, &repo, &queues, base.cmax, &policy, base.n_workers);
            ((*name).to_owned(), run.mean_throughput())
        })
        .collect()
}

/// Agent-architecture ablation: dueling double DQN (paper) vs plain
/// variants.
#[must_use]
pub fn ablate_agent(suite: &Suite, base: TrainConfig) -> Vec<(String, f64)> {
    let variants = [
        ("dueling + double (paper)", true, true),
        ("dueling only", true, false),
        ("double only", false, true),
        ("plain DQN", false, false),
    ];
    let queues = evaluation_queues(suite, base.w, base.seed);
    let repo = evaluation_repository(suite);
    variants
        .iter()
        .map(|(name, dueling, double)| {
            let mut cfg = base.clone();
            cfg.dueling = *dueling;
            cfg.double = *double;
            let (trained, _) = train(suite, cfg);
            let policy = MigMpsRl::new(trained);
            let run = eval_policy(suite, &repo, &queues, base.cmax, &policy, base.n_workers);
            ((*name).to_owned(), run.mean_throughput())
        })
        .collect()
}

/// Interference ablation: on an interference-free counterfactual GPU,
/// the gap between memory-isolating (MIG) and purely logical (MPS)
/// partitioning should collapse. Returns
/// `(interference_factor, mps_only_mean, mig_only_mean)` rows; each
/// factor's queues are evaluated concurrently (bounded by `threads`).
#[must_use]
pub fn ablate_interference(
    suite: &Suite,
    w: usize,
    cmax: usize,
    seed: u64,
    threads: usize,
) -> Vec<(f64, f64, f64)> {
    // Factors stay serial; the fan-out lives in the per-queue
    // evaluation underneath, which has 12 units of work per policy to
    // the factors' 3.
    [1.0, 0.5, 0.0]
        .into_iter()
        .map(|factor| {
            // Profile the counterfactual suite itself: its apps are the
            // ones the windows run.
            let scaled = suite.with_interference_scaled(factor);
            let repo = evaluation_repository(&scaled);
            let queues = evaluation_queues(&scaled, w, seed);
            let mps = eval_policy(&scaled, &repo, &queues, cmax, &MpsOnly, threads);
            let mig = eval_policy(&scaled, &repo, &queues, 2.min(cmax), &MigOnly, threads);
            (factor, mps.mean_throughput(), mig.mean_throughput())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    fn quick_cfg() -> TrainConfig {
        let mut cfg = TrainConfig::quick();
        cfg.episodes = 80;
        cfg
    }

    #[test]
    fn evaluation_queues_shapes() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let q12 = evaluation_queues(&suite, 12, 1);
        assert_eq!(q12.len(), 12);
        assert_eq!(q12[0].label, "Q1");
        assert!(q12.iter().all(|q| q.len() == 12));
        let q8 = evaluation_queues(&suite, 8, 1);
        assert_eq!(q8.len(), 12);
        assert!(q8.iter().all(|q| q.len() == 8));
    }

    #[test]
    fn full_run_produces_expected_ordering() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let full = run_full(&suite, quick_cfg());
        assert_eq!(full.runs.len(), 5);
        let tp: Vec<f64> = full.runs.iter().map(PolicyEval::mean_throughput).collect();
        // Time sharing is the unit baseline.
        assert!((tp[0] - 1.0).abs() < 1e-6);
        // Every co-scheduling policy beats it on average.
        for (i, t) in tp.iter().enumerate().skip(1) {
            assert!(*t > 1.0, "policy {} mean {t} ≤ 1", full.runs[i].policy);
        }
        assert!(full.train_secs > 0.0);
        assert!(full.online_decision_ms >= 0.0);
    }

    #[test]
    fn hierarchical_run_adds_flat_reference_row() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut cfg = quick_cfg();
        cfg.episodes = 40;
        cfg.env = EnvKind::Hierarchical;
        let full = run_full(&suite, cfg);
        assert_eq!(full.runs.len(), 6, "hier run reports both RL rows");
        let names: Vec<&str> = full.runs.iter().map(|r| r.policy.as_str()).collect();
        assert!(names.contains(&"MIG+MPS w/ RL"), "flat reference present");
        assert_eq!(*names.last().unwrap(), "MIG+MPS w/ RL (hier)");
        // Every row produced a metric per queue.
        for run in &full.runs {
            assert_eq!(run.metrics.len(), full.queues.len(), "{}", run.policy);
        }
    }

    #[test]
    fn interference_ablation_closes_the_gap() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let rows = ablate_interference(&suite, 6, 4, 3, 0);
        assert_eq!(rows.len(), 3);
        let gap_full = rows[0].2 / rows[0].1; // mig/mps at full interference
        let gap_none = rows[2].2 / rows[2].1; // ... with none
        assert!(
            gap_none < gap_full + 1e-9,
            "isolating memory should matter less without interference: {gap_none} vs {gap_full}"
        );
    }
}
