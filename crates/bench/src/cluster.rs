//! Multi-node placement comparison backing `repro cluster`.
//!
//! One deterministic trace (any [`TraceKind`] from the generator
//! suite) is run through an `N`-node [`MultiNodeSim`] under one or
//! more placement selectors, and through a one-node [`MultiNodeSim`]
//! as the baseline every placement policy is compared against. Each
//! node runs the dispatcher its row's selector kind
//! schedules through ([`dispatcher_for`]: the co-scheduling dispatcher
//! with the evaluation defaults — `W = 4` windows, `Cmax = 4`, the
//! MPS-only node policy, no node-level training required — or, for the
//! backfill tiers, a slot-tree planner of that policy). With
//! `nodes = 1` a least-loaded or round-robin row *is* the baseline run,
//! so it matches it bit-for-bit.
//!
//! The trained-policy row ([`SelectorKind::Policy`]) trains a
//! placement agent through `hrp_cluster::place::train_placement` on
//! traces of the *same kind* as the evaluated one (different derived
//! seeds — the evaluation trace is held out for every seeded kind;
//! the seed-independent `staggered` demo trace is the documented
//! exception) and deploys the frozen snapshot as a
//! [`hrp_core::cluster_env::PolicySelector`].

use hrp_cluster::multinode::{MultiNodeReport, MultiNodeSim};
use hrp_cluster::place::{train_placement, PlacementAgent, PlacementConfig};
use hrp_cluster::select::{dispatcher_for, RoundRobin};
use hrp_cluster::trace::{generate, TraceConfig, TraceKind, EVAL_SEED_OFFSET};
use hrp_cluster::{ClusterJob, ClusterReport, NodeSelector, SelectorKind};
use hrp_core::train::TrainReport;
use hrp_workloads::Suite;

/// GPUs per simulated node.
pub const GPUS_PER_NODE: usize = 2;

/// Share of single-GPU jobs the evaluation traces widen into gangs
/// (see [`TraceConfig::gang_share`]). Gangs block queue heads, which
/// is the load shape the backfill selectors exist for — an all-narrow
/// trace schedules identically under every backfill policy.
pub const EVAL_GANG_SHARE: f64 = 0.25;

/// The evaluation trace for `repro cluster`: `n_jobs` jobs of the
/// given kind at the evaluation GPU bound, with [`EVAL_GANG_SHARE`] of
/// the narrow jobs widened into gangs. The seed is offset from the
/// training-trace stream, so for the seeded kinds a trained policy
/// never evaluates on a trace it trained on. The exception is
/// [`TraceKind::Staggered`], which is seed-independent by design (one
/// fixed demo schedule per job count) — a policy row on the staggered
/// trace reports train-set performance.
#[must_use]
pub fn evaluation_trace(
    suite: &Suite,
    kind: TraceKind,
    n_jobs: usize,
    seed: u64,
) -> Vec<ClusterJob> {
    generate(suite, &evaluation_trace_cfg(kind, n_jobs, seed))
}

/// The [`TraceConfig`] behind [`evaluation_trace`], exposed so callers
/// can layer extra knobs (e.g. `repro cluster --users` tags tenants)
/// onto the same evaluation stream before generating.
#[must_use]
pub fn evaluation_trace_cfg(kind: TraceKind, n_jobs: usize, seed: u64) -> TraceConfig {
    TraceConfig::new(kind, n_jobs, seed ^ EVAL_SEED_OFFSET)
        .max_gpus(GPUS_PER_NODE)
        .gang_share(EVAL_GANG_SHARE)
}

/// The placement-training configuration `repro cluster --selector
/// policy` uses: training traces of the evaluated kind, sized by
/// `--quick`.
#[must_use]
pub fn policy_train_config(
    kind: TraceKind,
    nodes: usize,
    seed: u64,
    quick: bool,
) -> PlacementConfig {
    let mut cfg = if quick {
        PlacementConfig::quick()
    } else {
        PlacementConfig::default_cfg()
    };
    cfg.nodes = nodes;
    cfg.gpus_per_node = GPUS_PER_NODE;
    cfg.trace.kind = kind;
    cfg.trace.seed = seed;
    // Train on the distribution the evaluation trace is drawn from.
    cfg.trace.gang_share = EVAL_GANG_SHARE;
    cfg.seed = seed;
    cfg
}

/// An `N`-node run next to its single-node baseline.
#[derive(Debug)]
pub struct ClusterComparison {
    /// Selector label of the run.
    pub selector: String,
    /// The multi-node run.
    pub report: MultiNodeReport,
    /// The same trace on one node.
    pub baseline: ClusterReport,
}

impl ClusterComparison {
    /// Cluster-makespan speedup over the single-node baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.report.aggregate.makespan > 0.0 {
            self.baseline.makespan / self.report.aggregate.makespan
        } else {
            1.0
        }
    }
}

/// The single-node reference schedule every placement policy is
/// compared against (deterministic; compute it once per trace).
#[must_use]
pub fn single_node_baseline(suite: &Suite, jobs: &[ClusterJob]) -> ClusterReport {
    // Always the co-scheduling dispatcher, whatever the rows run.
    let report = MultiNodeSim::new(1, GPUS_PER_NODE).run(
        suite,
        jobs.to_vec(),
        &mut RoundRobin::new(),
        |_| dispatcher_for(SelectorKind::LeastLoaded, GPUS_PER_NODE, 0.0),
    );
    report.aggregate
}

/// One comparison row: `jobs` on `opts.nodes` nodes placed by
/// `selector` — a selector of `kind`, which also picks the node-local
/// dispatcher ([`dispatcher_for`], backfill tiers over
/// `opts.walltime_err`-noisy estimates) — next to a precomputed
/// single-node `baseline`. The nodes advance on the calling thread;
/// `opts.threads` does not reach this row.
#[must_use]
pub fn compare_row(
    suite: &Suite,
    jobs: &[ClusterJob],
    kind: SelectorKind,
    selector: &mut dyn NodeSelector,
    opts: ComparisonOptions,
    baseline: ClusterReport,
) -> ClusterComparison {
    let sim = MultiNodeSim::new(opts.nodes, GPUS_PER_NODE);
    let report = sim.run(suite, jobs.to_vec(), selector, |_| {
        dispatcher_for(kind, GPUS_PER_NODE, opts.walltime_err)
    });
    ClusterComparison {
        selector: selector.name().to_owned(),
        report,
        baseline,
    }
}

/// The full placement comparison behind `repro cluster`: the evaluated
/// trace run under every requested selector, plus (for
/// [`SelectorKind::Policy`]) the training run that produced the
/// deployed agent.
pub struct PlacementComparison {
    /// One row per selector, in request order.
    pub rows: Vec<ClusterComparison>,
    /// The placement-training report (present iff a policy row was
    /// requested).
    pub training: Option<(PlacementAgent, TrainReport)>,
}

/// Sizing/seeding knobs of a [`placement_comparison`] run.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonOptions {
    /// Simulated nodes.
    pub nodes: usize,
    /// Master seed (trace generation + policy training).
    pub seed: u64,
    /// Use the quick training configuration for policy rows.
    pub quick: bool,
    /// Placement-training rollout workers for policy rows (`0` = auto;
    /// results are identical for any value).
    pub threads: usize,
    /// Walltime-estimate error fraction (`[0, 1)`) the backfill rows
    /// schedule under; ignored by the non-backfill selectors.
    pub walltime_err: f64,
}

/// Run `jobs` under each selector in `kinds` (training a placement
/// agent for [`SelectorKind::Policy`] rows on same-kind traces) and
/// collect the comparison rows.
#[must_use]
pub fn placement_comparison(
    suite: &Suite,
    kinds: &[SelectorKind],
    trace_kind: TraceKind,
    jobs: &[ClusterJob],
    opts: ComparisonOptions,
) -> PlacementComparison {
    let mut training = None;
    // The single-node reference is selector-independent: one run
    // serves every row.
    let baseline = single_node_baseline(suite, jobs);
    let rows = kinds
        .iter()
        .map(|&kind| {
            let mut selector: Box<dyn NodeSelector> = if kind.needs_training() {
                let (agent, _) = training.get_or_insert_with(|| {
                    let mut cfg =
                        policy_train_config(trace_kind, opts.nodes, opts.seed, opts.quick);
                    // Worker count is an execution detail: results are
                    // bit-identical for any value (pipeline guarantee).
                    cfg.n_workers = opts.threads;
                    train_placement(suite, cfg)
                });
                Box::new(agent.selector())
            } else {
                kind.build()
            };
            compare_row(suite, jobs, kind, selector.as_mut(), opts, baseline.clone())
        })
        .collect();
    PlacementComparison { rows, training }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    /// [`compare_row`] for a heuristic `kind`, with the selector built
    /// and the baseline computed on the spot.
    fn one_row(
        suite: &Suite,
        jobs: &[ClusterJob],
        kind: SelectorKind,
        opts: ComparisonOptions,
    ) -> ClusterComparison {
        let baseline = single_node_baseline(suite, jobs);
        compare_row(suite, jobs, kind, kind.build().as_mut(), opts, baseline)
    }

    #[test]
    fn one_node_comparison_is_the_baseline_itself() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let jobs = evaluation_trace(&suite, TraceKind::Staggered, 16, 42);
        let opts = ComparisonOptions {
            nodes: 1,
            ..quick_opts(0.0)
        };
        let cmp = one_row(&suite, &jobs, SelectorKind::RoundRobin, opts);
        assert_eq!(cmp.report.aggregate, cmp.baseline);
        assert!((cmp.speedup() - 1.0).abs() < 1e-12);
        assert_eq!(cmp.selector, "round-robin");
    }

    #[test]
    fn four_nodes_beat_the_single_node_baseline() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        for kind in [SelectorKind::RoundRobin, SelectorKind::LeastLoaded] {
            let jobs = evaluation_trace(&suite, TraceKind::Staggered, 24, 42);
            let cmp = one_row(&suite, &jobs, kind, quick_opts(0.0));
            assert!(
                cmp.speedup() > 1.0,
                "{}: 4 nodes should beat 1 ({} vs {})",
                kind.name(),
                cmp.report.aggregate.makespan,
                cmp.baseline.makespan
            );
            assert_eq!(cmp.report.completed_jobs(), 24);
        }
    }

    fn quick_opts(walltime_err: f64) -> ComparisonOptions {
        ComparisonOptions {
            nodes: 4,
            seed: 42,
            quick: true,
            threads: 1,
            walltime_err,
        }
    }

    #[test]
    fn backfilling_beats_plain_fcfs_on_bursty_and_skewed() {
        // The acceptance bar: EASY and conservative backfilling both
        // produce strictly shorter makespans than strict FCFS on the
        // bursty and skewed evaluation traces — with exact estimates
        // and with ±25 % walltime error.
        let suite = Suite::paper_suite(&GpuArch::a100());
        for kind in [TraceKind::Bursty, TraceKind::Skewed] {
            let jobs = evaluation_trace(&suite, kind, 96, 42);
            let baseline = single_node_baseline(&suite, &jobs);
            for err in [0.0, 0.25] {
                let run = |tier: SelectorKind| {
                    let mut sel = tier.build();
                    let opts = quick_opts(err);
                    compare_row(&suite, &jobs, tier, sel.as_mut(), opts, baseline.clone())
                };
                let fcfs = run(SelectorKind::Fcfs);
                for tier in [SelectorKind::Easy, SelectorKind::Conservative] {
                    let row = run(tier);
                    assert_eq!(row.report.completed_jobs(), 96);
                    assert!(
                        row.report.aggregate.makespan < fcfs.report.aggregate.makespan,
                        "{} (err {err}) must beat fcfs on {}: {} vs {}",
                        tier.name(),
                        kind.name(),
                        row.report.aggregate.makespan,
                        fcfs.report.aggregate.makespan
                    );
                }
            }
        }
    }

    #[test]
    fn easy_backfills_gangs_and_beats_fcfs_on_the_colocate_trace() {
        // The ROADMAP gang-scheduling regression at the baseline
        // level: the colocate trace mixes 2-GPU gangs with narrow
        // jobs, and the slot-tree planner backfills *across* the holes
        // gang waits open up — strict FCFS cannot.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let jobs = evaluation_trace(&suite, TraceKind::Colocate, 96, 42);
        assert!(
            jobs.iter().any(|j| j.gpus > 1),
            "colocate trace must contain gangs"
        );
        let fcfs = one_row(&suite, &jobs, SelectorKind::Fcfs, quick_opts(0.0));
        let easy = one_row(&suite, &jobs, SelectorKind::Easy, quick_opts(0.0));
        assert_eq!(easy.report.completed_jobs(), 96);
        assert!(
            easy.report.aggregate.makespan < fcfs.report.aggregate.makespan,
            "easy must beat fcfs on colocate: {} vs {}",
            easy.report.aggregate.makespan,
            fcfs.report.aggregate.makespan
        );
    }

    #[test]
    fn evaluation_trace_is_disjoint_from_the_training_stream() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let eval = evaluation_trace(&suite, TraceKind::Skewed, 32, 42);
        let cfg = policy_train_config(TraceKind::Skewed, 4, 42, true);
        for (i, train) in hrp_cluster::place::training_traces(&suite, &cfg)
            .iter()
            .enumerate()
        {
            assert_ne!(&eval, train, "training trace {i} equals the eval trace");
        }
    }
}
