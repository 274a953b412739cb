//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repository root is generated from these tables (`hrp-benchmark
//! manifest`) and a test keeps the two equal.

use crate::tracer::Span;
use std::fmt::Write as _;

/// How long one run measures unless `--seconds` says otherwise — the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 20;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Trained placement policy over streamed bursty traces, with a
    /// kill/restore in every pass.
    ServePolicySteady,
    /// EASY backfilling under 1.4× overload with quota and SLO.
    ServeBackfillOverload,
    /// The batch multi-node engine on heavy-tail traces.
    BatchDesHeavytail,
    /// Hierarchical MIG→MPS DQN training at the paper's geometry.
    TrainHier,
}

impl WorkloadKind {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [WorkloadKind; 4] = [
        Self::ServePolicySteady,
        Self::ServeBackfillOverload,
        Self::BatchDesHeavytail,
        Self::TrainHier,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ServePolicySteady => "serve_policy_steady",
            Self::ServeBackfillOverload => "serve_backfill_overload",
            Self::BatchDesHeavytail => "batch_des_heavytail",
            Self::TrainHier => "train_hier",
        }
    }

    /// Parse a `--workload` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark (one line, ≤ 200 chars).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Self::ServePolicySteady => {
                "the deployed path: state encode, FastPolicy inference, co-scheduling dispatch, \
                 dirty-set skipping, karma ordering and HRPS kill/restore do the work; backfill is bypassed"
            }
            Self::ServeBackfillOverload => {
                "the same service the other way: LoadGen at 1.4x capacity, EASY backfill planner, \
                 heuristic tier, and the reject/defer/revisit paths; inference and checkpoints are bypassed"
            }
            Self::BatchDesHeavytail => {
                "node advance, the co-run model and the timeline merge of the batch engine alone; \
                 serve, admission, inference and backfill are bypassed, so changes there must not move it"
            }
            Self::TrainHier => {
                "the paper's headline path: hierarchical MIG->MPS dueling double DQN training, \
                 dominated by the learner's batched forward/backward/Adam; nothing cluster-side runs"
            }
        }
    }

    /// What one work unit of `throughput_per_s` is.
    #[must_use]
    pub fn unit_of_work(self) -> &'static str {
        match self {
            Self::ServePolicySteady => "placement decisions",
            Self::ServeBackfillOverload => "offered arrivals",
            Self::BatchDesHeavytail => "simulated jobs",
            Self::TrainHier => "environment steps",
        }
    }

    /// What one timed operation of the latency metrics is.
    #[must_use]
    pub fn op(self) -> &'static str {
        match self {
            Self::ServePolicySteady | Self::ServeBackfillOverload => "SchedulerService::step cycle",
            Self::BatchDesHeavytail => "MultiNodeSim::run pass",
            Self::TrainHier => "Learner::learn gradient step",
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // The tail as a multiple of the median: the host's speed state
    // moves both alike, a fatter tail moves only this.
    EndToEnd {
        name: "latency_tail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "makespan_sim_s",
        // Simulated seconds: exact for a seed, so not a host time.
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
];

/// One per-layer counter or ratio of the traced run (the span metrics
/// are derived from [`Span::ALL`]).
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn counter(name: &'static str, unit: &'static str, better: Better) -> Counter {
    Counter { name, unit, better }
}

/// The per-layer counters and ratios, exact for a seed unless the
/// README marks them host-dependent.
pub const COUNTERS: [Counter; 26] = [
    counter("serve.service.cycles", "count", Better::Lower),
    counter("serve.service.wake_cycles", "count", Better::Lower),
    counter("serve.service.decisions", "count", Better::Higher),
    counter("serve.service.jobs_per_cycle", "ratio", Better::Higher),
    counter("serve.service.nodes_replanned", "count", Better::Lower),
    counter("serve.service.nodes_skipped", "count", Better::Higher),
    counter("serve.service.skip_ratio", "ratio", Better::Higher),
    counter("serve.admission.deferred_share", "ratio", Better::Lower),
    counter("serve.admission.rejected_share", "ratio", Better::Lower),
    counter("cluster.fair.jain_index", "ratio", Better::Higher),
    counter("serve.checkpoint.bytes", "count", Better::Lower),
    counter("serve.service.overhead_ms", "ms", Better::Lower),
    counter("cluster.multinode.sync_rounds", "count", Better::Lower),
    counter("cluster.multinode.node_advances", "count", Better::Lower),
    counter("cluster.multinode.events_per_job", "ratio", Better::Lower),
    counter("cluster.multinode.threads2_ratio", "ratio", Better::Lower),
    counter("core.train.episodes", "count", Better::Higher),
    counter("core.train.env_steps", "count", Better::Higher),
    counter("nn.dqn.learn_steps", "count", Better::Higher),
    counter("nn.dqn.noop_learns", "count", Better::Lower),
    counter("core.train.rollout_share", "ratio", Better::Lower),
    counter("core.train.learner_share", "ratio", Better::Lower),
    counter("alloc.count_per_op", "count", Better::Lower),
    counter("alloc.bytes_per_op", "count", Better::Lower),
    counter("trace.overhead_ratio", "ratio", Better::Lower),
    counter("trace.unattributed_share", "ratio", Better::Lower),
];

/// The spans that are reported as `<name>.calls` and `<name>.self_ms`
/// (every span but the benchmark's own root).
pub fn reported_spans() -> impl Iterator<Item = Span> {
    Span::ALL.iter().copied().filter(|s| *s != Span::BenchPass)
}

/// Name, unit and direction of every per-layer metric, in the order
/// `BENCHMARK.json` lists them.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for span in reported_spans() {
        out.push((format!("{}.calls", span.name()), "count", Better::Lower));
        out.push((format!("{}.self_ms", span.name()), "ms", Better::Lower));
    }
    out.extend(
        COUNTERS
            .iter()
            .map(|c| (c.name.to_owned(), c.unit, c.better)),
    );
    out
}

/// The text of `BENCHMARK.json`.
#[must_use]
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WorkloadKind::ALL.iter().enumerate() {
        let comma = if i + 1 < WorkloadKind::ALL.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better.word()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn the_tables_stay_inside_the_contract() {
        let mut names: Vec<String> = WorkloadKind::ALL.iter().map(|w| w.name().into()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_owned()));
        names.extend(per_layer().into_iter().map(|m| m.0));
        for n in &names {
            assert!(well_formed_name(n), "{n}");
            assert_eq!(
                names.iter().filter(|m| *m == n).count(),
                1,
                "{n} is used once"
            );
        }
        assert!(per_layer().len() <= 128);
        for w in WorkloadKind::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains(['\n', '"']),
                "{}",
                w.name()
            );
            assert_eq!(WorkloadKind::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(manifest().len() < 64 * 1024);
    }
}
