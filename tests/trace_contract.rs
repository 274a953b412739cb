//! Property tests (proptest) for the cluster-trace generator suite and
//! the placement selectors running over it:
//!
//! * every generator is seed-deterministic (same config → identical
//!   trace, bit for bit) and actually seed-sensitive;
//! * arrivals are non-decreasing, exactly the configured number of
//!   jobs is emitted, and every job respects the configured GPU bound;
//! * `PolicySelector` job conservation: an (untrained, deterministic)
//!   RL placement policy routed through `MultiNodeSim` arrives,
//!   starts, and finishes every generated job exactly once, with a
//!   thread-count-invariant timeline — extending the
//!   `tests/multinode_contract.rs` guarantees to the generated-trace ×
//!   RL-selector quadrant.

mod common;
use common::test_threads;

use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::place::{PlacementAgent, PlacementConfig};
use hrp::cluster::sim::EventKind;
use hrp::cluster::trace::{generate, TraceConfig, TraceKind, TRACE_KINDS};
use hrp::cluster::CoSchedulingDispatcher;
use hrp::prelude::*;
use proptest::prelude::*;

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

fn kind_strategy() -> impl Strategy<Value = TraceKind> {
    (0usize..TRACE_KINDS.len()).prop_map(|i| TRACE_KINDS[i])
}

fn dispatcher() -> CoSchedulingDispatcher<MpsOnly> {
    CoSchedulingDispatcher::new(MpsOnly, 4, 4)
}

proptest! {
    #[test]
    fn generators_are_seed_deterministic_and_bounded(
        kind in kind_strategy(),
        jobs in 1usize..40,
        seed in 0u64..u64::MAX,
        max_gpus in 1usize..=4,
        gap_scale in 1u32..8,
    ) {
        let s = suite();
        let cfg = TraceConfig::new(kind, jobs, seed)
            .max_gpus(max_gpus)
            .mean_gap(f64::from(gap_scale));
        let a = generate(&s, &cfg);
        let b = generate(&s, &cfg);
        prop_assert_eq!(&a, &b, "same config must yield the identical trace");
        prop_assert_eq!(a.len(), jobs, "job count is exact");
        prop_assert!(
            a.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrivals must be non-decreasing"
        );
        prop_assert!(
            a.iter().all(|j| j.gpus >= 1 && j.gpus <= max_gpus),
            "every job respects the GPU bound"
        );
        prop_assert!(
            a.iter().enumerate().all(|(i, j)| j.id == i),
            "ids are dense and in arrival order"
        );
        prop_assert!(a.iter().all(|j| j.arrival >= 0.0 && j.arrival.is_finite()));
    }

    #[test]
    fn seeded_kinds_are_seed_sensitive(
        kind in kind_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        prop_assume!(kind != TraceKind::Staggered); // seed-independent by design
        let s = suite();
        let a = generate(&s, &TraceConfig::new(kind, 24, seed));
        let b = generate(&s, &TraceConfig::new(kind, 24, seed ^ 0x1)); // adjacent seed
        let c = generate(&s, &TraceConfig::new(kind, 24, seed.wrapping_add(77)));
        // At least one of two different seeds must move the trace (a
        // single adjacent seed may collide on short traces).
        prop_assert!(a != b || a != c, "kind {} ignores its seed", kind.name());
    }

    #[test]
    fn policy_selector_conserves_jobs_on_generated_traces(
        kind in kind_strategy(),
        jobs in 1usize..24,
        seed in 0u64..u64::MAX,
        nodes in 1usize..=4,
    ) {
        let s = suite();
        let trace = generate(&s, &TraceConfig::new(kind, jobs, seed).max_gpus(2));
        // An untrained agent is a deterministic (random-weight) policy:
        // conservation and thread-invariance must hold for it exactly
        // as for the heuristics.
        let mut cfg = PlacementConfig::quick();
        cfg.nodes = nodes;
        let agent = PlacementAgent::untrained(cfg);
        let run = |threads: usize| {
            let mut sel = agent.selector();
            MultiNodeSim::new(nodes, 2)
                .with_threads(threads)
                .run(&s, trace.clone(), &mut sel, |_| dispatcher())
        };
        let report = run(1);
        let mut arrived = vec![0usize; jobs];
        let mut started = vec![0usize; jobs];
        let mut finished = vec![0usize; jobs];
        for e in report.timeline.events.iter() {
            match e.kind {
                EventKind::Arrival { job } => arrived[job] += 1,
                EventKind::Start { job_ids, .. } => {
                    for id in job_ids {
                        started[*id] += 1;
                    }
                }
                EventKind::Finish { job_ids, .. } => {
                    for id in job_ids {
                        finished[*id] += 1;
                    }
                }
            }
        }
        prop_assert!(arrived.iter().all(|&c| c == 1), "every job arrives exactly once");
        prop_assert!(started.iter().all(|&c| c == 1), "every job starts exactly once");
        prop_assert!(finished.iter().all(|&c| c == 1), "every job finishes exactly once");
        prop_assert_eq!(report.completed_jobs(), jobs);
        let routed: usize = report.per_node.iter().map(|p| p.jobs).sum();
        prop_assert_eq!(routed, jobs, "the policy routed every job somewhere");

        // And the RL-policy timeline is invariant to the fan-out width.
        let wide = run(test_threads());
        prop_assert_eq!(&wide, &report, "policy timeline drifted across thread counts");
    }
}
