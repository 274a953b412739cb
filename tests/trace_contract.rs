//! Property tests (proptest) for the cluster-trace generator suite and
//! the placement selectors running over it:
//!
//! * every generator is seed-deterministic (same config → identical
//!   trace, bit for bit) and actually seed-sensitive;
//! * arrivals are non-decreasing, exactly the configured number of
//!   jobs is emitted, and every job respects the configured GPU bound;
//! * `PolicySelector` job conservation: an (untrained, deterministic)
//!   RL placement policy routed through `MultiNodeSim` arrives,
//!   starts, and finishes every generated job exactly once — extending
//!   the conservation checker of `tests/oracle.rs`, whose cases cover
//!   the heuristic selectors, to the generated-trace × RL-selector
//!   quadrant.

mod common;
use common::harness::{conservation, Run};

use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::place::{PlacementAgent, PlacementConfig};
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
        // conservation must hold for it exactly as for the heuristics.
        let mut cfg = PlacementConfig::quick();
        cfg.nodes = nodes;
        let agent = PlacementAgent::untrained(cfg);
        let mut sel = agent.selector();
        let report = MultiNodeSim::new(nodes, 2).run(&s, trace, &mut sel, |_| dispatcher());
        conservation(&Run::batch("policy selector".into(), report), jobs, &format!("{kind:?}"));
    }
}
