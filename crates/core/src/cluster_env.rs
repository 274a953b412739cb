//! Cluster-level job placement: the [`NodeSelector`] contract, the
//! shared placement state encoding, and the [`PolicySelector`] bridge
//! from a trained RL snapshot to a drop-in selector.
//!
//! The paper's §VI sketch adds a *global* tier above the node-local
//! MIG+MPS partitioning: a job first has to be assigned to a node, and
//! only then does the node-local hierarchy decide how to run it. Liu et
//! al.'s hierarchical cloud framework (see PAPERS.md) trains exactly
//! that global tier with RL. This module holds the pieces both sides of
//! that loop share:
//!
//! * [`NodeSelector`] is the placement contract the multi-node cluster
//!   simulator (`hrp-cluster::multinode`) feeds its global arrival
//!   queue through. Heuristics (round-robin, least-loaded) live in
//!   `hrp-cluster::select`; anything implementing the trait can drive
//!   placement.
//! * [`encode_placement_state`] is the state encoding the placement
//!   environment (`hrp-cluster::place::ClusterEnv`, which replays each
//!   episode through the real multi-node simulator and pays
//!   simulation-derived rewards) and [`PolicySelector`] share, so a
//!   policy trained on simulated episodes sees live loads in the same
//!   coordinates.
//! * [`PolicySelector`] closes the loop: it encodes *live* node loads
//!   and asks a frozen [`GreedyPolicy`] for its action — a learner trained
//!   on placement episodes becomes a drop-in [`NodeSelector`].
//!
//! The environment itself lives in `hrp-cluster` (it drives the
//! event-driven node simulators, which this crate cannot depend on);
//! only the selector-side contract lives here.

use crate::rl::GreedyPolicy;

/// A snapshot of one node's load, as seen by a [`NodeSelector`] when a
/// job arrives. Indexed by node id in the slice handed to
/// [`NodeSelector::select`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLoad {
    /// Node id (equal to the entry's index in the loads slice).
    pub node: usize,
    /// GPUs installed on the node.
    pub total_gpus: usize,
    /// GPUs currently idle.
    pub free_gpus: usize,
    /// Jobs waiting (or en route) on the node.
    pub queued_jobs: usize,
    /// Outstanding GPU-work estimate in seconds: remaining run time of
    /// active placements plus the solo-time of everything queued.
    pub outstanding: f64,
}

impl NodeLoad {
    /// Outstanding work per installed GPU — the queue-delay estimate a
    /// new arrival faces on this node, and the quantity the placement
    /// environment's per-decision reward is phrased in.
    #[must_use]
    pub fn per_gpu_outstanding(&self) -> f64 {
        self.outstanding / self.total_gpus.max(1) as f64
    }
}

/// The global placement tier: picks the node for each arriving job.
///
/// Selectors are consulted in global arrival order with a load
/// snapshot per node; the cluster simulator updates the snapshot after
/// every assignment, so a burst of simultaneous arrivals spreads out
/// rather than dog-piling the momentarily-least-loaded node. The
/// contract is deterministic: the same arrival sequence and loads must
/// yield the same node, which is what keeps the merged cluster
/// timeline independent of simulation thread count. Selectors must
/// not read wall clocks, thread ids, or other ambient state — only the
/// arguments and `self`.
pub trait NodeSelector {
    /// Human-readable name (CLI/report label).
    fn name(&self) -> &'static str;

    /// Choose a node for a job needing `gpus` GPUs and roughly `work`
    /// seconds. `loads` has one entry per node, indexed by node id;
    /// the returned id must be a valid index into it.
    fn select(&mut self, gpus: usize, work: f64, loads: &[NodeLoad]) -> usize;
}

/// The bitmask of nodes that can ever host a `gpus`-wide job — the
/// valid-action mask of the placement decision, shared between the
/// placement environment and [`PolicySelector`] so training and
/// deployment mask identically.
#[must_use]
pub fn placement_fit_mask(loads: &[NodeLoad], gpus: usize) -> u64 {
    loads
        .iter()
        .enumerate()
        .filter(|(_, l)| l.total_gpus >= gpus)
        .fold(0u64, |m, (i, _)| m | (1 << i))
}

/// The width of a placement state over `nodes` nodes: two floats per
/// node and two for the arriving job (see [`encode_placement_state`]).
#[must_use]
pub fn placement_state_dim(nodes: usize) -> usize {
    2 * (nodes + 1)
}

/// Encode a placement decision state: for every node, its normalised
/// outstanding work and free-GPU share, then the arriving job's GPU
/// share and normalised work. The layout
/// ([`placement_state_dim`] floats) is shared
/// between the placement environment's `state_into` and
/// [`PolicySelector`], so a policy trained on simulated episodes sees
/// live loads in the same coordinates.
pub fn encode_placement_state(loads: &[NodeLoad], gpus: usize, work: f64, out: &mut Vec<f32>) {
    out.clear();
    let scale = 1.0 + loads.iter().map(|l| l.outstanding).fold(0.0, f64::max);
    let mut total = 0usize;
    for l in loads {
        out.push((l.outstanding / scale) as f32);
        out.push(l.free_gpus as f32 / l.total_gpus.max(1) as f32);
        total += l.total_gpus;
    }
    out.push(gpus as f32 / total.max(1) as f32);
    out.push((work / scale) as f32);
}

/// A [`NodeSelector`] driven by a frozen [`GreedyPolicy`]: live node
/// loads are encoded exactly as the placement environment encodes its
/// simulated ones, and the policy picks greedily — deterministic, ties
/// to the lowest node id, with the encode scratch reused so a
/// steady-state decision performs **zero heap allocations**.
pub struct PolicySelector<P> {
    policy: P,
    scratch: Vec<f32>,
}

impl<P: GreedyPolicy> PolicySelector<P> {
    /// Wrap a frozen policy (e.g. a [`crate::rl::Learner`] snapshot
    /// trained on `hrp-cluster::place::ClusterEnv` episodes).
    #[must_use]
    pub fn new(policy: P) -> Self {
        Self {
            policy,
            scratch: Vec::new(),
        }
    }
}

impl<P: GreedyPolicy> NodeSelector for PolicySelector<P> {
    fn name(&self) -> &'static str {
        "policy"
    }

    fn select(&mut self, gpus: usize, work: f64, loads: &[NodeLoad]) -> usize {
        let mask = placement_fit_mask(loads, gpus);
        assert!(mask != 0, "no node can host a {gpus}-GPU job");
        encode_placement_state(loads, gpus, work, &mut self.scratch);
        self.policy.greedy(&self.scratch, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(outstanding: &[f64]) -> Vec<NodeLoad> {
        outstanding
            .iter()
            .enumerate()
            .map(|(node, &o)| NodeLoad {
                node,
                total_gpus: 2,
                free_gpus: 2,
                queued_jobs: 0,
                outstanding: o,
            })
            .collect()
    }

    #[test]
    fn encoding_has_two_floats_per_node_plus_job_features() {
        let l = loads(&[4.0, 0.0, 9.0]);
        let mut out = Vec::new();
        encode_placement_state(&l, 1, 5.0, &mut out);
        assert_eq!(out.len(), 2 * 3 + 2);
        // Outstanding is normalised by 1 + the maximum.
        assert!((out[0] - 0.4).abs() < 1e-6);
        assert!((out[4] - 0.9).abs() < 1e-6);
        // Free share is per-node.
        assert!((out[1] - 1.0).abs() < 1e-6);
        // Job features: GPU share of the cluster, normalised work.
        assert!((out[6] - 1.0 / 6.0).abs() < 1e-6);
        assert!((out[7] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn per_gpu_outstanding_divides_by_capacity() {
        let l = NodeLoad {
            node: 0,
            total_gpus: 4,
            free_gpus: 1,
            queued_jobs: 3,
            outstanding: 10.0,
        };
        assert!((l.per_gpu_outstanding() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fit_mask_drops_too_small_nodes() {
        let mut l = loads(&[0.0, 0.0, 0.0]);
        l[1].total_gpus = 1;
        assert_eq!(placement_fit_mask(&l, 2), 0b101);
        assert_eq!(placement_fit_mask(&l, 1), 0b111);
        assert_eq!(placement_fit_mask(&l, 3), 0);
    }

    /// A fixed policy: always the highest valid bit.
    struct TopBit;
    impl GreedyPolicy for TopBit {
        fn greedy(&mut self, _s: &[f32], mask: u64) -> usize {
            (63 - mask.leading_zeros()) as usize
        }
    }

    #[test]
    fn policy_selector_respects_the_fit_mask() {
        let mut sel = PolicySelector::new(TopBit);
        let loads: Vec<NodeLoad> = (0..3)
            .map(|node| NodeLoad {
                node,
                total_gpus: if node == 2 { 1 } else { 4 },
                free_gpus: 1,
                queued_jobs: 0,
                outstanding: 0.0,
            })
            .collect();
        // Node 2 cannot ever host a 2-GPU job, so the top *valid* bit
        // is node 1.
        assert_eq!(sel.select(2, 5.0, &loads), 1);
        assert_eq!(sel.select(1, 5.0, &loads), 2);
        assert_eq!(sel.name(), "policy");
    }

    #[test]
    #[should_panic(expected = "no node can host")]
    fn policy_selector_rejects_unplaceable_jobs() {
        let mut sel = PolicySelector::new(TopBit);
        let _ = sel.select(4, 5.0, &loads(&[0.0, 0.0]));
    }
}
