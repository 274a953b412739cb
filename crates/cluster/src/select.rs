//! What a [`SelectorKind`] means, for both tiers of the paper's §VI
//! sketch.
//!
//! * **The global tier** places each arrival on a node, consulted by
//!   [`crate::multinode::MultiNodeSim`] and `hrp-serve` for every
//!   arrival: the [`NodeSelector`] implementations [`RoundRobin`],
//!   [`LeastLoaded`], [`BackfillTier`] and (via the trait re-exported
//!   from `hrp-core`) [`hrp_core::cluster_env::PolicySelector`] wrapping
//!   a trained RL snapshot. [`SelectorKind::build`] builds the heuristic
//!   ones.
//! * **The node tier** is what each node runs under that kind:
//!   [`dispatcher_for`] is the one constructor of node-local
//!   dispatchers ([`NodeDispatcher`]), over the one [`NODE_W`] /
//!   [`NODE_CMAX`] window pair. The backfill kinds name the node-*local*
//!   regime of §VI's light-load comparator ("FCFS with backfilling
//!   without co-scheduling", [`crate::backfill`]); every other kind, the
//!   trained policy included, co-schedules.
//!
//! `repro cluster`, every `hrp-serve` tier, their batch oracles and
//! placement training ([`crate::place`]) all read a kind through this
//! module, which is what keeps service and batch digests comparable per
//! selector.

use crate::backfill::{BackfillPlanner, BackfillPolicy};
use crate::cosched::CoSchedulingDispatcher;
use crate::job::ClusterJob;
use crate::sim::{Dispatcher, Placement};
pub use hrp_core::cluster_env::{NodeLoad, NodeSelector, PolicySelector};
use hrp_core::policies::MpsOnly;
use hrp_workloads::Suite;

/// Cyclic placement: job `k` goes to node `k mod N`, ignoring load.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A selector starting at node 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A selector that has already made `cursor` selections (live
    /// checkpoint restore: the cursor is the only state the round-robin
    /// tier carries).
    #[must_use]
    pub fn with_cursor(cursor: usize) -> Self {
        Self { next: cursor }
    }
}

impl NodeSelector for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn select(&mut self, _gpus: usize, _work: f64, loads: &[NodeLoad]) -> usize {
        let node = self.next % loads.len();
        self.next = self.next.wrapping_add(1);
        node
    }
}

/// Greedy placement: the node with the least outstanding GPU-work
/// (ties go to the lowest node id, keeping placement deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl NodeSelector for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn select(&mut self, _gpus: usize, _work: f64, loads: &[NodeLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.outstanding.total_cmp(&b.1.outstanding))
            .map(|(i, _)| i)
            .expect("at least one node")
    }
}

/// CLI-facing selector choice (`repro --selector ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// A trained RL [`PolicySelector`] (see `hrp_cluster::place`):
    /// needs a training run or checkpoint, so [`SelectorKind::build`]
    /// cannot construct it — callers train via
    /// `place::train_placement` and deploy `PlacementAgent::selector`.
    Policy,
    /// Least-loaded placement over strict-FCFS backfilling planners
    /// ([`BackfillPolicy::Fcfs`] per node).
    Fcfs,
    /// Least-loaded placement over EASY-backfilling planners
    /// ([`BackfillPolicy::Easy`] per node).
    Easy,
    /// Least-loaded placement over conservative-backfilling planners
    /// ([`BackfillPolicy::Conservative`] per node).
    Conservative,
}

/// [`LeastLoaded`] placement labeled by the backfill policy its rows
/// run under, so `repro cluster` rows read `fcfs` / `easy` /
/// `conservative` — the node-*local* planner is what differs, not the
/// global tier.
#[derive(Debug, Clone, Copy)]
pub struct BackfillTier {
    policy: BackfillPolicy,
}

impl BackfillTier {
    /// Least-loaded placement for nodes running `policy` planners.
    #[must_use]
    pub fn new(policy: BackfillPolicy) -> Self {
        Self { policy }
    }
}

impl NodeSelector for BackfillTier {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn select(&mut self, gpus: usize, work: f64, loads: &[NodeLoad]) -> usize {
        LeastLoaded.select(gpus, work, loads)
    }
}

impl SelectorKind {
    /// Parse a CLI-style name: exactly the strings
    /// [`SelectorKind::name`] returns (`round-robin` / `least-loaded` /
    /// `policy` / `fcfs` / `easy` / `conservative`).
    ///
    /// # Errors
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "round-robin" => Ok(Self::RoundRobin),
            "least-loaded" => Ok(Self::LeastLoaded),
            "policy" => Ok(Self::Policy),
            "fcfs" => Ok(Self::Fcfs),
            "easy" => Ok(Self::Easy),
            "conservative" => Ok(Self::Conservative),
            other => Err(other.to_owned()),
        }
    }

    /// The CLI-style name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::RoundRobin => "round-robin",
            Self::LeastLoaded => "least-loaded",
            Self::Policy => "policy",
            Self::Fcfs => "fcfs",
            Self::Easy => "easy",
            Self::Conservative => "conservative",
        }
    }

    /// Whether this kind needs a trained snapshot (and therefore
    /// cannot be built by [`SelectorKind::build`]).
    #[must_use]
    pub fn needs_training(self) -> bool {
        matches!(self, Self::Policy)
    }

    /// The node-local backfilling policy this kind schedules through,
    /// if it is one of the backfill tiers. `None` for the kinds whose
    /// nodes run the co-scheduling dispatcher.
    #[must_use]
    pub fn backfill_policy(self) -> Option<BackfillPolicy> {
        match self {
            Self::Fcfs => Some(BackfillPolicy::Fcfs),
            Self::Easy => Some(BackfillPolicy::Easy),
            Self::Conservative => Some(BackfillPolicy::Conservative),
            _ => None,
        }
    }

    /// Build a fresh heuristic selector of this kind.
    ///
    /// # Panics
    /// Panics for [`SelectorKind::Policy`] — a policy selector wraps a
    /// trained snapshot (`hrp_cluster::place::PlacementAgent::selector`);
    /// check [`SelectorKind::needs_training`] first.
    #[must_use]
    pub fn build(self) -> Box<dyn NodeSelector> {
        match self {
            Self::RoundRobin => Box::new(RoundRobin::new()),
            Self::LeastLoaded => Box::new(LeastLoaded),
            Self::Policy => panic!(
                "SelectorKind::Policy needs a trained snapshot; \
                 train via hrp_cluster::place::train_placement"
            ),
            Self::Fcfs | Self::Easy | Self::Conservative => Box::new(BackfillTier::new(
                self.backfill_policy().expect("backfill tier"),
            )),
        }
    }
}

/// Window size of every node's co-scheduling dispatcher, so `repro
/// cluster` rows, service runs, batch oracles and placement training
/// are digest-comparable.
pub const NODE_W: usize = 4;
/// Concurrency cap of every node's co-scheduling dispatcher (see
/// [`NODE_W`]).
pub const NODE_CMAX: usize = 4;

/// A node-local dispatcher: the co-scheduling window dispatcher or the
/// slot-tree backfilling planner of a backfill selector tier, as
/// [`dispatcher_for`] builds them.
pub enum NodeDispatcher {
    /// Window co-scheduling with the MPS-only node policy (cheap — no
    /// node-level training required).
    CoSched(CoSchedulingDispatcher<MpsOnly>),
    /// Slot-tree backfilling ([`crate::backfill`]).
    Backfill(BackfillPlanner),
}

/// The one place a node-local dispatcher is constructed: the one a
/// selector kind schedules through on a `gpus_per_node`-GPU node.
/// Backfill tiers get a [`BackfillPlanner`] of their policy over
/// `walltime_err`-noisy estimates; every other kind, the trained policy
/// included, gets the co-scheduling window dispatcher at [`NODE_W`] /
/// [`NODE_CMAX`] with the MPS-only node policy.
#[must_use]
pub fn dispatcher_for(
    kind: SelectorKind,
    gpus_per_node: usize,
    walltime_err: f64,
) -> NodeDispatcher {
    match kind.backfill_policy() {
        Some(policy) => NodeDispatcher::Backfill(
            BackfillPlanner::new(policy, gpus_per_node).with_walltime_err(walltime_err),
        ),
        None => NodeDispatcher::CoSched(CoSchedulingDispatcher::new(MpsOnly, NODE_W, NODE_CMAX)),
    }
}

impl Dispatcher for NodeDispatcher {
    fn name(&self) -> &'static str {
        match self {
            Self::CoSched(d) => d.name(),
            Self::Backfill(d) => d.name(),
        }
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        match self {
            Self::CoSched(d) => d.next_placement(suite, waiting, free_gpus, now),
            Self::Backfill(d) => d.next_placement(suite, waiting, free_gpus, now),
        }
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
    fn round_robin_cycles_through_nodes() {
        let mut rr = RoundRobin::new();
        let l = loads(&[0.0, 0.0, 0.0]);
        let picks: Vec<usize> = (0..7).map(|_| rr.select(1, 1.0, &l)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(rr.name(), "round-robin");
    }

    #[test]
    fn least_loaded_picks_minimum_with_low_id_ties() {
        let mut ll = LeastLoaded;
        assert_eq!(ll.select(1, 1.0, &loads(&[9.0, 2.0, 5.0])), 1);
        assert_eq!(ll.select(1, 1.0, &loads(&[3.0, 3.0, 3.0])), 0, "tie → id 0");
        assert_eq!(ll.select(1, 1.0, &loads(&[4.0, 1.0, 1.0])), 1);
        assert_eq!(ll.name(), "least-loaded");
    }

    #[test]
    fn selector_kind_parses_and_round_trips() {
        assert_eq!(
            SelectorKind::parse("round-robin"),
            Ok(SelectorKind::RoundRobin)
        );
        assert_eq!(
            SelectorKind::parse("least-loaded"),
            Ok(SelectorKind::LeastLoaded)
        );
        assert_eq!(SelectorKind::parse("policy"), Ok(SelectorKind::Policy));
        // Each kind has one spelling.
        for other in ["rr", "ll", "rl", "least-busy"] {
            assert_eq!(SelectorKind::parse(other), Err(other.to_owned()));
        }
        for kind in [
            SelectorKind::RoundRobin,
            SelectorKind::LeastLoaded,
            SelectorKind::Fcfs,
            SelectorKind::Easy,
            SelectorKind::Conservative,
        ] {
            assert_eq!(SelectorKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.build().name(), kind.name());
            assert!(!kind.needs_training());
        }
        assert_eq!(
            SelectorKind::parse(SelectorKind::Policy.name()),
            Ok(SelectorKind::Policy)
        );
        assert!(SelectorKind::Policy.needs_training());
    }

    #[test]
    #[should_panic(expected = "needs a trained snapshot")]
    fn policy_kind_cannot_be_built_untrained() {
        let _ = SelectorKind::Policy.build();
    }

    #[test]
    fn backfill_tiers_place_like_least_loaded() {
        assert_eq!(
            SelectorKind::Easy.backfill_policy(),
            Some(BackfillPolicy::Easy)
        );
        assert_eq!(
            SelectorKind::Conservative.backfill_policy(),
            Some(BackfillPolicy::Conservative)
        );
        assert_eq!(
            SelectorKind::Fcfs.backfill_policy(),
            Some(BackfillPolicy::Fcfs)
        );
        assert_eq!(SelectorKind::LeastLoaded.backfill_policy(), None);
        let mut tier = BackfillTier::new(BackfillPolicy::Easy);
        let mut ll = LeastLoaded;
        let l = loads(&[9.0, 2.0, 5.0]);
        assert_eq!(tier.select(1, 1.0, &l), ll.select(1, 1.0, &l));
        assert_eq!(tier.name(), "easy");
    }
}
