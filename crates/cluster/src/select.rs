//! Node-placement selection — the global tier *above* the nodes that
//! the paper's §VI sketches, consulted by
//! [`crate::multinode::MultiNodeSim`] for every arrival: the
//! [`NodeSelector`] implementations [`RoundRobin`], [`LeastLoaded`],
//! and (via the trait re-exported from `hrp-core`) anything else,
//! including [`hrp_core::cluster_env::PolicySelector`] wrapping a
//! trained RL snapshot. [`SelectorKind`] is the CLI-facing closed set;
//! its backfill tiers name the node-*local* regime of §VI's light-load
//! comparator ("FCFS with backfilling without co-scheduling",
//! [`crate::backfill`]) rather than a different global tier.

pub use hrp_core::cluster_env::{NodeLoad, NodeSelector, PolicySelector};

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

    /// A selector resuming at an explicit cursor (live checkpoint
    /// restore: the cursor is the only state the round-robin tier
    /// carries).
    #[must_use]
    pub fn with_cursor(cursor: usize) -> Self {
        Self { next: cursor }
    }

    /// The cursor the next [`NodeSelector::select`] call will use.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.next
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
    /// ([`crate::backfill::BackfillPolicy::Fcfs`] per node).
    Fcfs,
    /// Least-loaded placement over EASY-backfilling planners
    /// ([`crate::backfill::BackfillPolicy::Easy`] per node).
    Easy,
    /// Least-loaded placement over conservative-backfilling planners
    /// ([`crate::backfill::BackfillPolicy::Conservative`] per node).
    Conservative,
}

/// [`LeastLoaded`] placement labeled by the backfill policy its rows
/// run under, so `repro cluster` rows read `fcfs` / `easy` /
/// `conservative` — the node-*local* planner is what differs, not the
/// global tier.
#[derive(Debug, Clone, Copy)]
pub struct BackfillTier {
    policy: crate::backfill::BackfillPolicy,
}

impl BackfillTier {
    /// Least-loaded placement for nodes running `policy` planners.
    #[must_use]
    pub fn new(policy: crate::backfill::BackfillPolicy) -> Self {
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
    /// Parse a CLI-style name (`round-robin` / `least-loaded` /
    /// `policy` / `fcfs` / `easy` / `conservative`).
    ///
    /// # Errors
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "round-robin" | "rr" => Ok(Self::RoundRobin),
            "least-loaded" | "ll" => Ok(Self::LeastLoaded),
            "policy" | "rl" => Ok(Self::Policy),
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
    pub fn backfill_policy(self) -> Option<crate::backfill::BackfillPolicy> {
        match self {
            Self::Fcfs => Some(crate::backfill::BackfillPolicy::Fcfs),
            Self::Easy => Some(crate::backfill::BackfillPolicy::Easy),
            Self::Conservative => Some(crate::backfill::BackfillPolicy::Conservative),
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
        assert_eq!(SelectorKind::parse("rr"), Ok(SelectorKind::RoundRobin));
        assert_eq!(
            SelectorKind::parse("least-loaded"),
            Ok(SelectorKind::LeastLoaded)
        );
        assert_eq!(SelectorKind::parse("ll"), Ok(SelectorKind::LeastLoaded));
        assert_eq!(SelectorKind::parse("policy"), Ok(SelectorKind::Policy));
        assert_eq!(SelectorKind::parse("rl"), Ok(SelectorKind::Policy));
        assert_eq!(
            SelectorKind::parse("least-busy"),
            Err("least-busy".to_owned())
        );
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
        use crate::backfill::BackfillPolicy;
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
