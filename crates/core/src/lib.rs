//! # hrp-core — RL-based co-scheduling and hierarchical GPU partitioning
//!
//! This crate implements the paper's primary contribution (§IV): given a
//! window of `W` queued jobs and a concurrency cap `Cmax`, jointly choose
//!
//! 1. the **co-scheduling groups** `LJS = {JS1, JS2, …}` (a partition of
//!    the window), and
//! 2. per group the **hierarchical resource partitioning** `Ri`
//!    (MIG GPU-instances → compute instances → MPS shares),
//!
//! minimising total co-run time subject to the constraints of §IV-A
//! (each group must beat time sharing; `|JSi| ≤ Cmax`; groups are
//! mutually exclusive and collectively exhaustive).
//!
//! The solution mirrors the paper's architecture (Fig. 7):
//!
//! * [`mod@rl`] — the generic interface the training pipeline is
//!   written against: the [`rl::Env`] × [`rl::Learner`] traits, policy
//!   snapshots, and greedy rollout;
//! * [`mod@env`] — the flat RL environment: window state encoding
//!   `W × (f + 5)`, a 29-entry action catalog ([`actions`]), and the
//!   two-part reward of Table VI ([`reward`]);
//! * [`mod@hierarchy`] — the paper's two-level formulation: a MIG-level
//!   (physical) action followed by an MPS-level (logical) action, same
//!   reachable decisions as the flat catalog;
//! * [`mod@train`] — offline training of a dueling double DQN over randomly
//!   generated job queues, run as a parallel rollout/learner pipeline
//!   ([`train::train_env`], generic over the env/learner pair) —
//!   roll out, store, learn, bit-identical for any worker count (see
//!   `ARCHITECTURE.md`, "Determinism contract");
//! * [`mod@experiment`] — `HRPE` spec+weights checkpoints of a trained
//!   agent, which reload to identical greedy decisions;
//! * [`mod@cluster_env`] — the cluster tier above all of this (§VI):
//!   the [`cluster_env::NodeSelector`] placement contract the
//!   multi-node simulator consults, the shared placement state
//!   encoding, and [`cluster_env::PolicySelector`] (the trained-policy
//!   bridge; the placement environment itself lives in
//!   `hrp-cluster::place`, where it replays episodes through the real
//!   multi-node simulator);
//! * [`par`] — [`par::for_each_mut`], the scoped-thread fan-out of the
//!   Fig. 8 evaluation (training's rollout workers open their own scope
//!   in [`train::train_env`]);
//! * [`policies`] — the five compared methods of §V-A4: `TimeSharing`,
//!   `MigOnly (C=2)`, `MpsOnly`, `MigMpsDefault`, and `MigMpsRl`;
//! * [`exhaustive`] — the set-partition dynamic program used to give the
//!   baselines their *optimal* job-set selections (the paper searches
//!   those exhaustively);
//! * [`metrics`] — throughput vs time sharing, per-application slowdown
//!   (Fig. 11) and fairness (Fig. 12);
//! * [`online`] — the online phase of Fig. 7: profile-miss handling and
//!   window-by-window scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actions;
pub mod cluster_env;
pub mod env;
pub mod exhaustive;
pub mod experiment;
pub mod hierarchy;
pub mod metrics;
pub mod online;
pub mod par;
pub mod policies;
pub mod predict;
pub mod problem;
pub mod reward;
pub mod rl;
pub mod train;

/// The checkpoint codec every blob format is built on (`hrp-nn`'s
/// [`serialize`](hrp_nn::serialize) module), re-exported so the crates
/// above this one describe their formats without a dependency on
/// `hrp-nn` of their own.
pub use hrp_nn::serialize as codec;

/// The FNV-1a byte fold of every schedule and admission digest
/// ([`hrp_gpusim::rng`]), re-exported for the same reason.
pub use hrp_gpusim::rng::{fnv1a, FNV_OFFSET};

pub use actions::ActionCatalog;
pub use cluster_env::{NodeLoad, NodeSelector, PolicySelector};
pub use env::{CoScheduleEnv, CoScheduleEnvFactory, EnvConfig};
pub use experiment::CheckpointError;
pub use hierarchy::{HierarchicalCatalog, HierarchicalEnv, HierarchicalEnvFactory};
pub use metrics::QueueMetrics;
pub use policies::{
    MigMpsDefault, MigMpsRl, MigOnly, MpsOnly, Policy, ScheduleContext, TimeSharing,
};
pub use problem::{ScheduleDecision, ScheduledGroup};
pub use rl::{Env, EnvFactory, EnvKind, GreedyPolicy, Learner, SnapshotPolicy};
pub use train::{train, train_env, PipelineConfig, TrainConfig, TrainedAgent};
