//! # hrp-cluster — the cluster-scale extension (paper §VI)
//!
//! The paper's Discussion sketches how node-local hierarchical
//! partitioning extends to a cluster: add a top level of node/GPU
//! allocation, include each job's requested GPU count in its feature
//! vector, and run co-scheduling (for over-crowded queues) or classic
//! FCFS + backfilling (for light load) on the nodes. This crate
//! implements that sketch:
//!
//! * [`job`] — cluster jobs with arrival times and GPU counts;
//! * [`sim`] — the event-driven per-node simulator: the reusable
//!   [`sim::NodeRun`] event loop (GPUs as resources, job completions as
//!   events, every state change recorded in a compact
//!   [`sim::EventLog`] and read back as [`sim::NodeEvent`] views) and the
//!   single-node [`ClusterSim`] wrapper;
//! * [`multinode`] — `N` nodes advanced epoch by epoch on the calling
//!   thread, fed from a global arrival queue by a pluggable node
//!   selector, their event streams merged into one deterministic
//!   `(time, node, seq)`-ordered cluster timeline — the same in batch
//!   and served, and event-for-event identical to [`ClusterSim`] when
//!   `N = 1`. The stepped [`multinode::ClusterDrive`] core is shared
//!   with the RL placement environment;
//! * [`trace`] — the one streaming cluster-trace generator
//!   ([`trace::TraceStream`]; [`trace::generate`] collects it) over six
//!   kinds (uniform, bursty, Zipf-skewed popularity, heavy-tail
//!   duration, multi-GPU co-location, the staggered demo trace): the
//!   scenario-diversity axis of the placement evaluation;
//! * [`place`] — placement learning: the simulation-backed
//!   [`place::ClusterEnv`] (per-decision queue-delay deltas, terminal
//!   makespan bonus), [`place::train_placement`] through the generic
//!   `hrp-core` pipeline, and `HRPP` checkpoints
//!   ([`place::PlacementExperiment`]);
//! * [`fair`] — per-user fair share: karma-decayed service accounting,
//!   in-flight quotas, burst-confined fair ordering
//!   ([`fair::apply_fair_order`]), and the Jain's-index fairness
//!   metrics — the bookkeeping behind `hrp-serve`'s admission tier;
//! * [`slots`] — the slot tree: free-GPU capacity as a coalesced step
//!   function over the timeline ([`slots::TreeSlotSet`]), the profile
//!   every backfilling decision plans against;
//! * [`backfill`] — the one backfilling dispatcher, the slot-tree
//!   planner ([`backfill::BackfillPlanner`]) — at exact estimates the
//!   "FCFS with backfilling" comparator the paper names: FCFS / EASY /
//!   conservative policies over per-job walltime *estimates* (which
//!   may over- or under-run the truth);
//! * [`cosched`] — the co-scheduling dispatcher: single-GPU jobs are
//!   batched into windows and handed to any node-local
//!   [`hrp_core::policies::Policy`]; multi-GPU jobs gang-schedule
//!   exclusively (the paper flags co-locating them as future work);
//! * [`select`] — what a [`SelectorKind`] means, for both tiers: the
//!   global placement tier ([`select::RoundRobin`],
//!   [`select::LeastLoaded`], [`select::BackfillTier`] and the RL hook
//!   [`hrp_core::cluster_env::PolicySelector`] behind the
//!   [`select::NodeSelector`] trait) and the nodes under it — the one
//!   constructor of node-local dispatchers ([`select::dispatcher_for`],
//!   with the one `W`/`Cmax` pair) that training, batch evaluation and
//!   `hrp-serve` all build their nodes through.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

pub mod backfill;
pub mod cosched;
pub mod fair;
pub mod job;
pub mod multinode;
pub mod place;
pub mod select;
pub mod sim;
pub mod slots;
pub mod trace;

pub use backfill::{BackfillPlanner, BackfillPolicy};
pub use cosched::CoSchedulingDispatcher;
pub use fair::{FairShare, FairnessReport};
pub use job::ClusterJob;
pub use multinode::{ClusterDrive, ClusterTimeline, MultiNodeReport, MultiNodeSim, NodeSummary};
pub use place::{
    train_placement, ClusterEnv, PlacementAgent, PlacementConfig, PlacementExperiment,
};
pub use select::{BackfillTier, NodeSelector, SelectorKind};
pub use sim::{ClusterReport, ClusterSim, EventLog, NodeEvent};
pub use slots::TreeSlotSet;
pub use trace::{TraceConfig, TraceKind};
