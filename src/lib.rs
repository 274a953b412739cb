//! # hrp — Hierarchical Resource Partitioning on Modern GPUs
//!
//! A Rust reproduction of *"Hierarchical Resource Partitioning on Modern
//! GPUs: A Reinforcement Learning Approach"* (Saroliya, Arima, Liu,
//! Schulz — IEEE CLUSTER 2023).
//!
//! The paper jointly optimises **which jobs to co-schedule** on one GPU
//! and **how to partition the GPU hierarchically** for each group
//! (NVIDIA MIG physical partitioning + MPS logical partitioning), using
//! a dueling double deep-Q-network trained offline on job profiles.
//! This workspace rebuilds the whole system — including the A100/MIG/MPS
//! substrate the paper runs on, which is simulated here (see
//! `ARCHITECTURE.md` for the crate map and determinism contract):
//!
//! * [`gpusim`] — A100-class simulator: MIG placement rules, MPS shares,
//!   the analytic co-run performance model, a discrete-event engine, and
//!   the paper's partition notation (`[{0.375},0.5m]+[{0.5},0.5m]`).
//! * [`workloads`] — the 27-program benchmark suite of Table IV
//!   (synthetic stand-ins for Rodinia/stream/randomaccess/Quicksilver)
//!   and the Q1–Q12 evaluation queues of Table V.
//! * [`profile`] — Nsight-Compute-style profiling, the Job Profiles
//!   Repository, and feature scaling.
//! * [`nn`] — a from-scratch dueling double DQN (MLP, Adam, a ring
//!   replay buffer, ε-greedy schedule).
//! * [`core`] — the paper's contribution: the co-scheduling environment,
//!   offline training (roll out, store, learn, with the rollouts of a
//!   round spread over worker threads), the five compared policies,
//!   and the metrics.
//! * [`cluster`] — the §VI cluster-scale extension: multi-node
//!   simulation with deterministic event-stream merging, one
//!   streaming trace generator (uniform / bursty / Zipf-skewed /
//!   heavy-tail / multi-GPU colocate / staggered), pluggable node
//!   placement (round-robin / least-loaded / a trained RL policy
//!   whose rewards come from the simulation itself), and the two
//!   node-local regimes — window co-scheduling and the slot-tree
//!   backfilling planner (the paper's FCFS+backfilling comparator) —
//!   behind one dispatcher constructor.
//! * [`serve`] — the online scheduler service over the cluster
//!   engines: streaming arrivals ([`serve::ArrivalSource`]),
//!   incremental dirty-set decision cycles that stay digest-identical
//!   to the batch engines, and live `HRPS` checkpoint/restore
//!   (`repro serve`).
//!
//! # Quickstart
//!
//! ```no_run
//! use hrp::prelude::*;
//!
//! // The simulated A100 and the paper's benchmark suite.
//! let suite = Suite::paper_suite(&GpuArch::a100());
//!
//! // Offline: train the dueling double DQN on random queues of the 18
//! // "seen" programs (TrainConfig::paper() is the Table VI setup).
//! let (trained, report) = train(&suite, TrainConfig::quick());
//! println!("trained for {} steps", report.total_steps);
//!
//! // Online: schedule an unseen job window.
//! let queues = hrp::workloads::queue::table_v_queues(&suite);
//! let policy = MigMpsRl::new(trained);
//! let ctx = ScheduleContext::new(&suite, &queues[0], 4);
//! let decision = policy.schedule(&ctx);
//! let m = evaluate_decision("Q1", &suite, &queues[0], &decision);
//! println!("throughput vs time sharing: {:.3}", m.throughput);
//! ```

#![forbid(unsafe_code)]

pub use hrp_cluster as cluster;
pub use hrp_core as core;
pub use hrp_gpusim as gpusim;
pub use hrp_nn as nn;
pub use hrp_profile as profile;
pub use hrp_serve as serve;
pub use hrp_workloads as workloads;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use hrp_core::metrics::evaluate_decision;
    pub use hrp_core::policies::{
        MigMpsDefault, MigMpsRl, MigOnly, MpsOnly, Policy, ScheduleContext, TimeSharing,
    };
    pub use hrp_core::rl::EnvKind;
    pub use hrp_core::train::{train, TrainConfig, TrainedAgent};
    pub use hrp_core::ActionCatalog;
    pub use hrp_gpusim::prelude::*;
    pub use hrp_profile::{FeatureScaler, ProfileRepository, Profiler};
    pub use hrp_workloads::{Class, JobQueue, MixCategory, QueueGenerator, Suite};
}
