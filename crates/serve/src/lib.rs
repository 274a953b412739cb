//! `hrp-serve` — the online scheduler service over the cluster
//! engines: streaming arrivals, incremental decision cycles, and live
//! checkpoint/restore.
//!
//! The batch engines in `hrp-cluster` replay a finite trace they hold
//! in full. This crate runs the same dispatchers and selectors as a
//! *service*: jobs arrive one by one from an [`ArrivalSource`] (a
//! replayed trace, a live channel, or an open-loop load generator),
//! each arrival burst triggers one scheduling cycle, and a cycle
//! re-plans only nodes whose slot profile can still change — the
//! dirty set — rather than the whole cluster. Idle time is bounded by
//! the dispatchers' wakeup hints, so a service with nothing to do
//! sleeps exactly until the next reservation expiry instead of
//! spinning.
//!
//! Three contracts anchor the design:
//!
//! 1. **Batch is the oracle.** Draining any finite source produces a
//!    merged timeline bit-identical to
//!    [`MultiNodeSim`](hrp_cluster::multinode::MultiNodeSim) on the
//!    same jobs — incremental skipping is a provable no-op, never a
//!    heuristic.
//! 2. **Kill and resume is exact.** [`SchedulerService::checkpoint`]
//!    captures the full in-flight state as an `HRPS` blob;
//!    [`checkpoint::restore`] rebuilds a service that finishes with
//!    the same digest the uninterrupted run would have produced.
//! 3. **Decisions are cheap and measured.** Every placement decision
//!    is timed; [`ServeReport`] summarises sustained decisions/sec
//!    material as p50/p99/max latency for the `repro serve` bench.
//!
//! An optional admission tier ([`AdmissionConfig`]) sits in front of
//! the selector: arrivals are ordered by per-tenant karma, deferred
//! when a tenant exceeds its in-flight quota, and rejected when the
//! projected slowdown exceeds a per-class SLO. Admission decisions
//! fold into a digest ([`AdmissionOutcome`]) that survives
//! kill/restore.
//!
//! See the [`SchedulerService`] doc-example for the end-to-end loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod service;
pub mod source;

pub use checkpoint::{restore, restore_file, CheckpointError};
pub use service::{
    dispatcher_for, AdmissionConfig, AdmissionOutcome, LatencySummary, SchedulerService,
    ServeConfig, ServeReport, ServeStats, ServiceStep,
};
pub use source::{ArrivalSource, ChannelSource, LoadGen, LoadShape, SourcePoll, TraceSource};
