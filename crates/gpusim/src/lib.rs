//! # hrp-gpusim — an A100-class GPU co-scheduling simulator
//!
//! This crate is the hardware substrate for the CLUSTER'23 paper
//! *"Hierarchical Resource Partitioning on Modern GPUs: A Reinforcement
//! Learning Approach"* (Saroliya et al.). The paper's evaluation runs on a
//! real NVIDIA A100 with MIG (Multi-Instance GPU) and MPS (Multi-Process
//! Service); this crate replaces that hardware with a faithful analytic
//! model so the full scheduling/RL stack can run anywhere.
//!
//! The simulator models the four mechanisms that drive every observation in
//! the paper (its Figs. 3–5):
//!
//! 1. **Amdahl-limited compute scaling** — each application has a parallel
//!    fraction; giving it a fraction of the SMs yields sub-linear speedup
//!    ([`app::AppModel::amdahl_speedup`]).
//! 2. **Bandwidth-proportional memory scaling** — memory-intensive
//!    applications are limited by the DRAM bandwidth of their memory
//!    domain; bandwidth within a domain is shared max–min fairly
//!    ([`perf`]).
//! 3. **Shared-memory interference** — co-runners in the *same* memory
//!    domain slow each other down beyond pure bandwidth sharing (LLC
//!    thrashing, row-buffer conflicts). MIG isolation removes this; MPS
//!    cannot ([`perf::corun_rates`]).
//! 4. **Completion-triggered redistribution** — when a co-located job
//!    finishes, the survivors speed up; the discrete-event engine
//!    ([`engine`]) re-solves the rate model at every completion.
//!
//! # Modules
//!
//! * [`arch`] — GPU geometry (GPCs, SMs, HBM slices); defaults to A100.
//! * [`mig`] — GPU-Instance / Compute-Instance profiles, placement rules,
//!   and enumeration of valid MIG configurations.
//! * [`mps`] — MPS active-thread-percentage shares.
//! * [`partition`] — the hierarchical partition tree (GI → CI → MPS
//!   client) and its compilation into flat resource slots.
//! * [`notation`] — parser/printer for the paper's bracket notation,
//!   e.g. `[{0.375},0.5m]+[(0.1)+(0.9){0.5},0.5m]`.
//! * [`app`] — the application kernel model (parallel fraction, memory
//!   demand, interference sensitivity, solo runtime).
//! * [`perf`] — the instantaneous co-run rate model.
//! * [`engine`] — the discrete-event co-run simulator. It takes no
//!   configuration and charges no MIG-reconfiguration or MPS start-up
//!   time.
//! * [`counters`] — synthesis of the Nsight-Compute-style hardware
//!   counters of the paper's Table III.
//! * [`rng`] — a tiny deterministic SplitMix64 generator (keeps this crate
//!   dependency-free).
//!
//! # Quick example
//!
//! ```
//! use hrp_gpusim::prelude::*;
//!
//! // A compute-bound and a memory-bound app...
//! let ci = AppModel::builder("ci_app").parallel_fraction(0.97)
//!     .compute_demand(0.9).mem_demand(0.25).solo_time(10.0).build();
//! let mi = AppModel::builder("mi_app").parallel_fraction(0.95)
//!     .compute_demand(0.3).mem_demand(0.95)
//!     .interference_sensitivity(0.25).solo_time(10.0).build();
//!
//! // ...co-run under a 70/30 MPS split of the whole GPU.
//! let scheme = PartitionScheme::mps_only(vec![0.7, 0.3]);
//! let part = scheme.compile(&GpuArch::a100()).unwrap();
//! let res = simulate_corun(&[&ci, &mi], &[0, 1], &part);
//!
//! // Co-running beats time sharing for this complementary mix.
//! assert!(res.makespan < ci.solo_time + mi.solo_time);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod arch;
pub mod counters;
pub mod engine;
pub mod error;
pub mod mig;
pub mod mps;
pub mod notation;
pub mod partition;
pub mod perf;
pub mod rng;

/// Convenient glob import of the most commonly used types.
pub mod prelude {
    pub use crate::app::{AppModel, AppModelBuilder};
    pub use crate::arch::GpuArch;
    pub use crate::counters::CounterSet;
    pub use crate::engine::{simulate_corun, CoRunResult, EngineConfig};
    pub use crate::error::PartitionError;
    pub use crate::mig::{GiProfile, MigConfig};
    pub use crate::partition::{
        CiSetup, CompiledPartition, GiSetup, MemDomain, PartitionScheme, Slot,
    };
    pub use crate::perf::corun_rates;
    pub use crate::rng::SplitMix64;
}

pub use prelude::*;
