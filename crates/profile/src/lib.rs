//! # hrp-profile — the profiling substrate
//!
//! The paper profiles every application once (solo, full GPU) with NVIDIA
//! Nsight Compute, stores the Table III counters in a **Job Profiles
//! Repository**, and matches queued jobs to profiles by *binary path +
//! name* (§IV-B). This crate reproduces that pipeline against the
//! simulator:
//!
//! * [`profiler::Profiler`] — "runs" an application solo and collects a
//!   noisy [`hrp_gpusim::CounterSet`] (the DQN never sees ground truth);
//! * [`repository::ProfileRepository`] — the profiles, keyed by suite
//!   bench (a bench index is this reproduction's binary path, so the
//!   key lookup is the paper's matching function);
//! * [`features::FeatureScaler`] — min–max feature normalization (the
//!   paper uses scikit-learn for "additional data pre-processing and
//!   feature engineering"; this is the Rust stand-in).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod features;
pub mod profiler;
pub mod repository;

pub use features::FeatureScaler;
pub use profiler::{JobProfile, Profiler};
pub use repository::ProfileRepository;
