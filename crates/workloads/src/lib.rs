//! # hrp-workloads — the benchmark-suite substrate
//!
//! The paper evaluates on 27 programs: the Rodinia suite, a CUDA `stream`
//! benchmark, a `randomaccess` (GUPS-style) benchmark, and four
//! configurations of the Quicksilver CORAL mini-app. None of those
//! binaries can run here (no GPU), so this crate provides *synthetic
//! stand-ins*: one [`hrp_gpusim::AppModel`] per program, with parameters
//! chosen so that
//!
//! 1. the paper's classification procedure ([`class::classify`])
//!    reproduces Table IV exactly (8 CI, 10 MI, 9 US), and
//! 2. co-run behaviour spans the regimes the paper's Figs. 3–5 explore
//!    (complementary mixes, bandwidth-saturating pairs, unscalable
//!    fillers).
//!
//! The crate also provides the job-queue machinery: the exact Q1–Q12
//! mixes of Table V and the random queue generators used for offline
//! training (§V-A2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod class;
pub mod queue;
pub mod suite;

pub use class::{classify, Class, CI_RATIO_THRESHOLD, US_DEGRADATION_THRESHOLD};
pub use queue::{Job, JobQueue, MixCategory, QueueGenerator};
pub use suite::{Benchmark, Suite};
