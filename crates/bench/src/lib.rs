//! # hrp-bench — the reproduction harness
//!
//! One module per concern:
//!
//! * [`obs`] — the observational studies of paper §III (Figs. 3–5):
//!   MPS-split sweeps, shared-vs-private bandwidth partitioning, and the
//!   four-option partition comparison;
//! * [`eval`] — the full §V evaluation: five policies × twelve queues,
//!   with window/Cmax scaling and ablations;
//! * [`cluster`] — the §VI multi-node placement comparison
//!   (`repro cluster --nodes N --selector X` vs the single-node
//!   baseline);
//! * [`report`] — TSV table assembly and file output.
//!
//! The `repro` binary stitches these into one subcommand per figure and
//! table of the paper, emitting TSV tables under `results/` (see the
//! README's "Reproducing the paper" section for flags, including the
//! `--overlap`/`--shards` training-pipeline knobs).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod eval;
pub mod obs;
pub mod report;
