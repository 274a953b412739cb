//! End-to-end and per-layer benchmark of the `hrp` workspace, timed
//! from outside through its public API. See `README.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod json;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod tracer;
pub mod workloads;
pub mod wrappers;

#[global_allocator]
static ALLOC: tracer::CountingAlloc = tracer::CountingAlloc;
