//! The four workloads behind one interface the runner drives.

pub mod batch;
pub mod serve;
pub mod train;

use crate::spec::WorkloadKind;
use crate::stats::Slice;
use crate::tracer::{enter, Span};
use hrp::gpusim::GpuArch;
use hrp::workloads::Suite;
use std::time::Instant;

/// Cluster geometry of the serve and batch workloads.
pub(crate) const NODES: usize = 8;
/// GPUs per node of the serve and batch workloads.
pub(crate) const GPUS_PER_NODE: usize = 2;

/// The paper's benchmark suite on the simulated A100.
pub(crate) fn build_suite() -> Suite {
    let _g = enter(Span::SuiteBuild);
    Suite::paper_suite(&GpuArch::a100())
}

/// Run `f`; its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64())
}

/// What a workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The `--seed`; pass `i` derives its input from `seed + i`.
    pub seed: u64,
    /// Smoke-test sizes: same code paths, a run of a second or two.
    pub quick: bool,
    /// Test hook: flip one bit of an oracle digest, so that the gates
    /// can be seen to fail the run.
    pub corrupt_oracle: bool,
}

/// The exact, seed-determined results of the first cycle of inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Exact {
    /// Summed simulated time (see the README for the per-workload sum).
    pub makespan_sim_s: f64,
    /// Work units offered to the system.
    pub offered: u64,
    /// Work units the system served (placed, completed or scheduled).
    pub served: u64,
}

/// Per-layer counters a traced run gathers beside the spans, summed
/// over the cycles it ran.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `(counter name, summed value)`; divided by cycles when reported.
    pub sums: Vec<(&'static str, f64)>,
    /// Traced wall ÷ untraced wall, one entry per input and cycle.
    pub overhead_ratios: Vec<f64>,
    /// Operations the traced passes timed (the allocator denominators).
    pub traced_ops: u64,
    /// Allocator calls and bytes during the traced passes.
    pub allocs: (u64, u64),
    /// One pass at two DES threads ÷ the same pass at one.
    pub threads2_ratio: Option<f64>,
}

impl Layers {
    /// Add `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.sums.iter_mut().find(|(n, _)| *n == name) {
            Some((_, sum)) => *sum += value,
            None => self.sums.push((name, value)),
        }
    }

    /// The summed counter `name` (0 if never added to).
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.sums
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// One workload, set up and warm.
pub trait Workload {
    /// Passes that make up the first cycle: the runner always completes
    /// them, and [`Workload::exact`] describes exactly them.
    fn first_cycle(&self) -> usize;

    /// Run measured pass `index` with tracing off and check its output.
    ///
    /// # Errors
    /// A failed correctness gate, described.
    fn pass(&mut self, index: usize) -> Result<Slice, String>;

    /// The exact results of the first cycle (valid once it completed).
    fn exact(&self) -> Exact;

    /// Run one traced cycle: every input once bare and once through
    /// the `Timed*` wrappers, with the cluster-side replay, checking
    /// that all of them agree.
    ///
    /// # Errors
    /// A failed correctness gate, described.
    fn traced_cycle(&mut self, layers: &mut Layers) -> Result<(), String>;

    /// The gates that need no timing: run after the window closed.
    ///
    /// # Errors
    /// A failed correctness gate, described.
    fn verify(&mut self) -> Result<(), String>;
}

/// Set workload `kind` up from scratch, warm-up pass included.
///
/// # Errors
/// A failed correctness gate during the warm-up pass.
pub fn build(kind: WorkloadKind, params: Params) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        WorkloadKind::ServePolicySteady => Box::new(serve::Serve::policy_steady(params)?),
        WorkloadKind::ServeBackfillOverload => Box::new(serve::Serve::backfill_overload(params)?),
        WorkloadKind::BatchDesHeavytail => Box::new(batch::Batch::new(params)?),
        WorkloadKind::TrainHier => Box::new(train::Train::new(params)?),
    })
}

/// `Err` with both digests spelled out unless they are equal.
pub(crate) fn same_digest(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: digest {got:016x}, expected {want:016x}"))
    }
}
