//! The five scheduling policies compared in the paper's §V-A4.
//!
//! | policy | grouping | partitioning |
//! |---|---|---|
//! | [`TimeSharing`] | none (solo, in order) | exclusive GPU |
//! | [`MigOnly`] | optimal pairs (DP) | MIG 3g/4g (shared or private) |
//! | [`MpsOnly`] | optimal ≤ Cmax (DP) | best MPS split (Table VII) |
//! | [`MigMpsDefault`] | optimal ≤ Cmax (DP) | fixed MIG split + default MPS |
//! | [`MigMpsRl`] | learned | learned (29-action catalog) |
//!
//! The exhaustive baselines get *optimal* job-set selection via
//! [`crate::exhaustive::best_partition`]; this reproduces the paper's
//! "job set selections and assignments are optimal, i.e., exhaustively
//! chosen" framing, and makes the RL result meaningful: it must win on
//! the richness of its configuration space, not on search quality.

mod mig_mps_default;
mod mig_only;
mod mps_only;
mod oracle;
mod rl;
mod time_sharing;
mod window_predictor;

pub use mig_mps_default::{DefaultKind, MigMpsDefault};
pub use mig_only::MigOnly;
pub use mps_only::MpsOnly;
pub use oracle::OracleGreedy;
pub use rl::MigMpsRl;
pub use time_sharing::TimeSharing;
pub use window_predictor::window_profiler;

use crate::problem::ScheduleDecision;
use hrp_profile::ProfileRepository;
use hrp_workloads::{JobQueue, Suite};

/// Everything a policy needs to schedule one window.
#[derive(Debug, Clone)]
pub struct ScheduleContext<'a> {
    /// The benchmark suite (ground-truth apps for "running" groups).
    pub suite: &'a Suite,
    /// The job window.
    pub queue: &'a JobQueue,
    /// The Job Profiles Repository (paper Fig. 7): the one place a
    /// policy reads a window member's profile from. It must hold every
    /// member's bench.
    pub repo: &'a ProfileRepository,
    /// Concurrency cap `Cmax`.
    pub cmax: usize,
}

impl<'a> ScheduleContext<'a> {
    /// Context for one window.
    #[must_use]
    pub fn new(
        suite: &'a Suite,
        queue: &'a JobQueue,
        repo: &'a ProfileRepository,
        cmax: usize,
    ) -> Self {
        Self {
            suite,
            queue,
            repo,
            cmax,
        }
    }
}

/// A scheduling policy: maps a window to a complete decision.
pub trait Policy {
    /// Display name (used in figures/tables).
    fn name(&self) -> &'static str;

    /// Schedule the window.
    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision;
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use hrp_gpusim::GpuArch;

    /// A small queue with one job of each class plus a complementary
    /// CI/MI pair — enough structure for every policy to show gains —
    /// and the suite's repository of window profiles.
    pub fn small_fixture() -> (Suite, JobQueue, ProfileRepository) {
        let arch = GpuArch::a100();
        let suite = Suite::paper_suite(&arch);
        let repo = ProfileRepository::for_suite(&suite, &window_profiler(arch));
        let queue = JobQueue::from_names(
            "small",
            &[
                "lavaMD",
                "stream",
                "kmeans",
                "pathfinder",
                "bt_solver_A",
                "lud_A",
            ],
            &suite,
        );
        (suite, queue, repo)
    }
}
