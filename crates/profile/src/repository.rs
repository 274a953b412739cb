//! The Job Profiles Repository (paper Fig. 7).
//!
//! The paper matches a job to its profile by the job's binary path plus
//! name. In this reproduction a binary is a suite bench index, so the
//! repository is a list of `(bench, profile)` entries sorted by bench: a
//! bench without an entry is a program not profiled yet. It holds only
//! what was profiled, so the repository of one window is as small as
//! the window.

use crate::profiler::{JobProfile, Profiler};
use hrp_workloads::Suite;

/// Profile store keyed by suite bench.
#[derive(Debug, Default)]
pub struct ProfileRepository {
    /// Sorted by bench, one entry per bench.
    profiles: Vec<(usize, JobProfile)>,
}

impl ProfileRepository {
    /// An empty repository.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populate with solo-run profiles for every benchmark in the
    /// suite (the paper's offline phase collects all solo profiles before
    /// training).
    #[must_use]
    pub fn for_suite(suite: &Suite, profiler: &Profiler) -> Self {
        Self {
            profiles: suite
                .benchmarks()
                .iter()
                .enumerate()
                .map(|(bench, b)| (bench, profiler.profile(&b.app)))
                .collect(),
        }
    }

    /// The profile of bench `bench`, if it has been profiled.
    #[must_use]
    pub fn get(&self, bench: usize) -> Option<&JobProfile> {
        let at = self.profiles.binary_search_by_key(&bench, |(b, _)| *b);
        at.ok().map(|at| &self.profiles[at].1)
    }

    /// Store (or replace) the profile of bench `bench`.
    pub fn insert(&mut self, bench: usize, profile: JobProfile) {
        match self.profiles.binary_search_by_key(&bench, |(b, _)| *b) {
            Ok(at) => self.profiles[at].1 = profile,
            Err(at) => self.profiles.insert(at, (bench, profile)),
        }
    }

    /// Every stored profile, in bench order.
    pub fn profiles(&self) -> impl Iterator<Item = &JobProfile> {
        self.profiles.iter().map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::arch::GpuArch;

    fn profiler() -> Profiler {
        Profiler::new(GpuArch::a100(), 0.03, 7)
    }

    #[test]
    fn suite_repository_has_all_profiles() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let profiler = profiler();
        let repo = ProfileRepository::for_suite(&suite, &profiler);
        for b in 0..suite.len() {
            let expected = profiler.profile(&suite.by_index(b).app);
            assert_eq!(repo.get(b), Some(&expected), "bench {b}");
        }
    }

    #[test]
    fn miss_then_profile_then_hit() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let mut repo = ProfileRepository::new();
        assert_eq!(repo.get(5), None);
        let p = profiler().profile(&suite.by_index(5).app);
        repo.insert(5, p.clone());
        assert_eq!(repo.get(5), Some(&p));
        assert_eq!(repo.get(4), None);
        assert_eq!(repo.get(6), None);
    }

    #[test]
    fn profiles_are_complete_in_bench_order() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let profiler = profiler();
        let repo = ProfileRepository::for_suite(&suite, &profiler);
        let expected: Vec<JobProfile> = (0..suite.len())
            .map(|b| profiler.profile(&suite.by_index(b).app))
            .collect();
        assert_eq!(expected.len(), 27);
        assert!(repo.profiles().eq(expected.iter()));
    }

    #[test]
    fn get_past_the_end_is_none() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let repo = ProfileRepository::for_suite(&suite, &profiler());
        assert_eq!(repo.get(suite.len()), None);
        assert_eq!(ProfileRepository::new().get(0), None);
    }

    #[test]
    fn inserts_in_any_order_read_back_in_bench_order() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let profiler = profiler();
        let profile = |b: usize| profiler.profile(&suite.by_index(b).app);
        let mut repo = ProfileRepository::new();
        for b in [9, 2, 26, 2, 0] {
            repo.insert(b, profile(b));
        }
        // A second insert replaces the entry in place.
        repo.insert(9, profile(3));
        assert_eq!(repo.get(9), Some(&profile(3)));
        assert_eq!(repo.get(1), None);
        let want: Vec<JobProfile> = [0, 2, 3, 26].map(profile).into();
        assert!(repo.profiles().eq(want.iter()));
    }
}
