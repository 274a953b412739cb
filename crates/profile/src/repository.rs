//! The Job Profiles Repository (paper Fig. 7).
//!
//! Profiles are keyed by the job's *binary path plus name* — the paper's
//! (deliberately simple) matching function. The repository is shared
//! between the online scheduler and the profiler, so it is guarded by a
//! `parking_lot::RwLock` (many readers during decision making, rare
//! writers after a profiling run).

use crate::profiler::{JobProfile, Profiler};
use hrp_gpusim::AppModel;
use hrp_workloads::Suite;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Concurrent, key-addressed profile store.
#[derive(Debug, Default)]
pub struct ProfileRepository {
    map: RwLock<HashMap<String, JobProfile>>,
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
        let repo = Self::new();
        for b in suite.benchmarks() {
            repo.insert(&b.app.name, profiler.profile(&b.app));
        }
        repo
    }

    /// Look up a profile by key. Clones the stored profile (profiles are
    /// small, and this keeps the lock short).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<JobProfile> {
        self.map.read().get(key).cloned()
    }

    /// Whether a profile exists for the key.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.map.read().contains_key(key)
    }

    /// Insert (or replace) a profile.
    pub fn insert(&self, key: &str, profile: JobProfile) {
        self.map.write().insert(key.to_owned(), profile);
    }

    /// Profile an application and store the result (the online path for
    /// first-seen jobs: run exclusively, collect, store).
    pub fn profile_and_store(&self, app: &AppModel, profiler: &Profiler) -> JobProfile {
        let profile = profiler.profile(app);
        self.insert(&app.name, profile.clone());
        profile
    }

    /// Number of stored profiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the repository is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Snapshot of all profiles (for fitting feature scalers).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, JobProfile)> {
        self.map
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
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
        let repo = ProfileRepository::for_suite(&suite, &profiler());
        assert_eq!(repo.len(), 27);
        for b in suite.benchmarks() {
            assert!(repo.contains(&b.app.name), "{} missing", b.app.name);
        }
    }

    #[test]
    fn miss_then_profile_then_hit() {
        let repo = ProfileRepository::new();
        assert!(repo.is_empty());
        let app = AppModel::builder("newjob").solo_time(5.0).build();
        assert!(!repo.contains("newjob"));
        let p = repo.profile_and_store(&app, &profiler());
        assert!(repo.contains("newjob"));
        assert_eq!(repo.get("newjob"), Some(p));
    }

    #[test]
    fn concurrent_reads_and_writes() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let repo = ProfileRepository::for_suite(&suite, &profiler());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for b in suite.benchmarks() {
                        assert!(repo.get(&b.app.name).is_some());
                    }
                });
            }
            s.spawn(|| {
                let app = AppModel::builder("hot_insert").build();
                repo.profile_and_store(&app, &profiler());
            });
        });
        assert_eq!(repo.len(), 28);
    }

    #[test]
    fn snapshot_is_complete() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let repo = ProfileRepository::for_suite(&suite, &profiler());
        let snap = repo.snapshot();
        assert_eq!(snap.len(), 27);
    }
}
