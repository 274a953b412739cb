//! Feature engineering for the DQN state encoding.
//!
//! Raw Table III counters span wildly different magnitudes (cycles ~1e10,
//! percentages ~1e2), so the paper pre-processes them (scikit-learn). We
//! fit a min–max scaler over the profile repository and map every counter
//! into `[0, 1]`; unseen values are clamped.

use crate::profiler::JobProfile;
use crate::repository::ProfileRepository;
use hrp_gpusim::counters::NUM_FEATURES;
use serde::{Deserialize, Serialize};

/// Min–max feature scaler over the 12 Table III counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureScaler {
    mins: [f64; NUM_FEATURES],
    maxs: [f64; NUM_FEATURES],
}

impl FeatureScaler {
    /// Fit over all profiles in a repository.
    ///
    /// # Panics
    /// Panics if the repository is empty — a scaler without data is
    /// meaningless, and this only happens on programmer error.
    #[must_use]
    pub fn fit(repo: &ProfileRepository) -> Self {
        Self::fit_profiles(repo.profiles())
    }

    /// Fit over an explicit iterator of profiles.
    pub fn fit_profiles<'a>(profiles: impl IntoIterator<Item = &'a JobProfile>) -> Self {
        let mut mins = [f64::INFINITY; NUM_FEATURES];
        let mut maxs = [f64::NEG_INFINITY; NUM_FEATURES];
        let mut any = false;
        for p in profiles {
            any = true;
            for (i, v) in p.counters.to_features().into_iter().enumerate() {
                mins[i] = mins[i].min(v);
                maxs[i] = maxs[i].max(v);
            }
        }
        assert!(any, "cannot fit a scaler on no profiles");
        Self { mins, maxs }
    }

    /// Scale a profile's counters into `[0, 1]^12` (clamped).
    #[must_use]
    pub fn transform(&self, profile: &JobProfile) -> [f64; NUM_FEATURES] {
        let raw = profile.counters.to_features();
        let mut out = [0.0; NUM_FEATURES];
        for i in 0..NUM_FEATURES {
            let span = self.maxs[i] - self.mins[i];
            out[i] = if span <= 1e-12 {
                0.5 // constant feature carries no information
            } else {
                ((raw[i] - self.mins[i]) / span).clamp(0.0, 1.0)
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::Profiler;
    use hrp_gpusim::arch::GpuArch;
    use hrp_workloads::Suite;

    fn fitted() -> (Suite, ProfileRepository, FeatureScaler) {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let profiler = Profiler::new(GpuArch::a100(), 0.03, 11);
        let repo = ProfileRepository::for_suite(&suite, &profiler);
        let scaler = FeatureScaler::fit(&repo);
        (suite, repo, scaler)
    }

    #[test]
    fn transform_lands_in_unit_cube() {
        let (_, repo, scaler) = fitted();
        for p in repo.profiles() {
            for v in scaler.transform(p) {
                assert!((0.0..=1.0).contains(&v), "feature {v} out of range");
            }
        }
    }

    #[test]
    fn extremes_hit_zero_and_one() {
        let (_, repo, scaler) = fitted();
        // Each feature must reach 0 and 1 somewhere across the suite
        // (min and max of the fitted data).
        let mut saw_zero = [false; NUM_FEATURES];
        let mut saw_one = [false; NUM_FEATURES];
        for p in repo.profiles() {
            for (i, v) in scaler.transform(p).into_iter().enumerate() {
                if v < 1e-9 {
                    saw_zero[i] = true;
                }
                if (v - 1.0).abs() < 1e-9 {
                    saw_one[i] = true;
                }
            }
        }
        for i in 0..NUM_FEATURES {
            assert!(saw_zero[i], "feature {i} never reaches 0");
            assert!(saw_one[i], "feature {i} never reaches 1");
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let (suite, _, scaler) = fitted();
        // Profile with an exaggerated duration: scaled feature clamps at 1.
        let mut app = suite.get("stream").unwrap().app.clone();
        app.solo_time = 10_000.0;
        let p = Profiler::exact(GpuArch::a100()).profile(&app);
        let f = scaler.transform(&p);
        assert!((f[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_maps_to_half() {
        let (suite, repo, _) = fitted();
        let one = repo.get(suite.index_of("stream").unwrap()).unwrap();
        // Fitting on a single profile makes every feature constant.
        let scaler = FeatureScaler::fit_profiles(std::iter::once(one));
        for v in scaler.transform(one) {
            assert!((v - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn empty_fit_panics() {
        let repo = ProfileRepository::new();
        let _ = FeatureScaler::fit(&repo);
    }
}
