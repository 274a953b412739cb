//! Solo-run profiling of applications on the simulated GPU.

use hrp_gpusim::arch::GpuArch;
use hrp_gpusim::counters::CounterSet;
use hrp_gpusim::perf::solo_rate;
use hrp_gpusim::rng::SplitMix64;
use hrp_gpusim::AppModel;

/// A stored job profile: the measured counters plus the measured solo
/// runtime (seconds). Everything downstream (state encoding, rewards,
/// co-run prediction by baselines) uses these *measured* values, never
/// the model's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Table III counters from the profiling run.
    pub counters: CounterSet,
    /// Measured solo execution time in seconds (`duration` counter).
    pub solo_time: f64,
    /// Measured execution time of the 1-GPC private-memory run — the
    /// extra run the paper's classification procedure performs (§V-A2).
    pub one_gpc_time: f64,
}

impl JobProfile {
    /// `Compute (SM) [%]` from the profile.
    #[must_use]
    pub fn compute_pct(&self) -> f64 {
        self.counters.compute_sm_pct
    }

    /// Measured 1-GPC degradation, `1 − solo/one_gpc` (the paper's US
    /// classification input).
    #[must_use]
    pub fn one_gpc_degradation(&self) -> f64 {
        (1.0 - self.solo_time / self.one_gpc_time.max(1e-9)).max(0.0)
    }

    /// `Memory [%]` from the profile.
    #[must_use]
    pub fn memory_pct(&self) -> f64 {
        self.counters.memory_pct
    }
}

/// The profiling harness: Nsight Compute's stand-in.
#[derive(Debug, Clone)]
pub struct Profiler {
    arch: GpuArch,
    /// Relative measurement noise (e.g. 0.03 = ±3%).
    noise_level: f64,
    seed: u64,
}

impl Profiler {
    /// Create a profiler for an architecture.
    #[must_use]
    pub fn new(arch: GpuArch, noise_level: f64, seed: u64) -> Self {
        Self {
            arch,
            noise_level,
            seed,
        }
    }

    /// A noise-free profiler (useful in tests and ablations).
    #[must_use]
    pub fn exact(arch: GpuArch) -> Self {
        Self::new(arch, 0.0, 0)
    }

    /// Profile one application: one simulated exclusive solo run plus
    /// the 1-GPC private run used by the classification procedure.
    #[must_use]
    pub fn profile(&self, app: &AppModel) -> JobProfile {
        let counters = CounterSet::collect(app, &self.arch, self.noise_level, self.seed);
        let solo_time = counters.duration_ms / 1e3;
        let one_gpc_rate = solo_rate(
            app,
            self.arch.gpc_fraction(),
            self.arch.mem_slice_fraction(),
        );
        let mut rng = SplitMix64::from_key(self.seed ^ 0x16c, &app.name);
        let one_gpc_time =
            (app.solo_time / one_gpc_rate.max(1e-6)) * rng.noise_factor(self.noise_level);
        JobProfile {
            solo_time,
            one_gpc_time,
            counters,
        }
    }

    /// The architecture profiled against.
    #[must_use]
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> AppModel {
        AppModel::builder("stream")
            .parallel_fraction(0.97)
            .compute_demand(0.3)
            .mem_demand(1.0)
            .solo_time(10.0)
            .utilisation(32.0, 95.0)
            .build()
    }

    #[test]
    fn exact_profile_matches_ground_truth() {
        let p = Profiler::exact(GpuArch::a100());
        let prof = p.profile(&app());
        assert!((prof.solo_time - 10.0).abs() < 1e-9);
        assert!((prof.compute_pct() - 32.0).abs() < 1e-9);
        assert!((prof.memory_pct() - 95.0).abs() < 1e-9);
        // stream at 1 GPC private is bandwidth-crushed: big degradation.
        assert!(prof.one_gpc_degradation() > 0.5);
    }

    #[test]
    fn noisy_profile_is_deterministic_and_bounded() {
        let p = Profiler::new(GpuArch::a100(), 0.05, 99);
        let a = p.profile(&app());
        let b = p.profile(&app());
        assert_eq!(a, b, "same seed → same measurement");
        assert!((a.solo_time - 10.0).abs() / 10.0 <= 0.05 + 1e-9);
    }

    #[test]
    fn different_seeds_measure_differently() {
        let a = Profiler::new(GpuArch::a100(), 0.05, 1).profile(&app());
        let b = Profiler::new(GpuArch::a100(), 0.05, 2).profile(&app());
        assert_ne!(a, b);
    }
}
