//! Synthesis of the hardware performance counters of the paper's
//! Table III.
//!
//! The paper profiles every application once (solo, full GPU) with Nsight
//! Compute and stores twelve statistics. Here the "measurement" derives
//! each statistic from the application model's ground truth plus bounded
//! multiplicative noise — reproducing both the information content and
//! the imperfection of real profiles (the DQN never sees ground truth).

use crate::app::AppModel;
use crate::arch::GpuArch;
use crate::rng::SplitMix64;

/// The twelve statistics of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSet {
    /// Kernel duration in milliseconds.
    pub duration_ms: f64,
    /// `Memory [%]` — memory-subsystem utilisation.
    pub memory_pct: f64,
    /// Total elapsed SM cycles.
    pub elapsed_cycles: f64,
    /// Grid size (CTAs launched).
    pub grid_size: f64,
    /// Registers per thread.
    pub registers_per_thread: f64,
    /// DRAM throughput in GB/s.
    pub dram_throughput_gbs: f64,
    /// L1/TEX cache throughput (% of peak).
    pub l1_tex_throughput_pct: f64,
    /// L2 cache throughput (% of peak).
    pub l2_throughput_pct: f64,
    /// SM active cycles.
    pub sm_active_cycles: f64,
    /// `Compute (SM) [%]` — SM utilisation.
    pub compute_sm_pct: f64,
    /// Waves per SM.
    pub waves_per_sm: f64,
    /// Achieved active warps per SM (0–64).
    pub achieved_warps_per_sm: f64,
}

/// Number of features exported by [`CounterSet::to_features`].
pub const NUM_FEATURES: usize = 12;

impl CounterSet {
    /// "Measure" an application's counters on `arch` with multiplicative
    /// noise of the given relative level (e.g. `0.03` for ±3%).
    #[must_use]
    pub fn collect(app: &AppModel, arch: &GpuArch, noise_level: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::from_key(seed, &app.name);
        let mut n = |x: f64| x * rng.noise_factor(noise_level);

        let duration_ms = n(app.solo_time * 1e3);
        let memory_pct = n(app.mem_pct).clamp(0.0, 100.0);
        let compute_sm_pct = n(app.sm_pct).clamp(0.0, 100.0);
        let elapsed_cycles = duration_ms * 1e-3 * arch.clock_mhz * 1e6;
        let sm_active_cycles = elapsed_cycles * (compute_sm_pct / 100.0).clamp(0.02, 1.0);
        let dram_throughput_gbs = n(app.mem_demand * arch.peak_bw_gbs);
        // L2 sees DRAM traffic plus reuse proportional to how much of the
        // working set fits; L1 correlates with compute utilisation.
        let reuse = (1.0 - (app.working_set_mib / (arch.hbm_gib * 1024.0)).min(1.0)) * 0.5;
        let l2_throughput_pct = n((app.mem_demand * (1.0 + reuse) * 100.0).min(100.0));
        let l1_tex_throughput_pct = n((app.sm_pct * 0.8).min(100.0));

        Self {
            duration_ms,
            memory_pct,
            elapsed_cycles,
            grid_size: n(app.grid_size as f64),
            registers_per_thread: app.regs_per_thread.into(),
            dram_throughput_gbs,
            l1_tex_throughput_pct,
            l2_throughput_pct,
            sm_active_cycles,
            compute_sm_pct,
            waves_per_sm: n(app.waves_per_sm),
            achieved_warps_per_sm: n(app.achieved_warps).clamp(0.0, 64.0),
        }
    }

    /// Export as a raw feature vector (fixed order, matching Table III's
    /// listing). Feature scaling is the profiler crate's job.
    #[must_use]
    pub fn to_features(&self) -> [f64; NUM_FEATURES] {
        [
            self.duration_ms,
            self.memory_pct,
            self.elapsed_cycles,
            self.grid_size,
            self.registers_per_thread,
            self.dram_throughput_gbs,
            self.l1_tex_throughput_pct,
            self.l2_throughput_pct,
            self.sm_active_cycles,
            self.compute_sm_pct,
            self.waves_per_sm,
            self.achieved_warps_per_sm,
        ]
    }

    /// The compute-to-memory ratio the paper's classification procedure
    /// uses, computed from *measured* counters.
    #[must_use]
    pub fn compute_memory_ratio(&self) -> f64 {
        if self.memory_pct <= 0.0 {
            f64::INFINITY
        } else {
            self.compute_sm_pct / self.memory_pct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_app() -> AppModel {
        AppModel::builder("lavaMD")
            .parallel_fraction(0.97)
            .mem_demand(0.3)
            .solo_time(20.0)
            .utilisation(85.0, 35.0)
            .occupancy(8000, 64, 6.0, 48.0)
            .build()
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let app = sample_app();
        let arch = GpuArch::a100();
        let a = CounterSet::collect(&app, &arch, 0.03, 42);
        let b = CounterSet::collect(&app, &arch, 0.03, 42);
        assert_eq!(a, b);
        let c = CounterSet::collect(&app, &arch, 0.03, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_noise_reflects_ground_truth() {
        let app = sample_app();
        let arch = GpuArch::a100();
        let c = CounterSet::collect(&app, &arch, 0.0, 1);
        assert!((c.duration_ms - 20_000.0).abs() < 1e-6);
        assert!((c.memory_pct - 35.0).abs() < 1e-9);
        assert!((c.compute_sm_pct - 85.0).abs() < 1e-9);
        assert!((c.dram_throughput_gbs - 0.3 * arch.peak_bw_gbs).abs() < 1e-6);
    }

    #[test]
    fn noise_stays_bounded() {
        let app = sample_app();
        let arch = GpuArch::a100();
        for seed in 0..50 {
            let c = CounterSet::collect(&app, &arch, 0.05, seed);
            assert!((c.duration_ms - 20_000.0).abs() / 20_000.0 <= 0.05 + 1e-9);
            assert!(c.memory_pct <= 100.0);
            assert!(c.achieved_warps_per_sm <= 64.0);
        }
    }

    #[test]
    fn features_have_fixed_arity_and_order() {
        let app = sample_app();
        let c = CounterSet::collect(&app, &GpuArch::a100(), 0.0, 1);
        let f = c.to_features();
        assert_eq!(f.len(), NUM_FEATURES);
        assert!((f[0] - c.duration_ms).abs() < 1e-12);
        assert!((f[9] - c.compute_sm_pct).abs() < 1e-12);
    }

    #[test]
    fn ratio_matches_classification_input() {
        let app = sample_app();
        let c = CounterSet::collect(&app, &GpuArch::a100(), 0.0, 1);
        assert!((c.compute_memory_ratio() - 85.0 / 35.0).abs() < 1e-9);
    }
}
