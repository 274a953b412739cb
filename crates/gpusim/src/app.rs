//! The application (GPU kernel workload) model.
//!
//! An [`AppModel`] abstracts a GPU program by the handful of parameters
//! that determine its co-run behaviour. The parameters correspond to what
//! the paper measures with Nsight Compute (Table III) and to the
//! classification of its Table IV:
//!
//! * **parallel fraction** `f` — the Amdahl fraction: how much of the
//!   program's work scales with the number of SMs. Unscalable (US)
//!   applications have tiny `f` (the paper classifies an app as US when a
//!   1-GPC private run degrades performance by < 10%).
//! * **memory demand** `b` — the fraction of full-GPU DRAM bandwidth the
//!   app consumes when running unthrottled. Memory-intensive (MI) apps
//!   approach 1.
//! * **interference sensitivity** `σ` — extra slowdown per unit of
//!   *foreign* DRAM traffic in the same memory domain (LLC thrashing and
//!   row-buffer conflicts). This is the mechanism MIG isolation removes
//!   and MPS cannot (paper Fig. 4).
//! * **solo time** — full-GPU runtime in seconds; rates are normalized so
//!   a solo full-GPU run progresses at rate 1.

/// Parameters of one GPU application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    /// Program name (`CounterSet::collect` keys its measurement noise on
    /// it).
    pub name: String,
    /// Amdahl parallel fraction in `[0, 1)`.
    pub parallel_fraction: f64,
    /// Fraction of the full GPU's compute throughput the app actually
    /// needs to progress at full speed, in `(0, 1]` (the roofline compute
    /// requirement). Memory-bound apps have small values: they saturate
    /// DRAM with a fraction of the SMs, so capping their SM share barely
    /// hurts until the cap crosses this demand.
    pub compute_demand: f64,
    /// Unthrottled DRAM bandwidth demand as a fraction of the full GPU's
    /// peak, in `(0, 1]`.
    pub mem_demand: f64,
    /// Slowdown per unit of foreign same-domain DRAM traffic (≥ 0).
    pub interference_sensitivity: f64,
    /// Co-residency overhead coefficient: with `m` clients sharing the
    /// app's memory domain the app slows by `1 / (1 + κ·(m−1)²)` (LLC
    /// thrash and controller queueing grow superlinearly). MIG isolation
    /// removes this entirely; MPS cannot.
    pub crowd_sensitivity: f64,
    /// Solo full-GPU execution time in seconds.
    pub solo_time: f64,
    /// Ground-truth `Compute (SM) [%]` utilisation (0–100).
    pub sm_pct: f64,
    /// Ground-truth `Memory [%]` utilisation (0–100).
    pub mem_pct: f64,
    /// Working set in MiB (drives cache counters only).
    pub working_set_mib: f64,
    /// Kernel grid size (CTAs) — profiling colour only.
    pub grid_size: u64,
    /// Registers per thread — profiling colour only.
    pub regs_per_thread: u32,
    /// Waves per SM — profiling colour only.
    pub waves_per_sm: f64,
    /// Achieved active warps per SM (0–64) — profiling colour only.
    pub achieved_warps: f64,
}

impl AppModel {
    /// Start building an [`AppModel`]; unspecified fields get neutral
    /// defaults.
    #[must_use]
    pub fn builder(name: &str) -> AppModelBuilder {
        AppModelBuilder::new(name)
    }

    /// Amdahl speedup of running on a fraction `c ∈ (0, 1]` of the SMs,
    /// normalized so `amdahl_speedup(1.0) == 1.0`:
    ///
    /// `S(c) = 1 / ((1 - f) + f / c)`.
    #[must_use]
    pub fn amdahl_speedup(&self, c: f64) -> f64 {
        let c = c.clamp(1e-6, 1.0);
        let f = self.parallel_fraction;
        1.0 / ((1.0 - f) + f / c)
    }

    /// Compute-limited progress rate on a fraction `c` of the SMs:
    /// the Amdahl-scaled capability divided by the app's compute
    /// requirement, capped at 1 (roofline compute leg).
    #[must_use]
    pub fn compute_rate(&self, c: f64) -> f64 {
        (self.amdahl_speedup(c) / self.compute_demand).min(1.0)
    }

    /// The bandwidth (fraction of full-GPU peak) the app would consume
    /// when progressing at `rate` (relative to solo full-GPU).
    #[must_use]
    pub fn bandwidth_at_rate(&self, rate: f64) -> f64 {
        self.mem_demand * rate
    }

    /// Compute-to-memory counter ratio used by the paper's classification
    /// (`Compute (SM) [%] / Memory [%] > 0.8` ⇒ compute-intensive).
    #[must_use]
    pub fn compute_memory_ratio(&self) -> f64 {
        if self.mem_pct <= 0.0 {
            f64::INFINITY
        } else {
            self.sm_pct / self.mem_pct
        }
    }
}

/// Builder for [`AppModel`].
#[derive(Debug, Clone)]
pub struct AppModelBuilder {
    model: AppModel,
}

impl AppModelBuilder {
    fn new(name: &str) -> Self {
        Self {
            model: AppModel {
                name: name.to_owned(),
                parallel_fraction: 0.9,
                compute_demand: 0.7,
                mem_demand: 0.3,
                interference_sensitivity: 0.1,
                crowd_sensitivity: 0.12,
                solo_time: 10.0,
                sm_pct: 60.0,
                mem_pct: 40.0,
                working_set_mib: 512.0,
                grid_size: 4096,
                regs_per_thread: 48,
                waves_per_sm: 4.0,
                achieved_warps: 40.0,
            },
        }
    }

    /// Set the Amdahl parallel fraction (clamped to `[0, 0.9999]`).
    #[must_use]
    pub fn parallel_fraction(mut self, f: f64) -> Self {
        self.model.parallel_fraction = f.clamp(0.0, 0.9999);
        self
    }

    /// Set the unthrottled bandwidth demand (clamped to `(0, 1]`).
    #[must_use]
    pub fn mem_demand(mut self, b: f64) -> Self {
        self.model.mem_demand = b.clamp(1e-3, 1.0);
        self
    }

    /// Set the roofline compute requirement (clamped to `(0, 1]`).
    #[must_use]
    pub fn compute_demand(mut self, u: f64) -> Self {
        self.model.compute_demand = u.clamp(1e-3, 1.0);
        self
    }

    /// Set the interference sensitivity (≥ 0).
    #[must_use]
    pub fn interference_sensitivity(mut self, s: f64) -> Self {
        self.model.interference_sensitivity = s.max(0.0);
        self
    }

    /// Set the co-residency sensitivity (≥ 0).
    #[must_use]
    pub fn crowd_sensitivity(mut self, s: f64) -> Self {
        self.model.crowd_sensitivity = s.max(0.0);
        self
    }

    /// Set the solo full-GPU runtime in seconds.
    #[must_use]
    pub fn solo_time(mut self, t: f64) -> Self {
        self.model.solo_time = t.max(1e-6);
        self
    }

    /// Set the ground-truth SM and memory utilisation percentages.
    #[must_use]
    pub fn utilisation(mut self, sm_pct: f64, mem_pct: f64) -> Self {
        self.model.sm_pct = sm_pct.clamp(0.0, 100.0);
        self.model.mem_pct = mem_pct.clamp(0.0, 100.0);
        self
    }

    /// Set the working-set size in MiB.
    #[must_use]
    pub fn working_set_mib(mut self, ws: f64) -> Self {
        self.model.working_set_mib = ws.max(1.0);
        self
    }

    /// Set profiling-colour occupancy figures.
    #[must_use]
    pub fn occupancy(mut self, grid: u64, regs: u32, waves: f64, warps: f64) -> Self {
        self.model.grid_size = grid;
        self.model.regs_per_thread = regs;
        self.model.waves_per_sm = waves;
        self.model.achieved_warps = warps;
        self
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> AppModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_is_normalized_and_monotone() {
        let app = AppModel::builder("x").parallel_fraction(0.95).build();
        assert!((app.amdahl_speedup(1.0) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 1..=10 {
            let c = f64::from(i) / 10.0;
            let s = app.amdahl_speedup(c);
            assert!(s > prev, "monotone in c");
            assert!(s <= 1.0 + 1e-12);
            prev = s;
        }
    }

    #[test]
    fn unscalable_apps_barely_degrade() {
        // f = 0.01 → 1-GPC run keeps > 93% of full speed.
        let us = AppModel::builder("us").parallel_fraction(0.01).build();
        assert!(us.amdahl_speedup(0.125) > 0.93);
        // f = 0.97 → 1-GPC run is crushed.
        let ci = AppModel::builder("ci").parallel_fraction(0.97).build();
        assert!(ci.amdahl_speedup(0.125) < 0.15);
    }

    #[test]
    fn compute_rate_respects_roofline() {
        // A memory-bound app needing only 30% of the SMs keeps most of
        // its speed when capped at 30% of the GPU.
        let mi = AppModel::builder("mi")
            .parallel_fraction(0.95)
            .compute_demand(0.3)
            .build();
        assert!(mi.compute_rate(0.3) > 0.95, "{}", mi.compute_rate(0.3));
        assert!((mi.compute_rate(1.0) - 1.0).abs() < 1e-12);
        // A compute-hungry app is throttled nearly proportionally.
        let ci = AppModel::builder("ci")
            .parallel_fraction(0.97)
            .compute_demand(0.9)
            .build();
        assert!(ci.compute_rate(0.5) < 0.62);
        assert!(ci.compute_rate(0.5) > ci.compute_rate(0.25));
    }

    #[test]
    fn bandwidth_scales_with_rate() {
        let app = AppModel::builder("x").mem_demand(0.8).build();
        assert!((app.bandwidth_at_rate(1.0) - 0.8).abs() < 1e-12);
        assert!((app.bandwidth_at_rate(0.5) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn builder_clamps() {
        let app = AppModel::builder("x")
            .parallel_fraction(1.5)
            .mem_demand(7.0)
            .interference_sensitivity(-1.0)
            .solo_time(-3.0)
            .build();
        assert!(app.parallel_fraction < 1.0);
        assert!(app.mem_demand <= 1.0);
        assert_eq!(app.interference_sensitivity, 0.0);
        assert!(app.solo_time > 0.0);
    }

    #[test]
    fn compute_memory_ratio_matches_definition() {
        let app = AppModel::builder("x").utilisation(80.0, 40.0).build();
        assert!((app.compute_memory_ratio() - 2.0).abs() < 1e-12);
        let zero = AppModel::builder("z").utilisation(50.0, 0.0).build();
        assert!(zero.compute_memory_ratio().is_infinite());
    }
}
