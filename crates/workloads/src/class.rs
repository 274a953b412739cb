//! The paper's application classification procedure (§V-A2, following
//! Arima et al., ICPP Workshops 2022 \[6\]):
//!
//! 1. if the performance degradation of a **1-GPC private-memory run**
//!    relative to the full 8-GPC run is below 10%, the application is
//!    **UnScalable (US)**;
//! 2. otherwise, if `Compute (SM) [%] / Memory [%] > 0.80` it is
//!    **Compute Intensive (CI)**;
//! 3. otherwise it is **Memory Intensive (MI)**.

use hrp_gpusim::arch::GpuArch;
use hrp_gpusim::perf::solo_rate;
use hrp_gpusim::AppModel;
use std::fmt;

/// Degradation threshold below which an app counts as UnScalable.
pub const US_DEGRADATION_THRESHOLD: f64 = 0.10;

/// `Compute (SM) [%] / Memory [%]` threshold above which a (scalable) app
/// counts as Compute Intensive.
pub const CI_RATIO_THRESHOLD: f64 = 0.80;

/// Application class per the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Compute Intensive.
    Ci,
    /// Memory Intensive.
    Mi,
    /// UnScalable.
    Us,
}

impl Class {
    /// All classes, in the paper's listing order.
    pub const ALL: [Class; 3] = [Class::Ci, Class::Mi, Class::Us];

    /// Paper-style short name.
    #[must_use]
    pub fn short(self) -> &'static str {
        match self {
            Class::Ci => "CI",
            Class::Mi => "MI",
            Class::Us => "US",
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

/// The measured slowdown of a 1-GPC private run versus the full GPU
/// (this is what the paper measures on hardware; here it is evaluated on
/// the simulator's rate model).
#[must_use]
pub fn one_gpc_degradation(app: &AppModel, arch: &GpuArch) -> f64 {
    let one_gpc = solo_rate(app, arch.gpc_fraction(), arch.mem_slice_fraction());
    (1.0 - one_gpc).max(0.0)
}

/// Classify an application with the paper's procedure.
#[must_use]
pub fn classify(app: &AppModel, arch: &GpuArch) -> Class {
    if one_gpc_degradation(app, arch) < US_DEGRADATION_THRESHOLD {
        Class::Us
    } else if app.compute_memory_ratio() > CI_RATIO_THRESHOLD {
        Class::Ci
    } else {
        Class::Mi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> GpuArch {
        GpuArch::a100()
    }

    #[test]
    fn compute_hungry_app_is_ci() {
        let app = AppModel::builder("ci")
            .parallel_fraction(0.96)
            .compute_demand(0.9)
            .mem_demand(0.3)
            .utilisation(85.0, 35.0)
            .build();
        assert_eq!(classify(&app, &arch()), Class::Ci);
    }

    #[test]
    fn bandwidth_hungry_app_is_mi() {
        let app = AppModel::builder("mi")
            .parallel_fraction(0.93)
            .compute_demand(0.4)
            .mem_demand(0.85)
            .utilisation(45.0, 80.0)
            .build();
        assert_eq!(classify(&app, &arch()), Class::Mi);
    }

    #[test]
    fn undemanding_app_is_us() {
        let app = AppModel::builder("us")
            .parallel_fraction(0.2)
            .compute_demand(0.42)
            .mem_demand(0.1)
            .utilisation(35.0, 30.0)
            .build();
        assert_eq!(classify(&app, &arch()), Class::Us);
        assert!(one_gpc_degradation(&app, &arch()) < US_DEGRADATION_THRESHOLD);
    }

    #[test]
    fn us_takes_priority_over_ratio() {
        // High SM/Memory ratio but unscalable → still US (the procedure
        // checks scalability first).
        let app = AppModel::builder("us-ci-ish")
            .parallel_fraction(0.1)
            .compute_demand(0.3)
            .mem_demand(0.05)
            .utilisation(60.0, 20.0)
            .build();
        assert_eq!(classify(&app, &arch()), Class::Us);
    }

    #[test]
    fn boundary_ratio_is_mi() {
        // Exactly at the 0.8 ratio → not strictly greater → MI.
        let app = AppModel::builder("edge")
            .parallel_fraction(0.95)
            .compute_demand(0.8)
            .mem_demand(0.6)
            .utilisation(40.0, 50.0)
            .build();
        assert_eq!(classify(&app, &arch()), Class::Mi);
    }

    #[test]
    fn degradation_is_clamped_nonnegative() {
        let app = AppModel::builder("free")
            .parallel_fraction(0.01)
            .compute_demand(0.05)
            .mem_demand(0.01)
            .build();
        let d = one_gpc_degradation(&app, &arch());
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn class_display_names() {
        assert_eq!(Class::Ci.to_string(), "CI");
        assert_eq!(Class::Mi.to_string(), "MI");
        assert_eq!(Class::Us.to_string(), "US");
    }
}
