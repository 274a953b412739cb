//! Profile-driven co-run prediction.
//!
//! The whole point of collecting job profiles (paper Fig. 7) is being
//! able to reason about a co-run *before launching it*. This module
//! reconstructs an approximate application model from nothing but the
//! measured profile — the Table III counters, the solo run, and the
//! 1-GPC private run the classification procedure performs anyway — and
//! predicts co-run times by running the same analytic engine on the
//! reconstruction:
//!
//! * compute requirement `û` ← `Compute (SM) [%] / 100`;
//! * bandwidth demand `b̂` ← `DRAM Throughput / peak`;
//! * Amdahl fraction `f̂` ← inverted numerically from the measured
//!   1-GPC rate (given `û`, `b̂`);
//! * interference/crowding sensitivities ← per-class calibration
//!   constants (the class itself comes from the measured procedure).
//!
//! Because the inputs are noisy measurements and the sensitivities are
//! class-level constants, predictions deviate from the "hardware"
//! (ground-truth models) — the gap the RL agent learns to absorb.

use crate::problem::permute;
use hrp_gpusim::arch::GpuArch;
use hrp_gpusim::engine::simulate_corun;
use hrp_gpusim::perf::solo_rate;
use hrp_gpusim::{AppModel, CompiledPartition};
use hrp_profile::JobProfile;
use hrp_workloads::{Class, CI_RATIO_THRESHOLD, US_DEGRADATION_THRESHOLD};

/// Per-class sensitivity constants used in reconstructions (system-level
/// calibration values, fitted once per installation).
#[must_use]
pub fn class_sensitivities(class: Class) -> (f64, f64) {
    // (interference σ, crowding κ)
    match class {
        Class::Ci => (0.11, 0.15),
        Class::Mi => (0.40, 0.25),
        Class::Us => (0.08, 0.30),
    }
}

/// Classify from *measured* quantities (the paper's procedure applied to
/// the profile instead of ground truth).
#[must_use]
pub fn classify_profile(profile: &JobProfile) -> Class {
    if profile.one_gpc_degradation() < US_DEGRADATION_THRESHOLD {
        Class::Us
    } else if profile.counters.compute_memory_ratio() > CI_RATIO_THRESHOLD {
        Class::Ci
    } else {
        Class::Mi
    }
}

/// Reconstruct an approximate [`AppModel`] from a profile. The model is
/// unnamed: no prediction reads a name.
#[must_use]
pub fn reconstruct_app(profile: &JobProfile, arch: &GpuArch) -> AppModel {
    let u_hat = (profile.counters.compute_sm_pct / 100.0).clamp(0.05, 1.0);
    let b_hat = (profile.counters.dram_throughput_gbs / arch.peak_bw_gbs).clamp(1e-3, 1.0);
    let class = classify_profile(profile);
    let (sigma, kappa) = class_sensitivities(class);

    // Invert the Amdahl fraction from the measured 1-GPC rate: the
    // predicted 1-GPC rate is monotonically decreasing in f, so bisect.
    let measured_rate = (profile.solo_time / profile.one_gpc_time.max(1e-9)).clamp(1e-3, 1.0);
    let rate_for = |f: f64| {
        let probe = AppModel::builder("")
            .parallel_fraction(f)
            .compute_demand(u_hat)
            .mem_demand(b_hat)
            .build();
        solo_rate(&probe, arch.gpc_fraction(), arch.mem_slice_fraction())
    };
    let mut lo = 0.0f64;
    let mut hi = 0.9999f64;
    if rate_for(lo) <= measured_rate {
        hi = lo;
    } else if rate_for(hi) >= measured_rate {
        lo = hi;
    } else {
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if rate_for(mid) > measured_rate {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    let f_hat = 0.5 * (lo + hi);

    AppModel::builder("")
        .parallel_fraction(f_hat)
        .compute_demand(u_hat)
        .mem_demand(b_hat)
        .interference_sensitivity(sigma)
        .crowd_sensitivity(kappa)
        .solo_time(profile.solo_time)
        .utilisation(profile.counters.compute_sm_pct, profile.counters.memory_pct)
        .build()
}

/// A co-run predictor over a fixed set of jobs (one window).
#[derive(Debug, Clone)]
pub struct CoRunPredictor {
    apps: Vec<AppModel>,
}

impl CoRunPredictor {
    /// Build from per-job profiles (the `i`-th profile is job `i`'s).
    #[must_use]
    pub fn new<'p>(profiles: impl IntoIterator<Item = &'p JobProfile>, arch: &GpuArch) -> Self {
        let apps = profiles
            .into_iter()
            .map(|p| reconstruct_app(p, arch))
            .collect();
        Self { apps }
    }

    /// Predicted makespan of co-running `job_ids` on `part`
    /// (`assignment[k]` = slot of `job_ids[k]`).
    #[must_use]
    pub fn predict_makespan(
        &self,
        job_ids: &[usize],
        part: &CompiledPartition,
        assignment: &[usize],
    ) -> f64 {
        let apps: Vec<&AppModel> = job_ids.iter().map(|&j| &self.apps[j]).collect();
        simulate_corun(&apps, assignment, part).makespan
    }

    /// Predicted makespan under the best slot assignment; returns
    /// `(makespan, assignment)`.
    #[must_use]
    pub fn predict_best_assignment(
        &self,
        job_ids: &[usize],
        part: &CompiledPartition,
    ) -> (f64, Vec<usize>) {
        let c = job_ids.len();
        let mut best = (f64::INFINITY, (0..c).collect::<Vec<_>>());
        let mut perm: Vec<usize> = (0..c).collect();
        permute(&mut perm, 0, &mut |assignment: &[usize]| {
            let m = self.predict_makespan(job_ids, part, assignment);
            if m < best.0 {
                best = (m, assignment.to_vec());
            }
        });
        best
    }

    /// Predicted solo (time-sharing) time of a job set.
    #[must_use]
    pub fn predicted_solo_sum(&self, job_ids: &[usize]) -> f64 {
        job_ids.iter().map(|&j| self.apps[j].solo_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::PartitionScheme;
    use hrp_profile::Profiler;
    use hrp_workloads::Suite;

    fn setup() -> (Suite, Vec<JobProfile>) {
        let arch = GpuArch::a100();
        let suite = Suite::paper_suite(&arch);
        let profiler = Profiler::new(arch, 0.02, 5);
        let profiles: Vec<JobProfile> = suite
            .benchmarks()
            .iter()
            .map(|b| profiler.profile(&b.app))
            .collect();
        (suite, profiles)
    }

    #[test]
    fn measured_classification_matches_table_iv() {
        let (suite, profiles) = setup();
        for (b, p) in suite.benchmarks().iter().zip(profiles.iter()) {
            assert_eq!(
                classify_profile(p),
                b.class,
                "{} misclassified from measurements",
                b.app.name
            );
        }
    }

    #[test]
    fn reconstruction_recovers_key_parameters() {
        let (suite, profiles) = setup();
        let arch = suite.arch();
        for (b, p) in suite.benchmarks().iter().zip(&profiles) {
            let n = &b.app.name;
            let rec = reconstruct_app(p, arch);
            assert!(
                (rec.mem_demand - b.app.mem_demand).abs() < 0.08,
                "{n}: b {} vs {}",
                rec.mem_demand,
                b.app.mem_demand
            );
            assert!(
                (rec.compute_demand - b.app.compute_demand).abs() < 0.12,
                "{n}: u {} vs {}",
                rec.compute_demand,
                b.app.compute_demand
            );
            assert!(
                (rec.solo_time - b.app.solo_time).abs() / b.app.solo_time < 0.05,
                "{n}: t"
            );
        }
    }

    #[test]
    fn predictions_track_ground_truth() {
        // The predictor's ranking of configurations must correlate with
        // the "hardware": check on a complementary pair that prediction
        // and ground truth agree the skewed split beats the inverted one.
        let (suite, profiles) = setup();
        let arch = suite.arch().clone();
        let pred = CoRunPredictor::new(&profiles, &arch);
        let bt = suite.index_of("bt_solver_A").unwrap();
        let sp = suite.index_of("sp_solver_B").unwrap();

        let good = PartitionScheme::mps_only(vec![0.7, 0.3]) // CI big
            .compile(&arch)
            .unwrap();
        let bad = PartitionScheme::mps_only(vec![0.2, 0.8]) // CI starved
            .compile(&arch)
            .unwrap();
        let m_good = pred.predict_makespan(&[bt, sp], &good, &[0, 1]);
        let m_bad = pred.predict_makespan(&[bt, sp], &bad, &[0, 1]);
        assert!(m_good < m_bad, "predicted {m_good} vs {m_bad}");

        // And prediction error versus ground truth stays moderate.
        use crate::problem::evaluate_group;
        use hrp_workloads::JobQueue;
        let queue = JobQueue::from_names("p", &["bt_solver_A", "sp_solver_B"], &suite);
        let truth = evaluate_group(
            &suite,
            &queue,
            &[0, 1],
            &PartitionScheme::mps_only(vec![0.7, 0.3]),
            &[0, 1],
        );
        let rel_err = (m_good - truth.corun_time).abs() / truth.corun_time;
        assert!(rel_err < 0.25, "prediction off by {rel_err}");
    }

    #[test]
    fn best_assignment_orients_complementary_pairs() {
        let (suite, profiles) = setup();
        let arch = suite.arch().clone();
        let pred = CoRunPredictor::new(&profiles, &arch);
        let bt = suite.index_of("bt_solver_A").unwrap();
        let sp = suite.index_of("sp_solver_B").unwrap();
        let part = PartitionScheme::mps_only(vec![0.3, 0.7])
            .compile(&arch)
            .unwrap();
        let (_, assignment) = pred.predict_best_assignment(&[bt, sp], &part);
        // bt (CI) must land on the 0.7 slot (index 1).
        assert_eq!(assignment[0], 1, "CI on the big slot: {assignment:?}");
    }
}
