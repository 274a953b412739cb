//! Small-sample summary statistics for the bench harness.
//!
//! The `repro` bench commands time a handful of repetitions per
//! configuration, so the confidence interval has to come from the
//! Student t distribution, not the normal approximation: with 3–5
//! samples the 97.5 % t quantile (4.30 at 2 degrees of freedom) is
//! more than twice the 1.96 a z interval would use. The table below
//! covers the degrees of freedom a bench run can produce; beyond 30
//! the normal quantile is within 2 % and is used directly.

/// Two-sided 95 % Student t critical values, indexed by degrees of
/// freedom (`T_CRIT_95[df]`; entry 0 is a placeholder — a single
/// sample has no spread estimate).
const T_CRIT_95: [f64; 31] = [
    f64::INFINITY,
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

/// 97.5 % t quantile for `df` degrees of freedom (95 % two-sided).
#[must_use]
pub fn t_crit_95(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df < T_CRIT_95.len() {
        T_CRIT_95[df]
    } else {
        1.96
    }
}

/// Summary of repeated measurements of one quantity: sample mean,
/// standard error, and the 95 % confidence interval of the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean (`s / sqrt(n)`; `0` for `n < 2`).
    pub std_err: f64,
    /// Lower end of the 95 % CI (`mean` when it cannot be estimated).
    pub ci95_lo: f64,
    /// Upper end of the 95 % CI.
    pub ci95_hi: f64,
}

impl RunStats {
    /// Summarise `samples` (sample mean, Bessel-corrected standard
    /// error, Student t 95 % CI).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains a non-finite value.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "stats need at least one sample");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "samples must be finite"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Self {
                n,
                mean,
                std_err: 0.0,
                ci95_lo: mean,
                ci95_hi: mean,
            };
        }
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let std_err = (var / n as f64).sqrt();
        let half = t_crit_95(n - 1) * std_err;
        Self {
            n,
            mean,
            std_err,
            ci95_lo: mean - half,
            ci95_hi: mean + half,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_samples_collapse_the_interval() {
        let s = RunStats::from_samples(&[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_err, 0.0);
        assert_eq!((s.ci95_lo, s.ci95_hi), (3.0, 3.0));
    }

    #[test]
    fn known_small_sample() {
        // samples 1..=5: mean 3, s = sqrt(2.5), se = sqrt(0.5),
        // t(4) = 2.776 → half-width 2.776 * 0.7071…
        let s = RunStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_err - 0.5f64.sqrt()).abs() < 1e-12);
        let half = 2.776 * 0.5f64.sqrt();
        assert!((s.ci95_hi - (3.0 + half)).abs() < 1e-9, "{}", s.ci95_hi);
        assert!((s.ci95_lo - (3.0 - half)).abs() < 1e-9, "{}", s.ci95_lo);
    }

    #[test]
    fn single_sample_has_a_degenerate_interval() {
        let s = RunStats::from_samples(&[7.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.std_err, 0.0);
        assert_eq!((s.ci95_lo, s.ci95_hi), (7.5, 7.5));
    }

    #[test]
    fn t_table_falls_back_to_normal_for_large_df() {
        assert_eq!(t_crit_95(0), f64::INFINITY);
        assert!((t_crit_95(2) - 4.303).abs() < 1e-12);
        assert!((t_crit_95(30) - 2.042).abs() < 1e-12);
        assert!((t_crit_95(31) - 1.96).abs() < 1e-12);
        assert!((t_crit_95(10_000) - 1.96).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_are_rejected() {
        let _ = RunStats::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_samples_are_rejected() {
        let _ = RunStats::from_samples(&[1.0, f64::NAN]);
    }
}
