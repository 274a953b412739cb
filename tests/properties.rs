//! Property-based tests (proptest) on the core invariants of the
//! simulator and scheduler substrates.

use hrp::gpusim::mps::validate_shares;
use hrp::gpusim::notation::{format_scheme, parse_scheme};
use hrp::gpusim::perf::{corun_rates, solo_rate};
use hrp::gpusim::simulate_corun;
use hrp::prelude::*;
use proptest::prelude::*;

/// Strategy: a plausible application model.
fn arb_app() -> impl Strategy<Value = AppModel> {
    (
        0.0f64..0.99,
        0.05f64..1.0,
        0.01f64..1.0,
        0.0f64..0.5,
        0.0f64..0.3,
        0.5f64..120.0,
    )
        .prop_map(|(f, u, b, sigma, crowd, t)| {
            AppModel::builder("prop")
                .parallel_fraction(f)
                .compute_demand(u)
                .mem_demand(b)
                .interference_sensitivity(sigma)
                .crowd_sensitivity(crowd)
                .solo_time(t)
                .build()
        })
}

/// Strategy: MPS shares for `n` clients that sum to 1.
fn arb_shares(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..=10, n).prop_map(|ws| {
        let total: u32 = ws.iter().sum();
        ws.iter()
            .map(|&w| f64::from(w) / f64::from(total))
            .collect()
    })
}

proptest! {
    #[test]
    fn amdahl_speedup_is_bounded_and_monotone(app in arb_app(), c1 in 0.01f64..1.0, c2 in 0.01f64..1.0) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let s_lo = app.amdahl_speedup(lo);
        let s_hi = app.amdahl_speedup(hi);
        prop_assert!(s_lo > 0.0 && s_hi <= 1.0 + 1e-12);
        prop_assert!(s_lo <= s_hi + 1e-12);
    }

    #[test]
    fn solo_rate_never_exceeds_one(app in arb_app(), c in 0.01f64..1.0, m in 0.01f64..1.0) {
        let r = solo_rate(&app, c, m);
        prop_assert!(r > 0.0 && r <= 1.0 + 1e-9, "rate {r}");
    }

    #[test]
    fn mps_shares_strategy_always_validates(shares in arb_shares(4)) {
        prop_assert!(validate_shares(&shares).is_ok());
    }

    #[test]
    fn mps_only_partition_rates_bounded(
        apps in proptest::collection::vec(arb_app(), 2..=4),
        raw in proptest::collection::vec(1u32..=10, 4),
    ) {
        let n = apps.len();
        let total: u32 = raw[..n].iter().sum();
        let shares: Vec<f64> = raw[..n].iter().map(|&w| f64::from(w) / f64::from(total)).collect();
        let part = PartitionScheme::mps_only(shares).compile(&GpuArch::a100()).unwrap();
        let occ: Vec<(&AppModel, usize)> = apps.iter().enumerate().map(|(i, a)| (a, i)).collect();
        let rates = corun_rates(&occ, &part);
        for r in rates {
            prop_assert!(r > 0.0 && r <= 1.0 + 1e-9, "rate {r}");
        }
    }

    #[test]
    fn corun_never_finishes_before_the_longest_throttled_job(
        apps in proptest::collection::vec(arb_app(), 2..=4),
    ) {
        let n = apps.len();
        let share = 1.0 / n as f64;
        let part = PartitionScheme::mps_only(vec![share; n])
            .compile(&GpuArch::a100())
            .unwrap();
        let refs: Vec<&AppModel> = apps.iter().collect();
        let assignment: Vec<usize> = (0..n).collect();
        let res = simulate_corun(&refs, &assignment, &part);
        // Lower bound: every job needs at least solo_time (rates ≤ 1).
        let max_solo = apps.iter().map(|a| a.solo_time).fold(0.0, f64::max);
        prop_assert!(res.makespan >= max_solo - 1e-6);
        // Upper bound: worse than fully serial is impossible for the
        // engine (rates are positive and some job always progresses).
        let sum_solo: f64 = apps.iter().map(|a| a.solo_time).sum();
        let min_rate_bound = res.makespan
            <= sum_solo / apps.iter().map(|a| {
                let comp = a.compute_rate(share);
                comp * 1e-3
            }).fold(f64::INFINITY, f64::min).max(1e-3);
        prop_assert!(min_rate_bound);
        // Every job finishes by the makespan, and the last one to finish
        // sets it.
        for &t in &res.finish_times {
            prop_assert!(t <= res.makespan);
        }
        let last = res.finish_times.iter().copied().fold(f64::MIN, f64::max);
        prop_assert_eq!(last, res.makespan);
    }

    #[test]
    fn notation_roundtrip_mps(shares in arb_shares(4)) {
        // Truncate shares to 3 decimals so formatting is lossless.
        let shares: Vec<f64> = shares.iter().map(|s| (s * 1000.0).round() / 1000.0).collect();
        prop_assume!(shares.iter().all(|&s| s > 0.0));
        let scheme = PartitionScheme::mps_only(shares);
        let text = format_scheme(&scheme);
        let back = parse_scheme(&text).unwrap();
        prop_assert_eq!(back, scheme);
    }

    #[test]
    fn notation_roundtrip_hierarchical(
        s3 in arb_shares(2),
        s4 in arb_shares(2),
        use_shared in any::<bool>(),
    ) {
        let round = |v: Vec<f64>| -> Vec<f64> {
            v.iter().map(|s| (s * 1000.0).round() / 1000.0).collect()
        };
        let (s3, s4) = (round(s3), round(s4));
        prop_assume!(s3.iter().chain(s4.iter()).all(|&s| s > 0.0));
        let scheme = if use_shared {
            PartitionScheme::hierarchical_shared_3_4(s3, s4)
        } else {
            PartitionScheme::hierarchical_3_4(s3, s4)
        };
        let text = format_scheme(&scheme);
        let back = parse_scheme(&text).unwrap();
        prop_assert_eq!(back, scheme);
    }

    #[test]
    fn compiled_partitions_conserve_resources(
        s3 in arb_shares(2),
        s4 in arb_shares(2),
    ) {
        let scheme = PartitionScheme::hierarchical_3_4(s3, s4);
        let part = scheme.compile(&GpuArch::a100()).unwrap();
        // MIG on: at most 7/8 of compute allocatable.
        prop_assert!(part.total_compute() <= 0.875 + 1e-9);
        // Domain bandwidth fractions are valid and sum ≤ 1.
        let bw: f64 = part.domains.iter().map(|d| d.bandwidth_frac).sum();
        prop_assert!(bw <= 1.0 + 1e-9);
        for s in &part.slots {
            prop_assert!(s.domain < part.domains.len());
        }
    }

    #[test]
    fn classification_is_total(app in arb_app()) {
        // Every conceivable app lands in exactly one class.
        let class = hrp::workloads::classify(&app, &GpuArch::a100());
        prop_assert!(matches!(class, Class::Ci | Class::Mi | Class::Us));
    }
}
