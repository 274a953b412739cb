//! The instantaneous co-run rate model.
//!
//! Given a compiled partition and the applications currently occupying its
//! slots, [`corun_rates`] computes each application's progress rate
//! relative to its solo full-GPU run. The model composes three effects:
//!
//! 1. **Compute throttling** — slot `i` holds a fraction `c_i` of the SMs;
//!    its compute-limited rate is the roofline leg
//!    `min(1, S_i(c_i) / u_i)` where `S_i` is the Amdahl speedup and
//!    `u_i` the app's compute requirement ([`AppModel::compute_rate`]).
//! 2. **Bandwidth sharing** — within one memory domain, apps demand
//!    `d_i = b_i · r_i^comp` of the full-GPU bandwidth. The domain's pool
//!    `M` is divided **max–min fairly** (water-filling): apps demanding
//!    less than the fair share are fully served; the remainder is split
//!    among the heavy demanders. An app granted `g_i` runs at
//!    `r_i^comp · min(1, g_i / d_i)`.
//! 3. **Interference** — apps in the same domain additionally suffer
//!    `1 / (1 + σ_i · T_f)` where `T_f` is the *foreign* granted traffic in
//!    their domain, and a co-residency factor `1 / (1 + κ_i · (m − 1)²)`
//!    for the `m` clients sharing the domain. The quadratic growth models
//!    queueing at the shared LLC/DRAM controllers: two clients contend
//!    mildly, four thrash — the cost MPS cannot isolate but MIG's
//!    private memory eliminates. This asymmetry reproduces the paper's
//!    Fig. 4 and caps the profitability of wide MPS-only groups, which
//!    is what makes *hierarchical* partitioning (several small domains)
//!    the winning shape for large co-run groups (paper Fig. 5).
//!
//! Rates are dimensionless: 1.0 means "progressing as fast as a solo run
//! on the full GPU".

use crate::app::AppModel;
use crate::partition::CompiledPartition;

/// Maximum co-runners per domain we stack-allocate for.
const MAX_LANES: usize = 16;

/// Compute the instantaneous progress rate of each application.
///
/// `occupants[k] = (app, slot)` places `app` on `part.slots[slot]`; slots
/// not mentioned are idle. Returns one rate per occupant, in input order.
///
/// # Panics
/// Panics if a slot index is out of range or used twice (the engine
/// validates assignments before calling).
#[must_use]
pub fn corun_rates(occupants: &[(&AppModel, usize)], part: &CompiledPartition) -> Vec<f64> {
    let n = occupants.len();
    let mut rates = vec![0.0; n];
    if n == 0 {
        return rates;
    }
    debug_assert!(
        {
            let mut seen = vec![false; part.slots.len()];
            occupants.iter().all(|&(_, s)| {
                let fresh = !seen[s];
                seen[s] = true;
                fresh
            })
        },
        "slot used twice"
    );

    // Process domain by domain.
    for (dom_idx, dom) in part.domains.iter().enumerate() {
        // Indices of occupants in this domain.
        let mut members: [usize; MAX_LANES] = [0; MAX_LANES];
        let mut m = 0;
        for (k, &(_, slot)) in occupants.iter().enumerate() {
            if part.slots[slot].domain == dom_idx {
                assert!(m < MAX_LANES, "too many co-runners in one domain");
                members[m] = k;
                m += 1;
            }
        }
        if m == 0 {
            continue;
        }
        let members = &members[..m];

        // Compute-limited rates and bandwidth demands.
        let mut comp = [0.0f64; MAX_LANES];
        let mut demand = [0.0f64; MAX_LANES];
        for (j, &k) in members.iter().enumerate() {
            let (app, slot) = occupants[k];
            comp[j] = app.compute_rate(part.slots[slot].compute_frac);
            demand[j] = app.bandwidth_at_rate(comp[j]);
        }

        // Max–min fair bandwidth grant (water-filling).
        let mut grant = [0.0f64; MAX_LANES];
        let mut satisfied = [false; MAX_LANES];
        let mut remaining = dom.bandwidth_frac;
        let mut unsat = m;
        loop {
            if unsat == 0 || remaining <= 1e-15 {
                break;
            }
            let fair = remaining / unsat as f64;
            let mut any_below = false;
            for j in 0..m {
                if !satisfied[j] && demand[j] <= fair + 1e-15 {
                    grant[j] = demand[j];
                    remaining -= demand[j];
                    satisfied[j] = true;
                    unsat -= 1;
                    any_below = true;
                }
            }
            if !any_below {
                // Everyone left is heavy: equal split.
                for j in 0..m {
                    if !satisfied[j] {
                        grant[j] = fair;
                        satisfied[j] = true;
                    }
                }
                remaining = 0.0;
                unsat = 0;
            }
        }

        // Total granted traffic in the domain (for the interference term).
        let total_traffic: f64 = grant[..m].iter().sum();

        for (j, &k) in members.iter().enumerate() {
            let (app, _) = occupants[k];
            let mem_factor = if demand[j] <= 1e-15 {
                1.0
            } else {
                (grant[j] / demand[j]).min(1.0)
            };
            let foreign = (total_traffic - grant[j]).max(0.0);
            let interference = 1.0 / (1.0 + app.interference_sensitivity * foreign);
            let peers = (m - 1) as f64;
            let crowding = 1.0 / (1.0 + app.crowd_sensitivity * peers * peers);
            rates[k] = comp[j] * mem_factor * interference * crowding;
        }
    }
    rates
}

/// Rate of a single app running alone on a (possibly partial) slot.
#[must_use]
pub fn solo_rate(app: &AppModel, compute_frac: f64, bandwidth_frac: f64) -> f64 {
    let comp = app.compute_rate(compute_frac);
    let demand = app.bandwidth_at_rate(comp);
    let mem_factor = if demand <= 1e-15 {
        1.0
    } else {
        (bandwidth_frac / demand).min(1.0)
    };
    comp * mem_factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::partition::PartitionScheme;

    /// `u` is the roofline compute requirement (see `AppModel::compute_demand`).
    /// Co-residency sensitivity is zeroed so tests isolate the effect
    /// under study; `crowding_penalises_wide_domains` covers it.
    fn app(name: &str, f: f64, u: f64, b: f64, sigma: f64) -> AppModel {
        AppModel::builder(name)
            .parallel_fraction(f)
            .compute_demand(u)
            .mem_demand(b)
            .interference_sensitivity(sigma)
            .crowd_sensitivity(0.0)
            .build()
    }

    fn compile(s: PartitionScheme) -> CompiledPartition {
        s.compile(&GpuArch::a100()).unwrap()
    }

    #[test]
    fn solo_full_gpu_rate_is_one() {
        let a = app("a", 0.95, 0.8, 0.9, 0.2);
        let part = compile(PartitionScheme::exclusive());
        let r = corun_rates(&[(&a, 0)], &part);
        assert!((r[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_occupancy_is_empty() {
        let part = compile(PartitionScheme::exclusive());
        assert!(corun_rates(&[], &part).is_empty());
    }

    #[test]
    fn compute_bound_pair_shares_cleanly() {
        // Two compute-bound apps with ample bandwidth: each runs at its
        // roofline compute rate, essentially no memory effects.
        let a = app("a", 0.95, 0.9, 0.1, 0.05);
        let b = app("b", 0.95, 0.9, 0.1, 0.05);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let r = corun_rates(&[(&a, 0), (&b, 1)], &part);
        let expect = a.compute_rate(0.5);
        // Only the small interference term separates them.
        assert!((r[0] - expect).abs() < 0.02, "{} vs {expect}", r[0]);
        assert!((r[0] - r[1]).abs() < 1e-12);
    }

    #[test]
    fn complementary_mix_is_efficient() {
        // CI app (low bandwidth) + MI app (low compute need): a skewed
        // compute split serves both well — the heart of paper Fig. 3.
        let ci = app("ci", 0.97, 0.9, 0.15, 0.05);
        let mi = app("mi", 0.95, 0.25, 0.95, 0.25);
        let part = compile(PartitionScheme::mps_only(vec![0.8, 0.2]));
        let r = corun_rates(&[(&ci, 0), (&mi, 1)], &part);
        // Both should keep the majority of their solo speed.
        assert!(r[0] > 0.7, "CI rate {}", r[0]);
        assert!(r[1] > 0.55, "MI rate {}", r[1]);
        // Combined throughput beats time sharing (sum of rates > 1).
        assert!(r[0] + r[1] > 1.3, "sum {}", r[0] + r[1]);
    }

    #[test]
    fn bandwidth_saturation_throttles_heavy_apps() {
        let m1 = app("m1", 0.95, 0.3, 0.9, 0.0);
        let m2 = app("m2", 0.95, 0.3, 0.9, 0.0);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let r = corun_rates(&[(&m1, 0), (&m2, 1)], &part);
        // Each could run near full speed (compute ok) but joint demand
        // ~1.8 > 1 ⇒ each throttled towards 0.5/0.9 ≈ 0.56.
        assert!(r[0] < 0.65, "rate {}", r[0]);
        assert!((r[0] - r[1]).abs() < 1e-12);
    }

    #[test]
    fn max_min_fairness_protects_light_demanders() {
        // A light demander coexists with a hog: the light app must be
        // fully served.
        let light = app("light", 0.95, 0.9, 0.1, 0.0);
        let hog = app("hog", 0.95, 0.3, 1.0, 0.0);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let r = corun_rates(&[(&light, 0), (&hog, 1)], &part);
        let light_solo = light.compute_rate(0.5);
        assert!((r[0] - light_solo).abs() < 1e-9, "light fully served");
        // The hog absorbs the leftover bandwidth, no more.
        assert!(r[1] < 1.0);
    }

    #[test]
    fn mig_isolation_removes_interference() {
        // Same compute split, shared vs private memory: the private
        // option wins for interference-sensitive apps (paper Fig. 4).
        let m1 = app("m1", 0.9, 0.4, 0.8, 0.35);
        let m2 = app("m2", 0.9, 0.4, 0.8, 0.35);

        let shared = compile(PartitionScheme::mig_shared_3_4());
        let rs = corun_rates(&[(&m1, 0), (&m2, 1)], &shared);

        let private = compile(PartitionScheme::mig_private_3_4());
        let rp = corun_rates(&[(&m1, 0), (&m2, 1)], &private);

        let shared_tp = rs[0] + rs[1];
        let private_tp = rp[0] + rp[1];
        assert!(
            private_tp > shared_tp,
            "private {private_tp} ≤ shared {shared_tp}"
        );
    }

    #[test]
    fn interference_hits_sensitive_apps_only() {
        let tough = app("tough", 0.9, 0.6, 0.6, 0.0);
        let fragile = app("fragile", 0.9, 0.6, 0.6, 0.5);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let r = corun_rates(&[(&tough, 0), (&fragile, 1)], &part);
        assert!(r[0] > r[1], "sensitive app slower: {} vs {}", r[0], r[1]);
    }

    #[test]
    fn rates_bounded_by_one() {
        let apps = [
            app("a", 0.99, 0.95, 0.9, 0.3),
            app("b", 0.5, 0.5, 0.2, 0.1),
            app("c", 0.01, 0.15, 0.05, 0.0),
            app("d", 0.9, 0.3, 1.0, 0.4),
        ];
        let part = compile(PartitionScheme::hierarchical_3_4(
            vec![0.5, 0.5],
            vec![0.3, 0.7],
        ));
        let occ: Vec<(&AppModel, usize)> = apps.iter().enumerate().map(|(i, a)| (a, i)).collect();
        for r in corun_rates(&occ, &part) {
            assert!(r > 0.0 && r <= 1.0 + 1e-9, "rate {r}");
        }
    }

    #[test]
    fn solo_rate_matches_corun_of_one() {
        let a = app("a", 0.9, 0.7, 0.7, 0.2);
        let part = compile(PartitionScheme::mig_private_3_4());
        let r = corun_rates(&[(&a, 0)], &part);
        let s = solo_rate(&a, 0.375, 0.5);
        assert!((r[0] - s).abs() < 1e-12);
    }

    #[test]
    fn unscalable_app_insensitive_to_compute_share() {
        // US apps (tiny parallel fraction, small demands) run at nearly
        // full speed on any slot — what the paper classifies them by.
        let us = app("us", 0.01, 0.15, 0.05, 0.0);
        let big = compile(PartitionScheme::mps_only(vec![0.9, 0.1]));
        let r_big = corun_rates(&[(&us, 0)], &big);
        let r_small = corun_rates(&[(&us, 1)], &big);
        assert!((r_big[0] - r_small[0]).abs() < 0.07);
        assert!(r_small[0] > 0.9, "{}", r_small[0]);
    }

    #[test]
    fn crowding_penalises_wide_domains() {
        // Four identical undemanding apps: alone each runs at full rate;
        // packed into one domain each pays the co-residency factor
        // 1/(1 + κ·3²); split across two domains only 1/(1 + κ).
        let mk = |name: &str| {
            AppModel::builder(name)
                .parallel_fraction(0.2)
                .compute_demand(0.4)
                .mem_demand(0.1)
                .interference_sensitivity(0.0)
                .crowd_sensitivity(0.15)
                .build()
        };
        let apps = [mk("a"), mk("b"), mk("c"), mk("d")];
        let occ: Vec<(&AppModel, usize)> = apps.iter().enumerate().map(|(i, a)| (a, i)).collect();

        let one_domain = compile(PartitionScheme::mps_only(vec![0.25; 4]));
        let r1 = corun_rates(&occ, &one_domain);
        let expect1 = 1.0 / (1.0 + 0.15 * 9.0);
        assert!((r1[0] - expect1).abs() < 0.02, "{} vs {expect1}", r1[0]);

        let two_domains = compile(PartitionScheme::hierarchical_3_4(
            vec![0.5, 0.5],
            vec![0.5, 0.5],
        ));
        let r2 = corun_rates(&occ, &two_domains);
        let expect2 = 1.0 / (1.0 + 0.15);
        assert!((r2[0] - expect2).abs() < 0.03, "{} vs {expect2}", r2[0]);
        assert!(r2[0] > r1[0], "isolation must relieve crowding");
    }

    #[test]
    fn more_compute_never_hurts() {
        // The rate model is monotone in the compute fraction.
        let a = app("a", 0.9, 0.7, 0.5, 0.1);
        for w in [0.1, 0.2, 0.3, 0.4].windows(2) {
            let lo = solo_rate(&a, w[0], 1.0);
            let hi = solo_rate(&a, w[1], 1.0);
            assert!(hi >= lo, "rate must grow with compute: {lo} vs {hi}");
        }
    }
}
