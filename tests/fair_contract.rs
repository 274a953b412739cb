//! Property test for the quota ledger the admission door stands on
//! (`hrp_cluster::fair::FairShare`).
//!
//! The service re-walks its parked queue only after
//! [`FairShare::advance_to`] reports a release, so that report — and
//! `over_quota` around it — is held here to a model that shares nothing
//! with the `BTreeMap` bookkeeping: a plain `Vec` of `(release time,
//! tenant)` admissions, scanned whole for every question. Times are
//! whole seconds so that releases land exactly on advance instants and
//! on each other, the two boundary cases of the report.

use hrp::cluster::fair::FairShare;
use proptest::prelude::*;

const TENANTS: std::ops::RangeInclusive<u32> = 1..=6;

/// Every admission not yet released, in admission order.
#[derive(Default)]
struct Model {
    inflight: Vec<(f64, u32)>,
}

impl Model {
    fn in_flight(&self, user: u32) -> usize {
        self.inflight.iter().filter(|(_, u)| *u == user).count()
    }

    /// Drop what is due at `t`; whether anything was.
    fn advance_to(&mut self, t: f64) -> bool {
        let before = self.inflight.len();
        self.inflight.retain(|(release, _)| *release > t);
        self.inflight.len() < before
    }

    fn next_release(&self) -> Option<f64> {
        self.inflight.iter().map(|(t, _)| *t).reduce(f64::min)
    }
}

proptest! {
    #[test]
    fn release_reports_and_quota_answers_match_a_naive_scan(
        quota in 1usize..=4,
        steps in proptest::collection::vec((any::<bool>(), 1u32..=6, 0u32..=4, 1u32..=9), 1..=80),
    ) {
        let mut fair = FairShare::new(quota);
        let mut model = Model::default();
        let mut now = 0.0f64;
        for (admit, user, gap, walltime) in steps {
            if admit {
                // The service's rule: only a tenant under quota is admitted.
                if !fair.over_quota(user) {
                    let release = now + f64::from(walltime);
                    fair.admit(user, f64::from(walltime), release);
                    model.inflight.push((release, user));
                }
            } else {
                now += f64::from(gap);
                let at_quota: Vec<u32> = TENANTS.filter(|u| fair.over_quota(*u)).collect();
                let released = fair.advance_to(now);
                prop_assert_eq!(released, model.advance_to(now), "report at t = {}", now);
                if !released {
                    // What the admission door relies on: no report, no
                    // tenant back under its quota.
                    prop_assert!(at_quota.iter().all(|u| fair.over_quota(*u)));
                }
            }
            for user in TENANTS {
                prop_assert_eq!(fair.in_flight(user), model.in_flight(user), "tenant {}", user);
                prop_assert_eq!(fair.over_quota(user), model.in_flight(user) >= quota);
            }
            prop_assert_eq!(fair.next_release(), model.next_release());
            // A kill/restore at any step changes none of the answers.
            let restored = FairShare::from_state(quota, &fair.export_state());
            prop_assert_eq!(&restored, &fair);
        }
    }
}
