//! The online service's determinism contract, as slices of the oracle's
//! drawn cases (`tests/common/harness.rs`): generated traces and load
//! generators served by any selector family, drained, killed and
//! restored at drawn cuts, and replayed in batch; with the admission
//! tier on, the
//! quota replay, the fair-order batch and the admission digest too.

mod common;
use common::harness::{Draw, Origin, Tier};

use hrp::serve::LoadShape;
use proptest::prelude::*;

fn quota(with_slo: bool) -> Tier {
    if with_slo {
        Tier::QuotaSlo
    } else {
        Tier::Quota
    }
}

proptest! {
    #[test]
    fn service_drain_is_digest_identical_to_the_batch_barrier(draw in Draw::strategy()) {
        Draw { origin: Origin::Trace, tier: Tier::Off, cuts: Vec::new(), ..draw }.run();
    }

    #[test]
    fn checkpoint_at_an_arbitrary_cycle_restores_bit_exactly(draw in Draw::strategy()) {
        Draw { origin: Origin::Trace, tier: Tier::Off, ..draw }.run();
    }

    #[test]
    fn load_generator_kill_resume_is_exact(draw in Draw::strategy(), bursty in any::<bool>()) {
        let shape = if bursty { LoadShape::Bursty } else { LoadShape::Poisson };
        Draw { origin: Origin::Load(shape), tier: Tier::Off, ..draw }.run();
    }

    #[test]
    fn ordering_only_admission_is_mode_thread_and_chunk_invariant(draw in Draw::strategy()) {
        Draw { origin: Origin::Trace, tier: Tier::OrderingOnly, ..draw }.run();
    }

    #[test]
    fn quota_is_never_exceeded_and_no_job_is_lost(
        draw in Draw::strategy(),
        with_slo in any::<bool>(),
    ) {
        Draw { origin: Origin::Trace, tier: quota(with_slo), cuts: Vec::new(), ..draw }.run();
    }

    #[test]
    fn admission_kill_restore_reproduces_decisions_bit_exactly(
        draw in Draw::strategy(),
        with_slo in any::<bool>(),
    ) {
        Draw { origin: Origin::Trace, tier: quota(with_slo), ..draw }.run();
    }
}
