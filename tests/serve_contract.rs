//! Property tests (proptest) for the online scheduler service's
//! determinism contract (`hrp-serve`):
//!
//! * draining any finite generated trace through the service produces
//!   a merged timeline bit-identical to a batch `MultiNodeSim` run of the same jobs, for every
//!   selector family and any batch thread count;
//! * a service checkpointed at an arbitrary cycle and restored from
//!   the `HRPS` blob finishes with exactly the report the
//!   uninterrupted run produces — events, per-node rows, aggregate,
//!   and the logical cycle counters;
//! * the same kill/resume exactness holds for the open-loop load
//!   generator, whose RNG cursor the restore replays;
//! * the admission tier (ARCHITECTURE.md contract point 9): the
//!   per-tenant quota is never exceeded, no admitted job is lost,
//!   ordering-only admission is digest-identical to the batch
//!   fair-order oracle for any thread count, and kill/restore reproduces the admission decision
//!   digest bit-exactly.
//!
//! Set `HRP_TEST_THREADS` to pick the parallel worker count the batch
//! oracle runs under (CI runs the suite under 1 and 4).

mod common;
use common::test_threads;

use hrp::cluster::fair::{job_cost, FairShare};
use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::trace::{generate, TraceConfig, TraceKind};
use hrp::cluster::SelectorKind;
use hrp::prelude::*;
use hrp::serve::{
    dispatcher_for, restore, AdmissionConfig, LoadGen, LoadShape, SchedulerService, ServeConfig,
    ServiceStep, TraceSource,
};
use proptest::prelude::*;

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

const KINDS: [TraceKind; 6] = [
    TraceKind::Uniform,
    TraceKind::Bursty,
    TraceKind::Skewed,
    TraceKind::HeavyTail,
    TraceKind::Colocate,
    TraceKind::Staggered,
];

const SELECTORS: [SelectorKind; 5] = [
    SelectorKind::RoundRobin,
    SelectorKind::LeastLoaded,
    SelectorKind::Fcfs,
    SelectorKind::Easy,
    SelectorKind::Conservative,
];

/// Advance a service until its source has handed out at least `cut`
/// jobs (or closed).
fn run_until_consumed<S: hrp::serve::ArrivalSource>(svc: &mut SchedulerService<'_, S>, cut: usize) {
    while svc.consumed() < cut {
        match svc.step() {
            ServiceStep::Cycle { .. } => {}
            ServiceStep::Pending => {
                svc.wake_cycle();
            }
            ServiceStep::Closed => break,
        }
    }
}

proptest! {
    #[test]
    fn service_drain_is_digest_identical_to_the_batch_barrier(
        kind_idx in 0usize..6,
        sel_idx in 0usize..5,
        n_jobs in 1usize..=40,
        seed in 0u64..u64::MAX,
        mean_gap in 1.0f64..60.0,
        gang in 0.0f64..0.5,
        nodes in 1usize..=4,
        werr in 0.0f64..0.5,
    ) {
        let s = suite();
        let kind = SELECTORS[sel_idx];
        let cfg = TraceConfig::new(KINDS[kind_idx], n_jobs, seed)
            .max_gpus(2)
            .mean_gap(mean_gap)
            .gang_share(gang);
        let mut service = SchedulerService::new(
            &s,
            ServeConfig::new(nodes, 2).walltime_err(werr),
            kind,
            TraceSource::new(&s, cfg.clone()),
        );
        service.run_to_close();
        let served = service.finish();
        for threads in [1, test_threads()] {
            let mut sel = kind.build();
            let batch = MultiNodeSim::new(nodes, 2)
                .with_threads(threads)
                .run(&s, generate(&s, &cfg), sel.as_mut(), |_| {
                    dispatcher_for(kind, 2, werr)
                });
            prop_assert_eq!(&served.report.timeline.events, &batch.timeline.events,
                "service drifted from the batch oracle ({} threads)", threads);
            prop_assert_eq!(served.report.timeline.digest(), batch.timeline.digest());
            prop_assert_eq!(&served.report.per_node, &batch.per_node);
            prop_assert_eq!(&served.report.aggregate, &batch.aggregate);
        }
        prop_assert_eq!(served.stats.decisions as usize, n_jobs);
        // Every cycle accounts for every node, skipped or re-planned.
        prop_assert_eq!(
            served.stats.nodes_replanned + served.stats.nodes_skipped,
            (served.stats.cycles + served.stats.wake_cycles) * nodes as u64
        );
    }

    #[test]
    fn checkpoint_at_an_arbitrary_cycle_restores_bit_exactly(
        kind_idx in 0usize..6,
        sel_idx in 0usize..5,
        n_jobs in 1usize..=40,
        seed in 0u64..u64::MAX,
        mean_gap in 1.0f64..60.0,
        nodes in 1usize..=4,
        werr in 0.0f64..0.5,
        cut_frac in 0.0f64..1.0,
    ) {
        let s = suite();
        let kind = SELECTORS[sel_idx];
        let cfg = TraceConfig::new(KINDS[kind_idx], n_jobs, seed)
            .max_gpus(2)
            .mean_gap(mean_gap)
            .gang_share(0.25);
        let cut = ((n_jobs as f64) * cut_frac) as usize;
        let mut original = SchedulerService::new(
            &s,
            ServeConfig::new(nodes, 2).walltime_err(werr),
            kind,
            TraceSource::new(&s, cfg),
        );
        run_until_consumed(&mut original, cut);
        let blob = original.checkpoint().expect("trace services checkpoint");
        original.run_to_close();
        let uninterrupted = original.finish();

        let mut resumed = restore(&s, blob).expect("round-trip restore");
        prop_assert_eq!(resumed.selector_kind(), kind);
        resumed.run_to_close();
        let restored = resumed.finish();

        prop_assert_eq!(&restored.report.timeline.events, &uninterrupted.report.timeline.events,
            "kill at {} consumed jobs changed the schedule", cut);
        prop_assert_eq!(restored.report.timeline.digest(), uninterrupted.report.timeline.digest());
        prop_assert_eq!(&restored.report.per_node, &uninterrupted.report.per_node);
        prop_assert_eq!(&restored.report.aggregate, &uninterrupted.report.aggregate);
        prop_assert_eq!(restored.stats, uninterrupted.stats,
            "logical counters must survive the kill");
    }

    #[test]
    fn load_generator_kill_resume_is_exact(
        bursty in any::<bool>(),
        rate in 0.5f64..12.0,
        duration in 5.0f64..80.0,
        seed in 0u64..u64::MAX,
        nodes in 1usize..=4,
        cut in 0usize..30,
    ) {
        let s = suite();
        let shape = if bursty { LoadShape::Bursty } else { LoadShape::Poisson };
        let fresh = || {
            SchedulerService::new(
                &s,
                ServeConfig::new(nodes, 2),
                SelectorKind::LeastLoaded,
                LoadGen::new(&s, shape, rate, duration, seed),
            )
        };
        let mut original = fresh();
        run_until_consumed(&mut original, cut);
        let blob = original.checkpoint().expect("load generators checkpoint");
        original.run_to_close();
        let uninterrupted = original.finish();

        let mut resumed = restore(&s, blob).expect("round-trip restore");
        resumed.run_to_close();
        let restored = resumed.finish();
        prop_assert_eq!(&restored.report.timeline.events, &uninterrupted.report.timeline.events);
        prop_assert_eq!(&restored.report.aggregate, &uninterrupted.report.aggregate);
        prop_assert_eq!(restored.stats, uninterrupted.stats);
    }

    // Contract point 9, ordering half: with admission on but
    // nothing to defer or reject (unlimited quota, infinite SLO),
    // the service's karma-ordered timeline is digest-identical to
    // the batch fair-order oracle for any batch thread count.
    #[test]
    fn ordering_only_admission_is_mode_thread_and_chunk_invariant(
        kind_idx in 0usize..6,
        n_jobs in 1usize..=40,
        seed in 0u64..u64::MAX,
        mean_gap in 1.0f64..20.0,
        users in 1u32..=5,
        nodes in 1usize..=3,
    ) {
        let s = suite();
        let cfg = TraceConfig::new(KINDS[kind_idx], n_jobs, seed)
            .max_gpus(2)
            .mean_gap(mean_gap)
            .users(users);
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(nodes, 2).admission(AdmissionConfig::new()),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg.clone()),
        );
        svc.run_to_close();
        let served = svc.finish();
        prop_assert_eq!(served.stats.deferred, 0);
        prop_assert_eq!(served.stats.rejected, 0);
        let mut digests = vec![served.report.timeline.digest()];
        for threads in [1, test_threads()] {
            let sim = MultiNodeSim::new(nodes, 2)
                .with_threads(threads)
                .with_fair_order();
            let mut sel = SelectorKind::LeastLoaded.build();
            let batch = sim.run(&s, generate(&s, &cfg), sel.as_mut(), |_| {
                dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0)
            });
            digests.push(batch.timeline.digest());
        }
        prop_assert!(digests.windows(2).all(|w| w[0] == w[1]),
            "divergent timelines across service/threads: {:x?}", digests);
    }

    // Contract point 9, quota half: replaying the effective
    // admitted trace through a fresh `FairShare` with the service's
    // own release rule (estimated completion = admission + solo
    // time) never finds a tenant above quota at an admission
    // instant, and no arrival is lost — every job was admitted or
    // rejected exactly once.
    #[test]
    fn quota_is_never_exceeded_and_no_job_is_lost(
        kind_idx in 0usize..6,
        n_jobs in 1usize..=40,
        seed in 0u64..u64::MAX,
        mean_gap in 1.0f64..10.0,
        users in 1u32..=4,
        quota in 1usize..=3,
        with_slo in any::<bool>(),
        slo in 1.2f64..6.0,
    ) {
        let s = suite();
        let cfg = TraceConfig::new(KINDS[kind_idx], n_jobs, seed)
            .max_gpus(2)
            .mean_gap(mean_gap)
            .users(users);
        let mut acfg = AdmissionConfig::new().quota(quota);
        if with_slo {
            acfg = acfg.slo(slo);
        }
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(acfg.clone()),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg),
        );
        svc.run_to_close();
        let served = svc.finish();
        let adm = served.admission.expect("admission on");
        prop_assert_eq!(adm.effective.len() + served.stats.rejected as usize, n_jobs,
            "every arrival is admitted or rejected exactly once");
        if !with_slo {
            prop_assert_eq!(served.stats.rejected, 0, "infinite SLO never rejects");
        }
        let mut share = FairShare::new(quota);
        for job in &adm.effective {
            share.advance_to(job.arrival);
            prop_assert!(share.in_flight(job.user) < quota,
                "tenant {} admitted at {} with {} already in flight (quota {})",
                job.user, job.arrival, share.in_flight(job.user), quota);
            share.admit(job.user, job_cost(&s, job), job.arrival + job.solo_time(&s));
        }
    }

    // Contract point 9, checkpoint half: killing an
    // admission-enabled service at an arbitrary consumed cut and
    // restoring from the `HRPS` blob reproduces the timeline, the
    // deferred/rejected counters, and the rolling admission decision
    // digest bit-exactly.
    #[test]
    fn admission_kill_restore_reproduces_decisions_bit_exactly(
        kind_idx in 0usize..6,
        n_jobs in 1usize..=40,
        seed in 0u64..u64::MAX,
        mean_gap in 1.0f64..10.0,
        users in 1u32..=4,
        quota in 1usize..=3,
        with_slo in any::<bool>(),
        slo in 1.2f64..6.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let s = suite();
        let cfg = TraceConfig::new(KINDS[kind_idx], n_jobs, seed)
            .max_gpus(2)
            .mean_gap(mean_gap)
            .users(users);
        let mut acfg = AdmissionConfig::new().quota(quota);
        if with_slo {
            acfg = acfg.slo(slo);
        }
        let cut = ((n_jobs as f64) * cut_frac) as usize;
        let mut original = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(acfg),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg),
        );
        run_until_consumed(&mut original, cut);
        let blob = original.checkpoint().expect("trace services checkpoint");
        original.run_to_close();
        let uninterrupted = original.finish();

        let mut resumed = restore(&s, blob).expect("round-trip restore");
        resumed.run_to_close();
        let restored = resumed.finish();
        prop_assert_eq!(&restored.report.timeline.events, &uninterrupted.report.timeline.events,
            "kill at {} consumed jobs changed the admission-controlled schedule", cut);
        prop_assert_eq!(restored.stats, uninterrupted.stats,
            "deferred/rejected counters must survive the kill");
        prop_assert_eq!(
            restored.admission.expect("admission on").digest,
            uninterrupted.admission.expect("admission on").digest,
            "the rolling admission digest must survive the kill"
        );
    }
}
