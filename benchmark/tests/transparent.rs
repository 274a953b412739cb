//! Every `Timed*` wrapper is transparent: with tracing on, a run
//! through the wrappers yields the digest, the checkpoint bytes and
//! the weights of the same run through the bare types.

use hrp::cluster::place::{PlacementAgent, PlacementConfig};
use hrp::cluster::select::LeastLoaded;
use hrp::cluster::trace::generate;
use hrp::cluster::{MultiNodeSim, SelectorKind, TraceConfig, TraceKind};
use hrp::core::{
    train_env, ActionCatalog, EnvConfig, EnvFactory, HierarchicalEnvFactory, Learner,
    PipelineConfig, PolicySelector,
};
use hrp::gpusim::GpuArch;
use hrp::nn::{DqnAgent, DqnConfig};
use hrp::profile::{FeatureScaler, ProfileRepository, Profiler};
use hrp::serve::{
    dispatcher_for, AdmissionConfig, ArrivalSource, SchedulerService, ServeConfig, TraceSource,
};
use hrp::workloads::{QueueGenerator, Suite};
use hrp_benchmark::tracer::{self, Span};
use hrp_benchmark::wrappers::{
    TimedDispatcher, TimedFactory, TimedGreedy, TimedLearner, TimedSelector, TimedSource,
};

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

fn trace_cfg() -> TraceConfig {
    TraceConfig::new(TraceKind::Bursty, 600, 9)
        .mean_gap(6.0)
        .max_gpus(2)
        .users(4)
}

/// Serve the trace to its midpoint, checkpoint, then drain; the
/// timeline digest, the admission digest and the checkpoint bytes.
fn serve<S: ArrivalSource>(suite: &Suite, source: S) -> (u64, u64, Vec<u8>) {
    let cfg = ServeConfig::new(4, 2).admission(AdmissionConfig::new().quota(2));
    let mut svc = SchedulerService::new(suite, cfg, SelectorKind::LeastLoaded, source);
    while svc.consumed() < 300 {
        svc.step();
    }
    let blob = svc
        .checkpoint()
        .expect("a trace source checkpoints")
        .to_vec();
    svc.run_to_close();
    let served = svc.finish();
    let adm = served.admission.expect("admission is on").digest;
    (served.report.timeline.digest(), adm, blob)
}

#[test]
fn timed_source_serves_and_checkpoints_like_the_bare_source() {
    tracer::set_enabled(true);
    let suite = suite();
    let bare = serve(&suite, TraceSource::new(&suite, trace_cfg()));
    let timed = serve(&suite, TimedSource(TraceSource::new(&suite, trace_cfg())));
    assert_eq!(bare.0, timed.0, "timeline digest");
    assert_eq!(bare.1, timed.1, "admission digest");
    assert_eq!(bare.2, timed.2, "checkpoint bytes");
}

#[test]
fn timed_selector_and_dispatcher_schedule_like_the_bare_ones() {
    tracer::set_enabled(true);
    let suite = suite();
    let jobs = generate(&suite, &trace_cfg());
    let sim = MultiNodeSim::new(4, 2);
    let make = |_| dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0);
    let bare = sim.run(&suite, jobs.clone(), &mut LeastLoaded, make);
    let timed = sim.run(
        &suite,
        jobs,
        &mut TimedSelector::heuristic(LeastLoaded),
        |n| TimedDispatcher::new(make(n), Span::CoschedPlacement),
    );
    assert_eq!(bare, timed);
}

#[test]
fn timed_greedy_places_like_the_bare_policy() {
    tracer::set_enabled(true);
    let suite = suite();
    let jobs = generate(&suite, &trace_cfg());
    let agent = PlacementAgent::untrained(PlacementConfig::quick());
    let sim = MultiNodeSim::new(4, 2);
    let make = |_| dispatcher_for(SelectorKind::Policy, 2, 0.0);
    let bare = sim.run(&suite, jobs.clone(), &mut agent.selector(), make);
    let frozen = TimedGreedy(Learner::snapshot(agent.dqn()));
    let mut timed = TimedSelector::policy(PolicySelector::new(frozen));
    let timed = sim.run(&suite, jobs, &mut timed, make);
    assert_eq!(bare.timeline.digest(), timed.timeline.digest());
}

#[test]
fn timed_factory_env_snapshot_and_learner_train_like_the_bare_ones() {
    tracer::set_enabled(true);
    let suite = suite();
    let repo = ProfileRepository::for_suite(&suite, &Profiler::new(suite.arch().clone(), 0.03, 5));
    let scaler = FeatureScaler::fit(&repo);
    let catalog = ActionCatalog::paper_29();
    let queues = QueueGenerator::new(5).training_queues(&suite, 4, 6);
    let env = EnvConfig {
        w: 6,
        ..EnvConfig::paper()
    };
    let factory = || HierarchicalEnvFactory::new(&suite, &repo, &scaler, &catalog, env.clone());
    let agent = || {
        let f = factory();
        DqnAgent::new(DqnConfig {
            hidden: vec![32, 16],
            ..DqnConfig::paper(f.state_dim(), f.n_actions())
        })
    };
    let pipeline = PipelineConfig {
        episodes: 24,
        seed: 5,
        eps_end: 0.01,
        n_workers: 1,
        rollout_round: 8,
        overlap: false,
        shards: 1,
    };
    let weights = |agent: &DqnAgent| {
        let mut out = Vec::new();
        agent.online_net().write_params(&mut out);
        out.iter().map(|w: &f32| w.to_bits()).collect::<Vec<u32>>()
    };

    let (bare, bare_report) = train_env(&factory(), agent(), &queues, &pipeline);
    let (timed, timed_report) = train_env(
        &TimedFactory(factory()),
        TimedLearner::new(agent()),
        &queues,
        &pipeline,
    );
    assert_eq!(bare_report, timed_report);
    assert_eq!(weights(&bare), weights(timed.agent()));
    // Every learn call was either timed or counted as a no-op.
    let learns = 2 * timed_report.total_steps;
    assert_eq!(timed.ops_us.len() as u64 + timed.noop_learns, learns);
    assert_eq!(timed.ops_us.len() as u64, timed.agent().learn_steps());
}
