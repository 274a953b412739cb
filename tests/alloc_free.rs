//! Steady-state allocation audit of the deployed decision hot path and
//! of the learning step.
//!
//! A counting `#[global_allocator]` (`tests/common/alloc.rs`) wraps the
//! system allocator; after one warm-up pass (which is allowed to size
//! scratch buffers), the audited region asserts **zero** heap
//! allocations across:
//!
//! * `FastPolicy::infer`/`greedy` — the one single-sample kernel, on
//!   a shared plan (`&self`) with a reused scratch;
//! * `PolicySelector::select` — mask + state encoding + greedy, the
//!   full per-decision path the cluster simulator and serve loop
//!   drive;
//! * `DqnSnapshot::select_action_with` at ε = 0 and ε = 1 — the
//!   training rollout hot loop, after one warm-up call on its reused
//!   `ActionScratch`;
//! * `DqnAgent::learn` at the paper's and the placement agent's
//!   geometry — sampling, both bootstrap forwards, the forward, the
//!   backward with its per-block Adam updates, and the target sync;
//! * `DqnAgent::remember` into a full replay ring — the chunks of
//!   state rows it releases are the ones it refills;
//! * `TreeSlotSet` — the slot set every backfilling decision plans
//!   through: claims, clamped claims, releases and fits on a set that
//!   has reached its working size.
//!
//! `BackfillPlanner::next_placement`, the node-local decision of the
//! DES, refills one profile it owns: a decision that starts nothing
//! allocates nothing, one that places allocates the `Placement::job_ids`
//! `Vec` it hands out — and nothing else. A `NodeRun` advancing through
//! such decisions records every arrival, start and finish in its event
//! log; over a reserved log that adds no allocation at all.
//!
//! An overloaded `SchedulerService` is audited the same way: a cycle in
//! which no estimated release falls due leaves the parked queue alone,
//! finds every saturated node's planner with nothing to plan, and
//! groups and orders its arrival burst in buffers the service keeps —
//! so it allocates nothing.
//!
//! The counter is thread-local: only allocations performed by the
//! audited code path itself are counted.

mod common;
use common::alloc::{count_allocs, RecordingAlloc};

use hrp::cluster::backfill::{BackfillPlanner, BackfillPolicy};
use hrp::cluster::sim::{Dispatcher, NodeRun};
use hrp::cluster::slots::TreeSlotSet;
use hrp::cluster::{ClusterJob, SelectorKind};
use hrp::core::cluster_env::{NodeLoad, PolicySelector};
use hrp::core::rl::DqnSnapshot;
use hrp::core::{NodeSelector, SnapshotPolicy};
use hrp::gpusim::GpuArch;
use hrp::nn::net::{Head, QNet};
use hrp::nn::replay::Transition;
use hrp::nn::{ActionScratch, DqnAgent, DqnConfig, FastPolicy, InferScratch};
use hrp::serve::{AdmissionConfig, ChannelSource, SchedulerService, ServeConfig, ServiceStep};
use hrp::workloads::Suite;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: RecordingAlloc = RecordingAlloc;

const NODES: usize = 8;
const STATE_DIM: usize = 2 * NODES + 2;
const REPS: usize = 200;

fn sample_loads() -> Vec<NodeLoad> {
    (0..NODES)
        .map(|node| NodeLoad {
            node,
            total_gpus: 2,
            free_gpus: node % 3,
            queued_jobs: node % 4,
            outstanding: 35.0 * (node % 5) as f64,
        })
        .collect()
}

fn sample_state() -> Vec<f32> {
    (0..STATE_DIM)
        .map(|i| (i % 13) as f32 * 0.07 - 0.35)
        .collect()
}

#[test]
fn steady_state_decision_paths_do_not_allocate() {
    let net = QNet::new(STATE_DIM, &[64, 32], NODES, Head::Dueling, 7);
    let state = sample_state();
    let loads = sample_loads();
    let mask = (1u64 << NODES) - 1;

    // FastPolicy: the plan is shared (`&self`); the scratch sizes
    // itself on the warm-up call.
    let fast = FastPolicy::new(&net);
    let mut scratch = InferScratch::default();
    let _ = fast.greedy(&state, mask, &mut scratch);
    let n = count_allocs(|| {
        for _ in 0..REPS {
            std::hint::black_box(fast.infer(&state, &mut scratch));
            std::hint::black_box(fast.greedy(&state, mask, &mut scratch));
        }
    });
    assert_eq!(n, 0, "FastPolicy allocated {n}x");

    // The full deployed path: PolicySelector::select encodes live
    // loads into its reused scratch and asks the snapshot greedily.
    let mut selector = PolicySelector::new(DqnSnapshot::new(&net));
    let _ = selector.select(1, 50.0, &loads);
    let n = count_allocs(|| {
        for _ in 0..REPS {
            std::hint::black_box(selector.select(1, 50.0, &loads));
        }
    });
    assert_eq!(n, 0, "PolicySelector::select allocated {n}x");

    // The heuristic tiers, boxed as `SelectorKind::build` hands them to
    // a service: one `select` call per decision, through the box.
    for kind in [
        SelectorKind::RoundRobin,
        SelectorKind::LeastLoaded,
        SelectorKind::Fcfs,
        SelectorKind::Easy,
        SelectorKind::Conservative,
    ] {
        let mut selector = kind.build();
        let n = count_allocs(|| {
            for _ in 0..REPS {
                std::hint::black_box(selector.select(1, 50.0, &loads));
            }
        });
        assert_eq!(n, 0, "{} select allocated {n}x", kind.name());
    }

    // The training rollout hot loop: ε-greedy against a frozen
    // snapshot with one reused ActionScratch — greedy (ε = 0) runs the
    // plan, exploration (ε = 1) only draws from the RNG.
    let snapshot = DqnSnapshot::new(&net);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut scratch = ActionScratch::default();
    let _ = snapshot.select_action_with(&state, mask, 0.0, &mut rng, &mut scratch);
    for epsilon in [0.0, 1.0] {
        let n = count_allocs(|| {
            for _ in 0..REPS {
                let a = snapshot.select_action_with(&state, mask, epsilon, &mut rng, &mut scratch);
                std::hint::black_box(a);
            }
        });
        assert_eq!(
            n, 0,
            "DqnSnapshot::select_action_with(ε={epsilon}) allocated {n}x"
        );
    }
}

/// Fill an agent of `cfg`'s geometry with 96 transitions, let three
/// learning steps size every scratch buffer (the ping-pong pairs trade
/// places, so each side must have seen the widest layer once), then
/// audit 50 more, with a target sync every 10 inside the audit.
fn assert_learning_does_not_allocate(mut cfg: DqnConfig, what: &str) {
    cfg.target_sync_every = 10;
    cfg.buffer_capacity = 256;
    let (dim, n) = (cfg.state_dim, cfg.n_actions);
    let mut agent = DqnAgent::new(cfg);
    for i in 0..96usize {
        let state = |salt: usize| -> Vec<f32> {
            (0..dim)
                .map(|j| ((i * 31 + j * 7 + salt) % 23) as f32 * 0.04 - 0.4)
                .collect()
        };
        agent.remember(Transition {
            state: state(0),
            action: i % n,
            reward: (i % 5) as f32 * 0.25 - 0.5,
            next_state: state(11),
            done: i % 7 == 0,
            next_mask: (1 << n) - 1 - (i % 3) as u64,
        });
    }
    for _ in 0..3 {
        agent.learn().expect("buffer holds a batch");
    }
    let allocs = count_allocs(|| {
        for _ in 0..50 {
            std::hint::black_box(agent.learn());
        }
    });
    assert_eq!(allocs, 0, "DqnAgent::learn ({what}) allocated {allocs}x");
    assert_eq!(agent.learn_steps(), 53);
}

#[test]
fn steady_state_learning_step_does_not_allocate() {
    // The paper's hierarchical geometry: 215 → 512/256/128 → 1 + 17,
    // batch 32.
    for head in [Head::Dueling, Head::Plain] {
        let mut cfg = DqnConfig::paper(215, 17);
        cfg.head = head;
        assert_learning_does_not_allocate(cfg, &format!("{head:?}"));
    }
}

#[test]
fn a_placement_learning_step_does_not_allocate() {
    // The placement agent's geometry: 18 → 64/32 → 1 + 8, dueling,
    // batch 32. Its 18-wide first layer runs the 16-lane
    // weight-gradient tiles, and each layer's gradient is one block.
    let mut cfg = DqnConfig::paper(STATE_DIM, 8);
    cfg.hidden = vec![64, 32];
    assert_learning_does_not_allocate(cfg, "placement");
}

#[test]
fn remembering_into_a_full_ring_does_not_allocate() {
    // Chained seven-step episodes at the paper's hierarchical width,
    // into a ring that has wrapped four times. The audited transitions
    // are built before the count starts; only storing them is audited.
    const DIM: usize = 215;
    const CAPACITY: usize = 300;
    let mut cfg = DqnConfig::paper(DIM, 17);
    cfg.buffer_capacity = CAPACITY;
    let mut agent = DqnAgent::new(cfg);
    let state = |at: usize| -> Vec<f32> {
        (0..DIM)
            .map(|j| ((at * 31 + j * 7) % 23) as f32 * 0.04 - 0.4)
            .collect()
    };
    let episodes = |first: usize, pushes: usize| -> Vec<Transition> {
        (first..first + pushes)
            .map(|i| {
                let at = i / 7 * 100 + i % 7;
                Transition {
                    state: state(at),
                    action: i % 17,
                    reward: (i % 5) as f32 * 0.25 - 0.5,
                    next_state: state(at + 1),
                    done: i % 7 == 6,
                    next_mask: (1 << 17) - 1,
                }
            })
            .collect()
    };
    for t in episodes(0, 4 * CAPACITY) {
        agent.remember(t);
    }
    let audited = episodes(4 * CAPACITY, 2 * CAPACITY);
    let n = count_allocs(|| {
        for t in audited {
            agent.remember(t);
        }
    });
    assert_eq!(n, 0, "DqnAgent::remember into a full ring allocated {n}x");
}

#[test]
fn backfill_decisions_allocate_their_placement_only() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let job = |id: usize, gpus: usize| ClusterJob::indexed(id, id % suite.len(), 0.0, gpus);
    // A 16-job queue behind a wide head, and one of narrow jobs only.
    let wide_head: Vec<ClusterJob> = (0..16).map(|id| job(id, 2 - usize::from(id > 0))).collect();
    let narrow: Vec<ClusterJob> = (0..16).map(|id| job(id, 1)).collect();

    // FCFS and EASY reserve for the head only, so their profiles stay
    // within the room a slot set is built with.
    for policy in [BackfillPolicy::Fcfs, BackfillPolicy::Easy] {
        let mut planner = BackfillPlanner::new(policy, 2).with_walltime_err(0.3);
        // Fill the node: two release bookings.
        for _ in 0..2 {
            planner
                .next_placement(&suite, &narrow, 1, 0.0)
                .expect("a narrow job starts on a free GPU");
        }
        assert_eq!(planner.next_placement(&suite, &wide_head, 0, 1.0), None);

        // `None`: a saturated node, whatever is queued ...
        let n = count_allocs(|| {
            for i in 0..REPS {
                let now = 1.0 + i as f64 * 1e-3;
                std::hint::black_box(planner.next_placement(&suite, &wide_head, 0, now));
                std::hint::black_box(planner.next_placement(&suite, &narrow, 0, now));
            }
        });
        assert_eq!(n, 0, "{policy:?}: a saturated decision allocated {n}x");

        // ... and a free GPU the 2-GPU head cannot use: the head gets
        // its reservation, and every job behind it would overrun that
        // (the booked GPU frees long before any estimate ends).
        let mut blocked = BackfillPlanner::new(policy, 2);
        blocked
            .next_placement(&suite, &narrow[..1], 2, 0.0)
            .expect("the node's first job starts");
        let now = narrow[0].solo_time(&suite) - 1e-3;
        assert_eq!(blocked.next_placement(&suite, &wide_head, 1, now), None);
        let n = count_allocs(|| {
            for _ in 0..REPS {
                std::hint::black_box(blocked.next_placement(&suite, &wide_head, 1, now));
            }
        });
        assert_eq!(n, 0, "{policy:?}: a blocked-head decision allocated {n}x");

        // `Some`: an idle node starts the head; the old booking has
        // lapsed by the next call, so the book never grows.
        let n = count_allocs(|| {
            for i in 0..REPS {
                let now = 1e3 * (1 + i) as f64;
                let placed = planner.next_placement(&suite, &narrow, 2, now);
                assert!(std::hint::black_box(placed).is_some());
            }
        });
        assert_eq!(
            n, REPS as u64,
            "{policy:?}: a placing decision allocates its job_ids, once"
        );
    }
}

#[test]
fn a_node_advance_over_a_reserved_log_allocates_its_placements_only() {
    const JOBS: usize = 64;
    let suite = Suite::paper_suite(&GpuArch::a100());
    let planner = BackfillPlanner::new(BackfillPolicy::Easy, 2).with_walltime_err(0.3);
    let mut node = NodeRun::new(0, 2, planner);
    node.reserve_jobs(JOBS);
    for id in 0..JOBS {
        node.push_arrival(ClusterJob::indexed(id, id % suite.len(), 0.0, 1));
    }
    // Warm-up: the whole queue is absorbed (sizing the waiting list) and
    // the first two jobs start (sizing the running set, the dispatch
    // scratch and the planner's books).
    node.advance_until(&suite, 1e-3);
    let started = node.state().placements;
    assert_eq!((started, node.state().events.len()), (2, JOBS + 2));

    let n = count_allocs(|| node.advance_until(&suite, f64::INFINITY));
    let (stats, events) = node.finish();
    assert_eq!((stats.completed, events.len()), (JOBS, 3 * JOBS));
    assert_eq!(
        n,
        (stats.placements - started) as u64,
        "one `job_ids` per placement; recording its start and finish is free"
    );
}

#[test]
fn overloaded_service_cycles_without_a_release_do_not_allocate() {
    const TENANTS: usize = 4;
    const PARKED: usize = 40;
    const CYCLES: usize = 6;
    const BURST: usize = 3;
    let suite = Suite::paper_suite(&GpuArch::a100());
    let (tx, source) = ChannelSource::channel();
    // 2 x 2 GPUs, four tenants at quota 2: four jobs run, four wait on
    // the saturated nodes, and everything after them is parked.
    let cfg = ServeConfig::new(2, 2)
        .walltime_err(0.3)
        .admission(AdmissionConfig::new().quota(2));
    let mut service = SchedulerService::new(&suite, cfg, SelectorKind::Easy, source);
    let mut next_id = 0;
    let mut submit = |arrival: f64| {
        let mut job = ClusterJob::new(next_id, "stream", arrival, 1, &suite);
        job.user = (next_id % TENANTS) as u32 + 1;
        next_id += 1;
        tx.send(job).expect("the service listens");
    };
    // Warm-up: one job per cycle, within the first 50 ms — a `stream`
    // job runs for 10 s, so no estimated release falls due in this
    // test ...
    for k in 0..2 * TENANTS + PARKED {
        submit(k as f64 * 1e-3);
        assert!(matches!(service.step(), ServiceStep::Cycle { .. }));
    }
    assert_eq!(service.deferred_jobs(), PARKED);
    // ... and every arrival of the audited cycles, sent ahead of them:
    // the channel allocates on this thread too. The first burst is one
    // more warm-up: the single-job cycles above never ordered a burst.
    for cycle in 0..=CYCLES {
        (0..BURST).for_each(|_| submit(1.0 + cycle as f64 * 1e-3));
    }

    // Idle cycles: every node advanced, the door consulted, nothing to do.
    let idle = service.stats().wake_cycles;
    let n = count_allocs(|| (0..REPS).for_each(|_| service.settle(0.5)));
    assert_eq!(service.stats().wake_cycles, idle + REPS as u64);
    assert_eq!(n, 0, "idle cycles with {PARKED} jobs parked allocated {n}x");

    // Arrival cycles: each groups its burst, orders it by karma and
    // parks it, every tenant being at quota — in the service's burst
    // buffer and the ledger's ordering scratch. The parked queue has
    // room for these bursts since it last doubled.
    assert!(matches!(
        service.step(),
        ServiceStep::Cycle { jobs: BURST, .. }
    ));
    let n = count_allocs(|| {
        for _ in 0..CYCLES {
            let step = service.step();
            assert!(matches!(step, ServiceStep::Cycle { jobs: BURST, .. }));
        }
    });
    assert_eq!(service.deferred_jobs(), PARKED + (1 + CYCLES) * BURST);
    assert_eq!(n, 0, "arrival cycles that park their burst allocated {n}x");
}

#[test]
fn steady_state_slot_set_rounds_do_not_allocate() {
    // A window of bookings sliding along one long-lived set.
    let mut slots = TreeSlotSet::new(4);
    let mut round = |i: usize| {
        let t = i as f64;
        slots.claim(t, t + 10.0, 2);
        slots.claim(t + 5.0, t + 20.0, 1);
        slots.claim(t + 8.0, t + 30.0, 1);
        assert_eq!(slots.earliest_fit(t, 2, 4.0), t);
        assert_eq!(slots.earliest_fit(t, 3, 4.0), t + 20.0);
        slots.release(t + 8.0, t + 30.0, 1);
        slots.release(t + 5.0, t + 20.0, 1);
        slots.release(t, t + 10.0, 2);
        assert_eq!(slots.n_segments(), 1);
    };
    round(0);
    let n = count_allocs(|| (1..=REPS).for_each(&mut round));
    assert_eq!(n, 0, "TreeSlotSet rounds allocated {n}x");
}
