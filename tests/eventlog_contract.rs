//! Property tests for the one event-stream representation
//! (`hrp_cluster::sim::EventLog`): fixed-size records in fixed-size
//! chunks over one job-id arena, read through borrowed views.
//!
//! The model is what the log replaced — a plain `Vec` of events that
//! own their id lists. Everything the log answers (`len`, `iter`,
//! `get`, `merge` order, `open_starts`, the timeline digest) is held to
//! a naive computation over that model, and equality is held to be
//! *logical*: a log a `NodeRun` wrote (every `Finish` sharing its
//! `Start`'s arena range), the same events pushed one by one (a range
//! each), and the log an `HRPS` round trip decodes are all equal.

use hrp::cluster::multinode::{ClusterTimeline, MultiNodeSim};
use hrp::cluster::select::dispatcher_for;
use hrp::cluster::sim::{ClusterSim, EventKind, EventLog, NodeEvent};
use hrp::cluster::trace::{generate, TraceConfig, TraceKind};
use hrp::cluster::SelectorKind;
use hrp::gpusim::GpuArch;
use hrp::serve::{restore, SchedulerService, ServeConfig, TraceSource};
use hrp::workloads::Suite;
use proptest::prelude::*;

/// What an event is, owning its ids.
#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Arrival(usize),
    Start(Vec<usize>, usize, f64),
    Finish(Vec<usize>, usize),
}

/// The model's event.
#[derive(Debug, Clone, PartialEq)]
struct Owned {
    time: f64,
    node: usize,
    seq: u64,
    kind: Kind,
}

impl Owned {
    fn view(&self) -> NodeEvent<'_> {
        NodeEvent {
            time: self.time,
            node: self.node,
            seq: self.seq,
            kind: match &self.kind {
                Kind::Arrival(job) => EventKind::Arrival { job: *job },
                Kind::Start(ids, gpus, duration) => EventKind::Start {
                    job_ids: ids,
                    gpus: *gpus,
                    duration: *duration,
                },
                Kind::Finish(ids, gpus) => EventKind::Finish {
                    job_ids: ids,
                    gpus: *gpus,
                },
            },
        }
    }
}

fn log_of<'a>(events: impl IntoIterator<Item = &'a Owned>) -> EventLog {
    let mut log = EventLog::default();
    for event in events {
        log.push(event.view()).expect("model events fit a record");
    }
    log
}

/// `ClusterTimeline::digest`, spelt out over the model: FNV-1a over
/// `time bits | node | seq | tag | payload` words, little-endian.
fn reference_digest(events: &[Owned]) -> u64 {
    fn mix(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let word = |h: u64, v: u64| mix(h, &v.to_le_bytes());
    let ids = |h: u64, ids: &[usize]| {
        ids.iter()
            .fold(word(h, ids.len() as u64), |h, id| word(h, *id as u64))
    };
    events.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        let h = word(word(word(h, e.time.to_bits()), e.node as u64), e.seq);
        match &e.kind {
            Kind::Arrival(job) => word(mix(h, &[0]), *job as u64),
            Kind::Start(jobs, gpus, duration) => word(
                word(ids(mix(h, &[1]), jobs), *gpus as u64),
                duration.to_bits(),
            ),
            Kind::Finish(jobs, gpus) => word(ids(mix(h, &[2]), jobs), *gpus as u64),
        }
    })
}

/// The starts still open when the model ends, scanned naively: a finish
/// closes the earliest open start of its node with its ids and GPUs that
/// was due at its instant.
fn reference_open_starts(events: &[Owned]) -> Result<Vec<usize>, usize> {
    let mut open: Vec<usize> = Vec::new();
    for (index, event) in events.iter().enumerate() {
        match &event.kind {
            Kind::Arrival(_) => {}
            Kind::Start(..) => open.push(index),
            Kind::Finish(ids, gpus) => {
                let closes = |start: &Owned| {
                    matches!(&start.kind, Kind::Start(of, held, duration)
                        if of == ids && held == gpus && start.node == event.node
                            && (start.time + duration).to_bits() == event.time.to_bits())
                };
                let at = open.iter().position(|&s| closes(&events[s])).ok_or(index)?;
                open.remove(at);
            }
        }
    }
    Ok(open)
}

/// `(kind, node, whole-second time, ids, gpus, whole-second duration)`.
type Draw = (u32, usize, u32, Vec<usize>, usize, u32);

fn draws() -> impl Strategy<Value = Vec<Draw>> {
    let draw = (
        0u32..3,
        0usize..3,
        0u32..12,
        proptest::collection::vec(0usize..40, 1..=3),
        1usize..=3,
        1u32..=4,
    );
    proptest::collection::vec(draw, 0..=60)
}

/// Per-node event vectors with per-node sequence numbers. A finish draw
/// closes the node's earliest open start when one is due by then (so
/// open and closed starts both occur), and is a stray otherwise.
fn model_of(draws: &[Draw]) -> Vec<Vec<Owned>> {
    let mut nodes: Vec<Vec<Owned>> = vec![Vec::new(); 3];
    for (kind, node, time, ids, gpus, duration) in draws {
        let stream = &mut nodes[*node];
        let time = f64::from(*time);
        let kind = match kind {
            0 => Kind::Arrival(ids[0]),
            1 => Kind::Start(ids.clone(), *gpus, f64::from(*duration)),
            _ => Kind::Finish(ids.clone(), *gpus),
        };
        stream.push(Owned {
            time,
            node: *node,
            seq: stream.len() as u64,
            kind,
        });
    }
    // Turn every other stray finish into the close of an open start.
    for stream in &mut nodes {
        let mut flip = false;
        for at in 0..stream.len() {
            if !matches!(stream[at].kind, Kind::Finish(..)) {
                continue;
            }
            flip = !flip;
            let open = reference_open_starts(&stream[..at]).unwrap_or_default();
            if let (true, Some(&start)) = (flip, open.first()) {
                if let Kind::Start(ids, gpus, duration) = stream[start].kind.clone() {
                    stream[at].time = stream[start].time + duration;
                    stream[at].kind = Kind::Finish(ids, gpus);
                }
            }
        }
    }
    nodes
}

/// One node's stream as a `NodeRun` writes it, but long: at each instant
/// the placements due by then finish (earliest due first, start order
/// among ties), then one arrives and starts at once on one or two GPUs
/// for one to three seconds, and the clock moves on by zero or one
/// second — so equal instants abound, within the node and across nodes.
/// Then `misplaced` arrivals are moved half a second before the event
/// ahead of them, out of timeline order.
fn long_stream(node: usize, len: usize, misplaced: usize, seed: u64) -> Vec<Owned> {
    let mut state = seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut draw = |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let mut stream: Vec<Owned> = Vec::with_capacity(len + 2);
    let push = |stream: &mut Vec<Owned>, time, kind| {
        let seq = stream.len() as u64;
        stream.push(Owned {
            time,
            node,
            seq,
            kind,
        });
    };
    // Running placements `(due, ids, gpus)`, earliest due first.
    let mut running: Vec<(f64, Vec<usize>, usize)> = Vec::new();
    let mut t = 0.0;
    while stream.len() < len {
        while running.first().is_some_and(|r| r.0 <= t) {
            let (due, ids, gpus) = running.remove(0);
            push(&mut stream, due, Kind::Finish(ids, gpus));
        }
        let job = stream.len();
        let ids: Vec<usize> = (job..=job + draw(2) as usize).collect();
        let (gpus, duration) = (1 + draw(2) as usize, (1 + draw(3)) as f64);
        push(&mut stream, t, Kind::Arrival(job));
        push(&mut stream, t, Kind::Start(ids.clone(), gpus, duration));
        let due = t + duration;
        let at = running.partition_point(|r| r.0 <= due);
        running.insert(at, (due, ids, gpus));
        t += draw(2) as f64;
    }
    for _ in 0..misplaced {
        let at = 1 + draw(len as u64 - 1) as usize;
        if matches!(stream[at].kind, Kind::Arrival(_)) {
            stream[at].time = stream[at - 1].time - 0.5;
        }
    }
    stream
}

proptest! {
    #[test]
    fn logs_of_many_chunks_merge_like_a_stable_sort(
        lens in (2_100usize..=3_300, 2_100usize..=3_300, 2_100usize..=3_300),
        misplaced in 0usize..=6,
        seed in 0u64..1 << 40,
    ) {
        let nodes: Vec<Vec<Owned>> = [lens.0, lens.1, lens.2]
            .into_iter()
            .enumerate()
            .map(|(node, len)| long_stream(node, len, misplaced, seed))
            .collect();
        let logs: Vec<EventLog> = nodes.iter().map(log_of).collect();
        for (stream, log) in nodes.iter().zip(&logs) {
            prop_assert_eq!(log.len(), stream.len());
            prop_assert!(log.iter().eq(stream.iter().map(Owned::view)));
            for (index, event) in stream.iter().enumerate() {
                prop_assert_eq!(log.get(index), event.view());
            }
            prop_assert_eq!(log.open_starts(), reference_open_starts(stream));
        }

        let mut merged: Vec<Owned> = nodes.iter().flatten().cloned().collect();
        merged.sort_by(|a, b| {
            a.time.total_cmp(&b.time).then(a.node.cmp(&b.node)).then(a.seq.cmp(&b.seq))
        });
        let log = EventLog::merge(logs);
        prop_assert_eq!(log.len(), merged.len());
        prop_assert!(log.iter().eq(merged.iter().map(Owned::view)));
        for (index, event) in merged.iter().enumerate() {
            prop_assert_eq!(log.get(index), event.view());
        }
        prop_assert_eq!(log.open_starts(), reference_open_starts(&merged));
        prop_assert_eq!(ClusterTimeline { events: log }.digest(), reference_digest(&merged));
    }

    #[test]
    fn a_log_answers_like_a_vec_of_owned_events(draws in draws()) {
        let nodes = model_of(&draws);
        for stream in &nodes {
            let log = log_of(stream);
            prop_assert_eq!(log.len(), stream.len());
            prop_assert_eq!(log.is_empty(), stream.is_empty());
            prop_assert!(log.iter().eq(stream.iter().map(Owned::view)));
            prop_assert_eq!(log.iter().len(), stream.len());
            for (index, event) in stream.iter().enumerate() {
                prop_assert_eq!(log.get(index), event.view());
            }
            prop_assert_eq!(log.open_starts(), reference_open_starts(stream));
        }

        // Merge: the concatenation, stably sorted under (time, node, seq).
        let mut merged: Vec<Owned> = nodes.iter().flatten().cloned().collect();
        merged.sort_by(|a, b| {
            a.time.total_cmp(&b.time).then(a.node.cmp(&b.node)).then(a.seq.cmp(&b.seq))
        });
        let log = EventLog::merge(nodes.iter().map(log_of).collect());
        prop_assert!(log.iter().eq(merged.iter().map(Owned::view)));
        prop_assert_eq!(log.open_starts(), reference_open_starts(&merged));
        // ... which is the same log as the merged events pushed in order,
        // whose arena is laid out differently,
        prop_assert_eq!(&log, &log_of(&merged));
        // ... and not the same as any log one event short or different.
        if let Some((last, rest)) = merged.split_last() {
            prop_assert!(log != log_of(rest));
            let mut other = last.clone();
            other.seq += 1;
            prop_assert!(log != log_of(rest.iter().chain([&other])));
        }
        let timeline = ClusterTimeline { events: log };
        prop_assert_eq!(timeline.len(), merged.len());
        prop_assert_eq!(timeline.digest(), reference_digest(&merged));
    }

    #[test]
    fn a_node_run_log_equals_its_events_pushed_one_by_one(
        jobs in 1usize..=40,
        seed in 0u64..1_000,
        nodes in 1usize..=3,
    ) {
        let s = Suite::paper_suite(&GpuArch::a100());
        let trace = generate(&s, &TraceConfig::new(TraceKind::Bursty, jobs, seed).gang_share(0.25));
        let mut selector = SelectorKind::LeastLoaded.build();
        let report = MultiNodeSim::new(nodes, 2).run(&s, trace.clone(), selector.as_mut(), |_| {
            dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0)
        });
        let live = &report.timeline.events;
        let mut pushed = EventLog::default();
        for event in live.iter() {
            pushed.push(event).expect("a recorded event fits a record");
        }
        prop_assert_eq!(live, &pushed);
        prop_assert_eq!(live.open_starts(), Ok(Vec::new()), "a drained cluster runs nothing");
        prop_assert_eq!(
            report.timeline.digest(),
            ClusterTimeline { events: pushed }.digest()
        );
        if nodes == 1 {
            let mut single = dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0);
            let (_, events) = ClusterSim::new(2).run_traced(&s, trace, &mut single);
            prop_assert_eq!(live, &events);
        }
    }

    #[test]
    fn a_checkpointed_log_comes_back_equal(
        jobs in 2usize..=40,
        seed in 0u64..1_000,
        cut in 0usize..=39,
    ) {
        let s = Suite::paper_suite(&GpuArch::a100());
        let cfg = TraceConfig::new(TraceKind::Bursty, jobs, seed).gang_share(0.25);
        let mut service = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::Easy,
            TraceSource::new(&s, cfg),
        );
        while service.consumed() < cut.min(jobs - 1) {
            let _ = service.step();
        }
        let blob = service.checkpoint().expect("a trace source checkpoints");
        let mut restored = restore(&s, blob.clone()).expect("round trip");
        prop_assert_eq!(restored.checkpoint().expect("still a trace source"), blob);
        service.run_to_close();
        restored.run_to_close();
        let (live, back) = (service.finish().report, restored.finish().report);
        // The decoded half of `back`'s log gave every finish a range of
        // its own; the events are the same.
        prop_assert_eq!(&live.timeline.events, &back.timeline.events);
        prop_assert_eq!(live.timeline.digest(), back.timeline.digest());
    }
}

#[test]
fn an_event_past_a_record_s_widths_is_refused_and_leaves_the_log_alone() {
    let mut log = EventLog::default();
    let event = |node, kind| NodeEvent {
        time: 1.0,
        node,
        seq: 0,
        kind,
    };
    let many = vec![7usize; usize::from(u16::MAX) + 1];
    let start = |job_ids, gpus| EventKind::Start {
        job_ids,
        gpus,
        duration: 1.0,
    };
    let wide = usize::from(u16::MAX);
    assert_eq!(
        log.push(event(wide + 1, EventKind::Arrival { job: 0 })),
        Err("node")
    );
    assert_eq!(log.push(event(0, start(&[1], wide + 1))), Err("gpus"));
    assert_eq!(log.push(event(0, start(&many, 1))), Err("job_ids"));
    let finish = EventKind::Finish {
        job_ids: &many,
        gpus: 1,
    };
    assert_eq!(log.push(event(0, finish)), Err("job_ids"));
    let past_seq = NodeEvent {
        seq: 1 << 32,
        ..event(0, start(&[1], 1))
    };
    assert_eq!(log.push(past_seq), Err("seq"));
    assert_eq!(log, EventLog::default());
    // The widest that fit do, and a job id is never narrowed.
    let job = usize::MAX;
    assert_eq!(log.push(event(wide, EventKind::Arrival { job })), Ok(()));
    assert_eq!(log.push(event(wide, start(&many[1..], wide))), Ok(()));
    let last_seq = NodeEvent {
        seq: u64::from(u32::MAX),
        ..event(0, start(&[1], 1))
    };
    assert_eq!(log.push(last_seq), Ok(()));
    assert_eq!(log.get(0).kind, EventKind::Arrival { job });
    assert_eq!(log.get(1), event(wide, start(&many[1..], wide)));
    assert_eq!(log.get(2), last_seq);
}
