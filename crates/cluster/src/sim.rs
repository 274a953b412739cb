//! Event-driven cluster simulation scaffolding.
//!
//! The cluster is a pool of identical GPUs. Dispatchers (FCFS, the
//! co-scheduling extension) decide what to start whenever a GPU frees or
//! a job arrives; the simulator advances time between those events and
//! collects the report.
//!
//! # The per-node event loop
//!
//! [`NodeRun`] is the reusable core: one node's clock, GPU pool,
//! waiting queue, and dispatcher, advanced event by event up to a
//! horizon. Every state change is recorded in the node's [`EventLog`]
//! with a per-node sequence number, so a run leaves behind a totally
//! ordered event stream. [`ClusterSim`] (the original single-node-pool
//! simulator) is now a thin wrapper: preload every arrival, advance to
//! the end of time. The multi-node simulator
//! ([`crate::multinode::MultiNodeSim`]) instead drives many `NodeRun`s
//! epoch by epoch, injecting arrivals between horizons — the two paths
//! execute the *same* absorb → dispatch → advance → release cycle, which
//! is what makes a one-node cluster event-for-event identical to
//! [`ClusterSim::run`].
//!
//! # The event log
//!
//! An [`EventLog`] is the one representation of an event stream, per
//! node and merged: fixed-size records (32 bytes: time, one payload
//! word, sequence number, an arena range, GPU count, node, tag) in
//! chunks of 1 024, plus one arena of job ids. A log grows by whole
//! chunks, so it never copies its records or carries doubling slack. A
//! `Start` appends its placement's ids to the arena once; the `Finish`
//! that closes it names the same range, and so does the node's entry
//! for the running placement — so recording an event into a reserved
//! log allocates nothing. Readers
//! get borrowed [`NodeEvent`] views ([`EventLog::iter`],
//! [`EventLog::get`]); equality is *logical* (the events the views
//! show), because two logs holding the same events may lay their
//! arenas out differently — a decoded log, filled through
//! [`EventLog::push`], gives every `Finish` a range of its own.

use crate::job::ClusterJob;
use hrp_core::cluster_env::NodeLoad;
use hrp_workloads::Suite;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Absolute slack when comparing event times: arrivals and finishes
/// within this window coalesce into one instant.
pub const TIME_EPS: f64 = 1e-12;

/// A unit of work the dispatcher starts on one or more GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Job ids covered by this placement (one for exclusive runs, many
    /// for a co-scheduled window).
    pub job_ids: Vec<usize>,
    /// Number of GPUs occupied.
    pub gpus: usize,
    /// Wall time the placement occupies its GPUs.
    pub duration: f64,
}

/// Cluster-run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Time the last job finished.
    pub makespan: f64,
    /// Mean job wait time (start − arrival).
    pub avg_wait: f64,
    /// Mean GPU busy fraction over the makespan.
    pub utilization: f64,
    /// Number of placements executed.
    pub placements: usize,
}

/// A dispatcher decides what to run next given the waiting jobs and the
/// number of currently free GPUs.
pub trait Dispatcher {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Choose the next placement, or `None` to stay idle until the next
    /// event. `waiting` is sorted by arrival; every returned job id must
    /// come from it. `now` is the simulation clock.
    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement>;

    /// Nothing consults this: every dispatcher here is event-driven,
    /// so a node is only ever re-planned at a job event. It stays
    /// declared, `None` by default, because the frozen benchmark's
    /// delegating wrapper implements it.
    fn next_wakeup(&self, _now: f64) -> Option<f64> {
        None
    }
}

/// What happened at one point of a node's simulated timeline — a view
/// borrowed from the [`EventLog`] that holds the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind<'a> {
    /// A job joined the node's waiting queue.
    Arrival {
        /// Cluster job id.
        job: usize,
    },
    /// A placement started occupying GPUs.
    Start {
        /// Jobs covered by the placement.
        job_ids: &'a [usize],
        /// GPUs occupied.
        gpus: usize,
        /// Planned wall time.
        duration: f64,
    },
    /// A placement released its GPUs.
    Finish {
        /// Jobs that completed.
        job_ids: &'a [usize],
        /// GPUs released.
        gpus: usize,
    },
}

/// One entry of a node's (or the merged cluster's) event stream, as
/// [`EventLog::iter`] and [`EventLog::get`] show it.
///
/// `(time, node, seq)` is a total order: `seq` increases monotonically
/// within a node, so merging per-node streams under this key yields one
/// deterministic cluster timeline regardless of the order the nodes
/// were advanced in (batch epochs or served cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEvent<'a> {
    /// Simulation time of the event.
    pub time: f64,
    /// Node the event happened on.
    pub node: usize,
    /// Per-node sequence number (ties on `time` resolve by `seq`).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind<'a>,
}

/// Which [`EventKind`] a record holds.
#[derive(Debug, Clone, Copy)]
enum Tag {
    Arrival,
    Start,
    Finish,
}

/// Where a placement's job ids sit in an [`EventLog`]'s arena.
#[derive(Debug, Clone, Copy)]
struct IdRange {
    at: u32,
    n: u16,
}

impl IdRange {
    /// The range of an event that carries no id list.
    const NONE: Self = Self { at: 0, n: 0 };
}

/// One stored event. The widths are the log's capacity limits: 65 535
/// nodes, GPUs per placement and jobs per placement, 2³² events per node
/// and 2³² job ids per log; every writer narrows with a check. The arena
/// range is two flat fields (an [`IdRange`] would pad the record to 40
/// bytes).
#[derive(Debug, Clone, Copy)]
struct Record {
    time: f64,
    /// `Start`: the planned duration's bits. `Arrival`: the job id.
    word: u64,
    seq: u32,
    /// `Start` / `Finish`: the placement's job ids, `ids[at..at + n]`.
    at: u32,
    n: u16,
    gpus: u16,
    node: u16,
    tag: Tag,
}

impl Record {
    fn ids(&self) -> IdRange {
        IdRange {
            at: self.at,
            n: self.n,
        }
    }

    /// The timeline order `(time, node, seq)` as one integer, the time's
    /// bits mapped so that unsigned order is [`f64::total_cmp`]'s: a
    /// negative time reverses its order below every positive one.
    fn key(&self) -> u128 {
        let bits = self.time.to_bits();
        let time = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        u128::from(time) << 64 | u128::from(self.node) << 32 | u128::from(self.seq)
    }
}

/// Records per chunk of an [`EventLog`]: 32 KiB.
const CHUNK: usize = 1 << 10;

/// A fresh chunk: room for exactly [`CHUNK`] records, which it never
/// outgrows.
fn chunk() -> Vec<Record> {
    Vec::with_capacity(CHUNK)
}

/// A compact, append-only event stream: fixed-size records in fixed-size
/// chunks, plus one arena of job ids (see the
/// [module docs](self#the-event-log)).
///
/// ```
/// use hrp_cluster::sim::{EventKind, EventLog, NodeEvent};
///
/// let mut log = EventLog::default();
/// let event = |seq, time, kind| NodeEvent { time, node: 0, seq, kind };
/// // Every field fits a record, so neither push fails.
/// log.push(event(0, 1.0, EventKind::Arrival { job: 7 })).unwrap();
/// let start = EventKind::Start { job_ids: &[7], gpus: 1, duration: 2.0 };
/// log.push(event(1, 1.0, start)).unwrap();
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.get(1).kind, start);
/// assert_eq!(log.open_starts(), Ok(vec![1]), "nothing has finished yet");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Records `index / CHUNK * CHUNK ..` live in `chunks[index / CHUNK]`:
    /// full chunks, the one being filled, then any that
    /// [`EventLog::reserve`] allocated ahead, empty.
    chunks: Vec<Vec<Record>>,
    len: usize,
    ids: Vec<usize>,
}

impl EventLog {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Make room for `events` more events carrying `job_ids` more job
    /// ids between their `Start`s (a `Finish` recorded by a [`NodeRun`]
    /// adds none). Records get whole chunks.
    pub fn reserve(&mut self, events: usize, job_ids: usize) {
        let chunks = (self.len + events).div_ceil(CHUNK);
        self.chunks
            .resize_with(chunks.max(self.chunks.len()), chunk);
        self.ids.reserve(job_ids);
    }

    /// The `index`-th event.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> NodeEvent<'_> {
        self.view(self.record(index))
    }

    /// The events in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeEvent<'_>> + Clone {
        (0..self.len).map(|index| self.get(index))
    }

    fn record(&self, index: usize) -> &Record {
        &self.chunks[index / CHUNK][index % CHUNK]
    }

    fn records(&self) -> impl Iterator<Item = &Record> {
        self.chunks.iter().flatten()
    }

    /// Append one record, starting a chunk when the last one is full.
    fn push_record(&mut self, record: Record) {
        let at = self.len / CHUNK;
        if at == self.chunks.len() {
            self.chunks.push(chunk());
        }
        self.chunks[at].push(record);
        self.len += 1;
    }

    fn ids_at(&self, range: IdRange) -> &[usize] {
        let at = range.at as usize;
        &self.ids[at..at + usize::from(range.n)]
    }

    fn view(&self, record: &Record) -> NodeEvent<'_> {
        let gpus = usize::from(record.gpus);
        NodeEvent {
            time: record.time,
            node: usize::from(record.node),
            seq: u64::from(record.seq),
            kind: match record.tag {
                Tag::Arrival => EventKind::Arrival {
                    job: usize::try_from(record.word).expect("stored from a usize"),
                },
                Tag::Start => EventKind::Start {
                    job_ids: self.ids_at(record.ids()),
                    gpus,
                    duration: f64::from_bits(record.word),
                },
                Tag::Finish => EventKind::Finish {
                    job_ids: self.ids_at(record.ids()),
                    gpus,
                },
            },
        }
    }

    /// Append `job_ids` to the arena; `Err` names what is full.
    fn intern(&mut self, job_ids: &[usize]) -> Result<IdRange, &'static str> {
        let range = IdRange {
            at: u32::try_from(self.ids.len()).map_err(|_| "arena")?,
            n: u16::try_from(job_ids.len()).map_err(|_| "job_ids")?,
        };
        self.ids.extend_from_slice(job_ids);
        Ok(range)
    }

    /// Append a copy of `event`, ids included — how a log is filled
    /// from outside a [`NodeRun`] (a decoder, a test's model).
    ///
    /// # Errors
    /// Names the field that does not fit the record (`node`, `seq` past
    /// 2³², `gpus`, `job_ids`, or the `arena` past 2³² ids); the log is
    /// unchanged.
    pub fn push(&mut self, event: NodeEvent<'_>) -> Result<(), &'static str> {
        let node = u16::try_from(event.node).map_err(|_| "node")?;
        let seq = u32::try_from(event.seq).map_err(|_| "seq")?;
        let (tag, word, job_ids, gpus) = match event.kind {
            EventKind::Arrival { job } => (Tag::Arrival, job as u64, &[][..], 0),
            EventKind::Start {
                job_ids,
                gpus,
                duration,
            } => (Tag::Start, duration.to_bits(), job_ids, gpus),
            EventKind::Finish { job_ids, gpus } => (Tag::Finish, 0, job_ids, gpus),
        };
        let gpus = u16::try_from(gpus).map_err(|_| "gpus")?;
        let ids = self.intern(job_ids)?;
        self.push_record(Record {
            time: event.time,
            word,
            seq,
            at: ids.at,
            n: ids.n,
            gpus,
            node,
            tag,
        });
        Ok(())
    }

    /// Merge logs into one `(time, node, seq)`-ordered log: the
    /// concatenation of `logs`, stably sorted.
    ///
    /// A k-way merge. A log out of order is sorted first — a node's log
    /// is in order but where two of its instants lie within
    /// [`TIME_EPS`]. The arenas are concatenated and the ranges rebased;
    /// each input chunk is freed once its last record has moved, so the
    /// merge holds little more than one copy of the records.
    ///
    /// # Panics
    /// Panics if the logs together hold more than 2³² job ids.
    #[must_use]
    pub fn merge(logs: Vec<EventLog>) -> EventLog {
        let events: usize = logs.iter().map(EventLog::len).sum();
        let job_ids: usize = logs.iter().map(|log| log.ids.len()).sum();
        u32::try_from(job_ids).expect("an event log holds at most 2^32 job ids");
        let mut merged = EventLog {
            chunks: Vec::with_capacity(events.div_ceil(CHUNK)),
            len: 0,
            ids: Vec::with_capacity(job_ids),
        };
        // Each nonempty log's first unmerged record, the rest of its
        // records, and where its arena starts in the merged one.
        let mut inputs = Vec::with_capacity(logs.len());
        let mut heads = BinaryHeap::with_capacity(logs.len());
        for mut log in logs {
            log.sort();
            let base = u32::try_from(merged.ids.len()).expect("within the total checked above");
            merged.ids.extend_from_slice(&log.ids);
            log.chunks.truncate(log.len.div_ceil(CHUNK));
            let mut records = log.chunks.into_iter().flatten();
            if let Some(head) = records.next() {
                heads.push(Reverse((head.key(), inputs.len())));
                inputs.push((head, records, base));
            }
        }
        // Ties between logs go to the earlier one, as in a stable sort.
        while let Some(mut top) = heads.peek_mut() {
            let Reverse((_, input)) = *top;
            let (head, records, base) = &mut inputs[input];
            merged.push_record(Record {
                at: head.at + *base,
                ..*head
            });
            match records.next() {
                Some(next) => {
                    *head = next;
                    *top = Reverse((next.key(), input));
                }
                None => {
                    let _ = PeekMut::pop(top);
                }
            }
        }
        merged
    }

    /// Stably sort the records into timeline order, unless they are.
    fn sort(&mut self) {
        if self.records().map(Record::key).is_sorted() {
            return;
        }
        let mut sorted: Vec<Record> = self.records().copied().collect();
        sorted.sort_by_key(Record::key);
        for (slot, record) in self.chunks.iter_mut().flatten().zip(sorted) {
            *slot = record;
        }
    }

    /// Indices of the `Start` events no later `Finish` has closed, in
    /// log order — the placements still running when the log ends. A
    /// `Finish` closes the earliest open `Start` of its node with the
    /// same job ids and GPUs that was due (`time + duration`, to the
    /// bit) at the `Finish`'s instant, which is how a [`NodeRun`]
    /// writes the pair.
    ///
    /// # Errors
    /// The index of the first `Finish` that closes no open `Start`.
    pub fn open_starts(&self) -> Result<Vec<usize>, usize> {
        let mut open: Vec<usize> = Vec::new();
        for (index, finish) in self.records().enumerate() {
            match finish.tag {
                Tag::Arrival => {}
                Tag::Start => open.push(index),
                Tag::Finish => {
                    let closed = open.iter().position(|&s| {
                        let start = self.record(s);
                        let due = start.time + f64::from_bits(start.word);
                        start.node == finish.node
                            && start.gpus == finish.gpus
                            && due.to_bits() == finish.time.to_bits()
                            && self.ids_at(start.ids()) == self.ids_at(finish.ids())
                    });
                    open.remove(closed.ok_or(index)?);
                }
            }
        }
        Ok(open)
    }
}

/// Logical equality: the same events in the same order, however the
/// two arenas are laid out.
impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// Raw per-node counters a finished [`NodeRun`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node id.
    pub node: usize,
    /// Jobs that arrived on this node.
    pub jobs: usize,
    /// Jobs whose placements finished.
    pub completed: usize,
    /// Placements executed.
    pub placements: usize,
    /// Node clock after the final drain (0 for an idle node).
    pub makespan: f64,
    /// `Σ duration × gpus` over the node's placements.
    pub busy_gpu_seconds: f64,
    /// `Σ (start − arrival)` over the node's jobs.
    pub wait_sum: f64,
}

/// A running placement: when it finishes, and the range its `Start`
/// gave its job ids in the node's event log.
#[derive(Debug, Clone, Copy)]
struct Running {
    finish: f64,
    gpus: u16,
    ids: IdRange,
}

/// One node's resumable event loop: a clock, `n_gpus` GPUs, a waiting
/// queue, a dispatcher, and the event stream produced so far.
///
/// The loop body is the exact cycle the original single-node simulator
/// ran — absorb due arrivals, let the dispatcher start work, advance to
/// the next event, release finished placements — except that it stops
/// at a `horizon` so a multi-node driver can inject the next epoch's
/// arrivals. A dispatch falling exactly *on* the horizon is deferred to
/// the next [`NodeRun::advance_until`] call: co-timed arrivals must be
/// on the queue before the dispatcher sees the freed GPUs, exactly as
/// if all events lived in one merged queue.
#[derive(Debug)]
pub struct NodeRun<D: Dispatcher> {
    dispatcher: D,
    state: NodeRunState,
    /// Running placements in start order: the open `Start`s of
    /// `state.events`.
    running: Vec<Running>,
    /// Scratch of [`NodeRun::dispatch`]: the arrival time of each job
    /// of the placement being started.
    placed_arrivals: Vec<f64>,
}

impl<D: Dispatcher> NodeRun<D> {
    /// A fresh node with `n_gpus` idle GPUs at time 0.
    ///
    /// # Panics
    /// Panics if `n_gpus` is zero, or if `node` or `n_gpus` exceeds
    /// the 65 535 an event record holds.
    #[must_use]
    pub fn new(node: usize, n_gpus: usize, dispatcher: D) -> Self {
        let state = NodeRunState {
            node,
            n_gpus,
            clock: 0.0,
            free: n_gpus,
            arrivals: VecDeque::new(),
            waiting: Vec::new(),
            busy_gpu_seconds: 0.0,
            wait_sum: 0.0,
            placements: 0,
            jobs: 0,
            completed: 0,
            dirty: true,
            events: EventLog::default(),
        };
        Self::from_state(state, dispatcher)
    }

    /// Queue a future arrival. Arrivals must be pushed in non-decreasing
    /// time order and must not lie in the node's simulated past.
    ///
    /// # Panics
    /// Panics on out-of-order or past arrivals.
    pub fn push_arrival(&mut self, job: ClusterJob) {
        let s = &mut self.state;
        assert!(
            job.arrival + TIME_EPS >= s.clock,
            "arrival at {} is in the node's past (clock {})",
            job.arrival,
            s.clock
        );
        assert!(
            s.arrivals
                .back()
                .is_none_or(|b| b.arrival <= job.arrival + TIME_EPS),
            "arrivals must be pushed in time order"
        );
        s.jobs += 1;
        s.arrivals.push_back(job);
    }

    /// The node's load as a [`NodeSelector`](hrp_core::cluster_env::NodeSelector)
    /// sees it at time `now`: idle GPUs, queue length, and outstanding
    /// GPU-work (remaining run time of active placements plus the
    /// solo-time of everything queued).
    #[must_use]
    pub fn load(&self, suite: &Suite, now: f64) -> NodeLoad {
        let s = &self.state;
        let mut outstanding = 0.0;
        for r in &self.running {
            outstanding += (r.finish - now).max(0.0) * f64::from(r.gpus);
        }
        for j in s.waiting.iter().chain(s.arrivals.iter()) {
            outstanding += j.solo_time(suite);
        }
        NodeLoad {
            node: s.node,
            total_gpus: s.n_gpus,
            free_gpus: s.free,
            queued_jobs: s.waiting.len() + s.arrivals.len(),
            outstanding,
        }
    }

    /// Reserve room in the event log for `jobs` more jobs: an arrival,
    /// a start and a finish each when every placement covers one job,
    /// and one arena slot per job. Million-job drivers pre-size the
    /// stream once instead of doubling through it.
    pub fn reserve_jobs(&mut self, jobs: usize) {
        self.state.events.reserve(3 * jobs, jobs);
    }

    /// Move due arrivals onto the waiting queue.
    fn absorb_arrivals(&mut self) {
        let s = &mut self.state;
        let due = s.clock + TIME_EPS;
        while let Some(job) = s.arrivals.pop_front_if(|j| j.arrival <= due) {
            s.record(job.arrival, Tag::Arrival, job.id as u64, IdRange::NONE, 0);
            s.waiting.push(job);
            s.dirty = true;
        }
    }

    /// Let the dispatcher start as much as it wants at the current
    /// clock.
    fn dispatch(&mut self, suite: &Suite) {
        let s = &mut self.state;
        while let Some(p) = self
            .dispatcher
            .next_placement(suite, &s.waiting, s.free, s.clock)
        {
            assert!(p.gpus <= s.free, "dispatcher over-allocated");
            assert!(!p.job_ids.is_empty());
            // Resolve every placed id in one sweep of the queue, accrue
            // waits in placement order (the f64 sum order the old
            // per-id scan used), then compact the queue once: the old
            // per-id `Vec::remove` cost O(|window| · queue) memmoves,
            // which dominates crowded drains at 100k+ jobs.
            let ids = &p.job_ids;
            let arrivals = &mut self.placed_arrivals;
            arrivals.clear();
            arrivals.resize(ids.len(), f64::NAN);
            let mut found = 0usize;
            for j in &s.waiting {
                if let Some(k) = ids.iter().position(|id| *id == j.id) {
                    if arrivals[k].is_nan() {
                        arrivals[k] = j.arrival;
                        found += 1;
                        if found == ids.len() {
                            break;
                        }
                    }
                }
            }
            assert!(found == ids.len(), "placement references waiting job");
            for a in arrivals.iter() {
                s.wait_sum += s.clock - a;
            }
            s.waiting.retain(|j| !ids.contains(&j.id));
            s.free -= p.gpus;
            s.busy_gpu_seconds += p.duration * p.gpus as f64;
            // The arena holds no more ids than the log has arrivals,
            // which `record` bounds, so only a placement of more than
            // 65 535 jobs fails `intern`.
            let gpus = u16::try_from(p.gpus).expect("p.gpus <= free <= n_gpus, which fits");
            let ids = s
                .events
                .intern(ids)
                .expect("a placement's job ids fit an event record");
            self.running.push(Running {
                finish: s.clock + p.duration,
                gpus,
                ids,
            });
            s.placements += 1;
            s.record(s.clock, Tag::Start, p.duration.to_bits(), ids, gpus);
        }
    }

    /// Release placements that finished by the current clock, in start
    /// order (sequence numbers depend on it).
    fn release_finished(&mut self) {
        let s = &mut self.state;
        self.running.retain(|r| {
            let due = r.finish <= s.clock + TIME_EPS;
            if due {
                s.free += usize::from(r.gpus);
                s.completed += usize::from(r.ids.n);
                s.record(r.finish, Tag::Finish, 0, r.ids, r.gpus);
                s.dirty = true;
            }
            !due
        });
    }

    /// Advance the node through every event up to `horizon`.
    ///
    /// With `horizon = f64::INFINITY` the node drains completely (the
    /// end-of-trace deadlock check fires if the dispatcher strands
    /// waiting jobs). With a finite horizon the node stops with its
    /// clock at or before the horizon; a dispatch due exactly at the
    /// horizon stays pending until the next call, so the caller can
    /// first push the arrivals belonging to that instant.
    ///
    /// # Panics
    /// Panics if the dispatcher over-allocates, references unknown
    /// jobs, starts more than 65 535 jobs in one placement, or (on a
    /// full drain) strands waiting jobs forever, and on the node's
    /// 2³²-th event.
    pub fn advance_until(&mut self, suite: &Suite, horizon: f64) {
        loop {
            self.absorb_arrivals();
            // At the horizon: defer the dispatch to the next call (the
            // caller is about to push this instant's arrivals).
            if self.state.clock + TIME_EPS >= horizon {
                break;
            }
            if self.state.dirty {
                self.dispatch(suite);
                self.state.dirty = false;
            }
            let s = &mut self.state;
            let next_finish = self
                .running
                .iter()
                .map(|r| r.finish)
                .fold(f64::INFINITY, f64::min);
            let next_arrival = s.arrivals.front().map_or(f64::INFINITY, |j| j.arrival);
            let next = next_finish.min(next_arrival);
            if !next.is_finite() {
                if horizon.is_finite() {
                    break;
                }
                assert!(
                    s.waiting.is_empty(),
                    "deadlock: {} jobs waiting, dispatcher idle",
                    s.waiting.len()
                );
                break;
            }
            if next > horizon + TIME_EPS {
                break;
            }
            s.clock = next;
            self.release_finished();
        }
    }

    /// Finish the run: per-node counters plus the recorded event
    /// stream (and the dispatcher, for callers that want its state).
    #[must_use]
    pub fn finish(self) -> (NodeStats, EventLog, D) {
        let s = self.state;
        (
            NodeStats {
                node: s.node,
                jobs: s.jobs,
                completed: s.completed,
                placements: s.placements,
                makespan: s.clock,
                busy_gpu_seconds: s.busy_gpu_seconds,
                wait_sum: s.wait_sum,
            },
            s.events,
            self.dispatcher,
        )
    }

    /// `true` when the node holds no work at all: nothing running,
    /// nothing waiting, no future arrivals queued.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.running.is_empty() && self.state.waiting.is_empty() && self.state.arrivals.is_empty()
    }

    /// Whether the dispatcher must be consulted at the next advance
    /// (the queue or GPU pool changed since the last dispatch).
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.state.dirty
    }

    /// Shared access to the dispatcher (checkpointing reads its state).
    #[must_use]
    pub fn dispatcher(&self) -> &D {
        &self.dispatcher
    }

    /// The node's interior state, borrowed — what a checkpoint writes.
    /// The dispatcher is not included (capture it through
    /// [`NodeRun::dispatcher`]), nor are the running placements, which
    /// are the log's [open `Start`s](EventLog::open_starts).
    #[must_use]
    pub fn state(&self) -> &NodeRunState {
        &self.state
    }

    /// Rebuild a node mid-run from its interior state and a dispatcher
    /// restored to the matching point. The pair resumes bit-identically
    /// to the run the state was taken from; the placements still
    /// running are the state's [open `Start`s](EventLog::open_starts).
    ///
    /// # Panics
    /// Panics on inconsistent geometry (`n_gpus` zero, `free` exceeding
    /// the pool, `node` or `n_gpus` past the 65 535 an event record
    /// holds) and on a log in which a `Finish` closes no `Start`.
    #[must_use]
    pub fn from_state(state: NodeRunState, dispatcher: D) -> Self {
        assert!(state.n_gpus >= 1);
        assert!(state.free <= state.n_gpus, "more free GPUs than exist");
        assert!(
            state.node.max(state.n_gpus) <= usize::from(u16::MAX),
            "node {} with {} GPUs does not fit an event record",
            state.node,
            state.n_gpus
        );
        let running = state
            .events
            .open_starts()
            .expect("every Finish of a node's log closes a Start")
            .into_iter()
            .map(|index| {
                let start = state.events.record(index);
                Running {
                    finish: start.time + f64::from_bits(start.word),
                    gpus: start.gpus,
                    ids: start.ids(),
                }
            })
            .collect();
        Self {
            dispatcher,
            state,
            running,
            placed_arrivals: Vec::new(),
        }
    }
}

/// A [`NodeRun`]'s complete interior state: what live checkpointing
/// (the `HRPS` snapshot in `hrp-serve`) writes from
/// [`NodeRun::state`] and hands back to [`NodeRun::from_state`]. Every
/// field that influences the event stream is here — including the
/// already-recorded events, so a merged timeline digest survives a
/// kill/restore cycle bit-exactly, and through them the running
/// placements.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRunState {
    /// Node id.
    pub node: usize,
    /// GPU pool size.
    pub n_gpus: usize,
    /// Simulation clock.
    pub clock: f64,
    /// Currently idle GPUs.
    pub free: usize,
    /// Future arrivals, non-decreasing in time.
    pub arrivals: VecDeque<ClusterJob>,
    /// Absorbed jobs awaiting dispatch.
    pub waiting: Vec<ClusterJob>,
    /// `Σ duration × gpus` over placements so far.
    pub busy_gpu_seconds: f64,
    /// `Σ (start − arrival)` over placed jobs so far.
    pub wait_sum: f64,
    /// Placements executed so far.
    pub placements: usize,
    /// Jobs that arrived on this node so far.
    pub jobs: usize,
    /// Jobs whose placements finished so far.
    pub completed: usize,
    /// Whether the dispatcher must be consulted at the next advance.
    pub dirty: bool,
    /// Events recorded so far.
    pub events: EventLog,
}

impl NodeRunState {
    /// Record one event of this node, numbered by its place in the
    /// node's log.
    ///
    /// # Panics
    /// Panics on the node's 2³²-th event, whose number a record cannot
    /// hold.
    fn record(&mut self, time: f64, tag: Tag, word: u64, ids: IdRange, gpus: u16) {
        let seq = u32::try_from(self.events.len()).expect("a node logs at most 2^32 events");
        // Checked when the `NodeRun` was built.
        #[allow(clippy::cast_possible_truncation)]
        let node = self.node as u16;
        self.events.push_record(Record {
            time,
            word,
            seq,
            at: ids.at,
            n: ids.n,
            gpus,
            node,
            tag,
        });
    }
}

/// Delegating shim so `&mut dyn Dispatcher` drives a [`NodeRun`].
struct DynDispatcher<'a>(&'a mut dyn Dispatcher);

impl Dispatcher for DynDispatcher<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        self.0.next_placement(suite, waiting, free_gpus, now)
    }
}

/// The simulator: runs a job trace through a dispatcher on `n_gpus`.
#[derive(Debug)]
pub struct ClusterSim {
    n_gpus: usize,
}

impl ClusterSim {
    /// A cluster with `n_gpus` identical GPUs.
    #[must_use]
    pub fn new(n_gpus: usize) -> Self {
        assert!(n_gpus >= 1);
        Self { n_gpus }
    }

    /// Run the trace to completion.
    ///
    /// # Panics
    /// Panics if the dispatcher returns inconsistent placements (unknown
    /// job ids or more GPUs than free).
    pub fn run(
        &self,
        suite: &Suite,
        jobs: Vec<ClusterJob>,
        dispatcher: &mut dyn Dispatcher,
    ) -> ClusterReport {
        self.run_traced(suite, jobs, dispatcher).0
    }

    /// Like [`ClusterSim::run`], also returning the event stream (all
    /// events carry node id 0).
    ///
    /// # Panics
    /// Same conditions as [`ClusterSim::run`].
    pub fn run_traced(
        &self,
        suite: &Suite,
        mut jobs: Vec<ClusterJob>,
        dispatcher: &mut dyn Dispatcher,
    ) -> (ClusterReport, EventLog) {
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let total_jobs = jobs.len();
        let mut node = NodeRun::new(0, self.n_gpus, DynDispatcher(dispatcher));
        node.reserve_jobs(total_jobs);
        for job in jobs {
            node.push_arrival(job);
        }
        node.advance_until(suite, f64::INFINITY);
        let (stats, events, _) = node.finish();
        let makespan = stats.makespan;
        let report = ClusterReport {
            makespan,
            avg_wait: if total_jobs > 0 {
                stats.wait_sum / total_jobs as f64
            } else {
                0.0
            },
            utilization: if makespan > 0.0 {
                stats.busy_gpu_seconds / (makespan * self.n_gpus as f64)
            } else {
                0.0
            },
            placements: stats.placements,
        };
        (report, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    /// Trivial dispatcher: one waiting job per free GPU, exclusively.
    struct OneByOne;

    impl Dispatcher for OneByOne {
        fn name(&self) -> &'static str {
            "one-by-one"
        }

        fn next_placement(
            &mut self,
            suite: &Suite,
            waiting: &[ClusterJob],
            free_gpus: usize,
            _now: f64,
        ) -> Option<Placement> {
            let job = waiting.iter().find(|j| usize::from(j.gpus) <= free_gpus)?;
            Some(Placement {
                job_ids: vec![job.id],
                gpus: usize::from(job.gpus),
                duration: job.solo_time(suite),
            })
        }
    }

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    #[test]
    fn single_gpu_serialises_jobs() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let report = ClusterSim::new(1).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 20.0).abs() < 1e-9);
        assert!((report.avg_wait - 5.0).abs() < 1e-9, "{}", report.avg_wait);
        assert!((report.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_gpus_run_in_parallel() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let report = ClusterSim::new(2).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 10.0).abs() < 1e-9);
        assert!(report.avg_wait.abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_respected() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 100.0, 1, &s), // arrives late
        ];
        let report = ClusterSim::new(1).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 110.0).abs() < 1e-9);
        // Utilization counts idle waiting time.
        assert!(report.utilization < 0.2);
    }

    #[test]
    fn multi_gpu_job_takes_gang() {
        let s = suite();
        let jobs = vec![ClusterJob::new(0, "lavaMD", 0.0, 2, &s)];
        let report = ClusterSim::new(2).run(&s, jobs, &mut OneByOne);
        assert!((report.makespan - 19.0).abs() < 1e-9);
        assert!((report.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_drains_to_a_zeroed_report() {
        let s = suite();
        let (report, events) = ClusterSim::new(2).run_traced(&s, Vec::new(), &mut OneByOne);
        assert_eq!(
            report,
            ClusterReport {
                makespan: 0.0,
                avg_wait: 0.0,
                utilization: 0.0,
                placements: 0,
            }
        );
        assert!(events.is_empty());
    }

    #[test]
    fn simultaneous_arrivals_keep_submission_order() {
        let s = suite();
        // Four jobs at the same instant on one GPU: OneByOne must serve
        // them in submission order (the waiting queue is arrival-stable).
        let jobs: Vec<ClusterJob> = ["stream", "kmeans", "pathfinder", "lud_A"]
            .iter()
            .enumerate()
            .map(|(i, n)| ClusterJob::new(i, n, 5.0, 1, &s))
            .collect();
        let (report, events) = ClusterSim::new(1).run_traced(&s, jobs, &mut OneByOne);
        assert_eq!(report.placements, 4);
        let started: Vec<usize> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Start { job_ids, .. } => Some(job_ids[0]),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![0, 1, 2, 3]);
        // All four arrivals were recorded at the shared instant, before
        // any start.
        assert!(events
            .iter()
            .take(4)
            .all(|e| matches!(e.kind, EventKind::Arrival { .. }) && e.time == 5.0));
    }

    #[test]
    fn traced_run_reports_exactly_what_run_reports() {
        let s = suite();
        let jobs = |arr: f64| {
            vec![
                ClusterJob::new(0, "stream", arr, 1, &s),
                ClusterJob::new(1, "lavaMD", arr + 2.0, 1, &s),
                ClusterJob::new(2, "kmeans", arr + 2.0, 1, &s),
            ]
        };
        let plain = ClusterSim::new(2).run(&s, jobs(1.0), &mut OneByOne);
        let (traced, events) = ClusterSim::new(2).run_traced(&s, jobs(1.0), &mut OneByOne);
        assert_eq!(plain, traced);
        // 3 arrivals + 3 starts + 3 finishes, seq strictly increasing.
        assert_eq!(events.len(), 9);
        assert!(events
            .iter()
            .zip(events.iter().skip(1))
            .all(|(a, b)| a.seq < b.seq));
        assert!(events.iter().all(|e| e.node == 0));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn stranded_jobs_are_a_deadlock() {
        let s = suite();
        // A 4-GPU job on a 2-GPU pool can never start; OneByOne skips
        // it, and the drain must flag the stranded queue rather than
        // spin or exit silently.
        let jobs = vec![ClusterJob::new(0, "lavaMD", 0.0, 4, &s)];
        let _ = ClusterSim::new(2).run(&s, jobs, &mut OneByOne);
    }

    #[test]
    fn node_run_defers_the_horizon_dispatch() {
        let s = suite();
        // stream solo = 10 s. Advance to the exact finish time of the
        // first placement: the release happens, but the freed GPU must
        // not be re-dispatched until the caller had a chance to push
        // co-timed arrivals.
        let mut node = NodeRun::new(0, 1, OneByOne);
        node.push_arrival(ClusterJob::new(0, "stream", 0.0, 1, &s));
        node.advance_until(&s, 5.0);
        assert_eq!(node.load(&s, 5.0).free_gpus, 0, "stream still running");
        node.push_arrival(ClusterJob::new(1, "kmeans", 5.0, 1, &s));
        node.advance_until(&s, 10.0);
        // The finish at t = 10 released the GPU, but the dispatch at
        // t = 10 is deferred to the next call.
        let load = node.load(&s, 10.0);
        assert_eq!(load.free_gpus, 1);
        assert_eq!(load.queued_jobs, 1);
        node.push_arrival(ClusterJob::new(2, "pathfinder", 10.0, 1, &s));
        node.advance_until(&s, f64::INFINITY);
        let (stats, events, _) = node.finish();
        assert_eq!(stats.completed, 3);
        // kmeans (id 1, waiting since 5) starts before pathfinder.
        let starts: Vec<usize> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Start { job_ids, .. } => Some(job_ids[0]),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![0, 1, 2]);
    }

    #[test]
    fn an_event_record_is_thirty_two_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }

    #[test]
    fn a_record_key_orders_times_as_total_cmp_does() {
        let times = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            1.0 + f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
        ];
        let record = |time| Record {
            time,
            word: 0,
            seq: 0,
            at: 0,
            n: 0,
            gpus: 0,
            node: 0,
            tag: Tag::Arrival,
        };
        for a in times {
            for b in times {
                assert_eq!(
                    record(a).key().cmp(&record(b).key()),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    thread_local! {
        static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Counts this thread's allocations (a `realloc` goes through
    /// `alloc`); delegates to the system allocator.
    struct CountingAlloc;

    // SAFETY: every call goes unchanged to the system allocator, which
    // keeps `GlobalAlloc`'s contract; counting touches no memory it hands
    // out.
    #[allow(unsafe_code)]
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            std::alloc::System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// One-job placements are the worst case — three events and one
    /// arena slot per job — and enough of them to fill several chunks.
    #[test]
    fn a_log_reserved_for_its_jobs_never_regrows() {
        const JOBS: usize = 1_500;
        let mut node = NodeRun::new(0, 1, OneByOne);
        node.reserve_jobs(JOBS);
        let s = &mut node.state;
        let before = ALLOCATIONS.with(std::cell::Cell::get);
        for id in 0..JOBS {
            let t = id as f64;
            s.record(t, Tag::Arrival, id as u64, IdRange::NONE, 0);
            let ids = s.events.intern(&[id]).expect("fits");
            s.record(t, Tag::Start, 1f64.to_bits(), ids, 1);
            s.record(t + 1.0, Tag::Finish, 0, ids, 1);
        }
        assert_eq!(ALLOCATIONS.with(std::cell::Cell::get) - before, 0);
        let log = &s.events;
        // A finish names its start's ids: one id for two lists.
        assert_eq!((log.len(), log.ids.len()), (3 * JOBS, JOBS));
        assert!(log.chunks.len() > 4, "the log spans several chunks");
        assert_eq!(log.open_starts(), Ok(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "node's past")]
    fn past_arrivals_are_rejected() {
        let s = suite();
        let mut node = NodeRun::new(0, 1, OneByOne);
        node.push_arrival(ClusterJob::new(0, "stream", 20.0, 1, &s));
        node.advance_until(&s, f64::INFINITY);
        node.push_arrival(ClusterJob::new(1, "stream", 5.0, 1, &s));
    }
}
