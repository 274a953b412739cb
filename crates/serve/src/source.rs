//! Arrival ingestion for the online scheduler service.
//!
//! [`ArrivalSource`] abstracts where jobs come from so the service's
//! decision loop never knows whether it is replaying a finite trace,
//! draining a live channel, or being driven open-loop by a load
//! generator:
//!
//! * [`TraceSource`] — adapts [`hrp_cluster::trace::stream`], so any
//!   [`TraceConfig`] the batch engines replay can be served online
//!   (this is the digest-oracle path: same jobs, same order).
//! * [`ChannelSource`] — an `std::sync::mpsc` receiver; producers on
//!   other threads submit [`ClusterJob`]s and the service ingests them
//!   without blocking. Live input has no replayable position, so this
//!   source refuses to checkpoint.
//! * [`LoadGen`] — a seed-deterministic open-loop generator offering
//!   jobs at a configurable rate until a horizon, either as a Poisson
//!   process ([`LoadShape::Poisson`]) or in same-instant bursts
//!   ([`LoadShape::Bursty`]).
//!
//! Every source reports how many jobs it has handed out
//! ([`ArrivalSource::consumed`]); the deterministic sources resume
//! from a checkpoint by rebuilding themselves from their spec and
//! replaying that many draws, which restores the RNG cursor exactly.

use hrp_cluster::job::ClusterJob;
use hrp_cluster::multinode::MAX_GPUS_PER_NODE;
use hrp_cluster::trace::{
    assign_user, stream, user_popularity, TraceConfig, TraceStream, DEFAULT_USER_SKEW,
};
use hrp_workloads::Suite;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};

/// One ingest attempt's outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SourcePoll {
    /// The next arrival. Sources must hand jobs out in non-decreasing
    /// arrival order (the service asserts it).
    Job(ClusterJob),
    /// Nothing available *right now*, but the source is still open —
    /// the caller should retry later (live channels while producers
    /// are thinking).
    Pending,
    /// The source is exhausted; no further jobs will ever come.
    /// Closed is sticky: every later poll returns it again.
    Closed,
}

/// An unbounded (or finite) stream of job arrivals the service
/// ingests event by event.
pub trait ArrivalSource {
    /// Source family name (`trace` / `channel` / `poisson` /
    /// `bursty`) — the checkpoint's `source` spec key.
    fn name(&self) -> &'static str;

    /// Pull the next arrival, if one is available.
    fn poll(&mut self) -> SourcePoll;

    /// Jobs handed out so far — the stream position a checkpoint
    /// records.
    fn consumed(&self) -> usize;

    /// The `key=value` pairs that let [`ArrivalSource::consumed`]
    /// draws of an identically-specced rebuild reproduce this
    /// source's state, or `None` if the source cannot be checkpointed
    /// (a live channel has no replayable position).
    fn checkpoint_spec(&self) -> Option<Vec<(&'static str, String)>>;
}

impl<S: ArrivalSource + ?Sized> ArrivalSource for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn poll(&mut self) -> SourcePoll {
        (**self).poll()
    }

    fn consumed(&self) -> usize {
        (**self).consumed()
    }

    fn checkpoint_spec(&self) -> Option<Vec<(&'static str, String)>> {
        (**self).checkpoint_spec()
    }
}

/// A finite [`TraceConfig`] replayed job by job through
/// [`hrp_cluster::trace::stream`] — the source whose service run is
/// digest-comparable to the batch engines.
pub struct TraceSource<'a> {
    stream: TraceStream<'a>,
    cfg: TraceConfig,
    consumed: usize,
}

impl<'a> TraceSource<'a> {
    /// Stream the trace `cfg` describes from the beginning.
    ///
    /// # Panics
    /// Same conditions as [`hrp_cluster::trace::stream`].
    #[must_use]
    pub fn new(suite: &'a Suite, cfg: TraceConfig) -> Self {
        Self {
            stream: stream(suite, &cfg),
            cfg,
            consumed: 0,
        }
    }

    /// Resume a trace source at `consumed` jobs already handed out:
    /// rebuild the stream and skip that many draws, restoring the RNG
    /// cursor bit-exactly.
    ///
    /// # Panics
    /// Panics if `consumed` exceeds the trace length.
    #[must_use]
    pub fn resume(suite: &'a Suite, cfg: TraceConfig, consumed: usize) -> Self {
        assert!(
            consumed <= cfg.jobs,
            "resume position {consumed} beyond the {}-job trace",
            cfg.jobs
        );
        let mut source = Self::new(suite, cfg);
        for _ in 0..consumed {
            source.stream.next().expect("within the trace");
        }
        source.consumed = consumed;
        source
    }

    /// The trace being replayed.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }
}

impl ArrivalSource for TraceSource<'_> {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn poll(&mut self) -> SourcePoll {
        match self.stream.next() {
            Some(job) => {
                self.consumed += 1;
                SourcePoll::Job(job)
            }
            None => SourcePoll::Closed,
        }
    }

    fn consumed(&self) -> usize {
        self.consumed
    }

    fn checkpoint_spec(&self) -> Option<Vec<(&'static str, String)>> {
        Some(self.cfg.spec_pairs())
    }
}

/// Live arrivals over an `std::sync::mpsc` channel: producers submit
/// [`ClusterJob`]s from other threads; the service polls without
/// blocking. Closing every sender closes the source.
pub struct ChannelSource {
    rx: Receiver<ClusterJob>,
    consumed: usize,
    closed: bool,
}

impl ChannelSource {
    /// Wrap an existing receiver.
    #[must_use]
    pub fn new(rx: Receiver<ClusterJob>) -> Self {
        Self {
            rx,
            consumed: 0,
            closed: false,
        }
    }

    /// A fresh submission channel: hand the [`Sender`] to producers,
    /// the source to the service.
    #[must_use]
    pub fn channel() -> (Sender<ClusterJob>, Self) {
        let (tx, rx) = std::sync::mpsc::channel();
        (tx, Self::new(rx))
    }
}

impl ArrivalSource for ChannelSource {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn poll(&mut self) -> SourcePoll {
        if self.closed {
            return SourcePoll::Closed;
        }
        match self.rx.try_recv() {
            Ok(job) => {
                self.consumed += 1;
                SourcePoll::Job(job)
            }
            Err(TryRecvError::Empty) => SourcePoll::Pending,
            Err(TryRecvError::Disconnected) => {
                self.closed = true;
                SourcePoll::Closed
            }
        }
    }

    fn consumed(&self) -> usize {
        self.consumed
    }

    fn checkpoint_spec(&self) -> Option<Vec<(&'static str, String)>> {
        None
    }
}

/// Arrival pattern of a [`LoadGen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadShape {
    /// Independent exponential inter-arrival gaps at the offered rate.
    Poisson,
    /// Same-instant bursts of 2–5 jobs; inter-burst gaps scaled so the
    /// long-run offered rate matches.
    Bursty,
}

impl LoadShape {
    /// The CLI-style name (`poisson` / `bursty`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Poisson => "poisson",
            Self::Bursty => "bursty",
        }
    }
}

/// A seed-deterministic open-loop load generator: offers jobs at
/// `rate` jobs per simulated second until the `duration` horizon,
/// drawing benchmarks uniformly from the suite and widening a fifth
/// of the jobs into gangs (when the GPU bound allows). Open-loop —
/// the offered load never waits for the cluster, which is what makes
/// sustained decisions/sec a meaningful service metric.
///
/// Determinism: the emitted sequence is a pure function of
/// `(shape, rate, duration, seed, max_gpus)`, so a checkpoint records
/// only those and the number of jobs already handed out.
pub struct LoadGen<'a> {
    suite: &'a Suite,
    shape: LoadShape,
    rate: f64,
    duration: f64,
    seed: u64,
    max_gpus: usize,
    users: u32,
    user_skew: f64,
    popularity: Vec<f64>,
    rng: SmallRng,
    t: f64,
    next_id: usize,
    burst_left: usize,
    consumed: usize,
    closed: bool,
}

impl<'a> LoadGen<'a> {
    /// A generator offering `rate` jobs/second until `duration`.
    ///
    /// # Panics
    /// Panics unless `rate` and `duration` are positive and finite
    /// and `max_gpus` is in `1..=`[`MAX_GPUS_PER_NODE`].
    #[must_use]
    pub fn new(suite: &'a Suite, shape: LoadShape, rate: f64, duration: f64, seed: u64) -> Self {
        Self::with_max_gpus(suite, shape, rate, duration, seed, 2)
    }

    /// Like [`LoadGen::new`] with an explicit per-job GPU bound.
    ///
    /// # Panics
    /// Same conditions as [`LoadGen::new`].
    #[must_use]
    pub fn with_max_gpus(
        suite: &'a Suite,
        shape: LoadShape,
        rate: f64,
        duration: f64,
        seed: u64,
        max_gpus: usize,
    ) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "offered rate must be positive and finite, got {rate}"
        );
        assert!(
            duration.is_finite() && duration > 0.0,
            "duration must be positive and finite, got {duration}"
        );
        assert!(
            (1..=MAX_GPUS_PER_NODE).contains(&max_gpus),
            "max_gpus must lie in 1..={MAX_GPUS_PER_NODE}, got {max_gpus}"
        );
        Self {
            suite,
            shape,
            rate,
            duration,
            seed,
            max_gpus,
            users: 0,
            user_skew: DEFAULT_USER_SKEW,
            popularity: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            t: 0.0,
            next_id: 0,
            burst_left: 0,
            consumed: 0,
            closed: false,
        }
    }

    /// Builder: tag emitted jobs with Zipf-skewed tenant ids in
    /// `0..users` (`0` = untagged, the default). The draw mirrors
    /// [`hrp_cluster::trace::assign_user`] — a stateless per-job-id
    /// hash layered after the arrival/mix draws, so the RNG stream and
    /// every arrival instant are bit-identical to an untagged run.
    ///
    /// # Panics
    /// Panics unless `skew` is positive and finite (with `users ≥ 2`).
    #[must_use]
    pub fn with_users(mut self, users: u32, skew: f64) -> Self {
        self.users = users;
        self.user_skew = skew;
        self.popularity = user_popularity(users, skew);
        self
    }

    /// Replay `consumed` draws on this (freshly built) generator,
    /// restoring the RNG cursor bit-exactly. Returns `None` — instead
    /// of panicking — if the horizon closes first, which is how a
    /// forged checkpoint position surfaces as a typed
    /// [`crate::CheckpointError`] rather than a crash.
    #[must_use]
    pub fn resume_to(mut self, consumed: usize) -> Option<Self> {
        assert_eq!(self.consumed, 0, "resume_to needs a fresh generator");
        for _ in 0..consumed {
            if !matches!(self.poll(), SourcePoll::Job(_)) {
                return None;
            }
        }
        Some(self)
    }

    /// An exponential gap with mean `1 / rate` (inverse-CDF over a
    /// uniform draw; `1 - u` keeps the argument of `ln` positive).
    fn exp_gap(&mut self) -> f64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() / self.rate
    }

    /// One job at the current instant. Both the wide-or-not and the
    /// width draw are taken unconditionally so the stream position
    /// never depends on `max_gpus`.
    fn emit(&mut self) -> ClusterJob {
        let bench = self.rng.gen_range(0..self.suite.len());
        let wide = self.rng.gen_bool(0.2);
        let width = self.rng.gen_range(2usize..5);
        let gpus = if wide && self.max_gpus >= 2 {
            width.min(self.max_gpus)
        } else {
            1
        };
        let mut job = ClusterJob::indexed(self.next_id, bench, self.t, gpus);
        assign_user(self.seed, &self.popularity, &mut job);
        self.next_id += 1;
        self.consumed += 1;
        job
    }
}

impl ArrivalSource for LoadGen<'_> {
    fn name(&self) -> &'static str {
        self.shape.name()
    }

    fn poll(&mut self) -> SourcePoll {
        if self.closed {
            return SourcePoll::Closed;
        }
        match self.shape {
            LoadShape::Poisson => {
                self.t += self.exp_gap();
                if self.t > self.duration {
                    self.closed = true;
                    return SourcePoll::Closed;
                }
                SourcePoll::Job(self.emit())
            }
            LoadShape::Bursty => {
                if self.burst_left == 0 {
                    let burst = self.rng.gen_range(2usize..6);
                    // The burst's whole arrival budget lands on the gap
                    // before it, so the long-run rate stays `rate`.
                    self.t += burst as f64 * self.exp_gap();
                    if self.t > self.duration {
                        self.closed = true;
                        return SourcePoll::Closed;
                    }
                    self.burst_left = burst;
                }
                self.burst_left -= 1;
                SourcePoll::Job(self.emit())
            }
        }
    }

    fn consumed(&self) -> usize {
        self.consumed
    }

    fn checkpoint_spec(&self) -> Option<Vec<(&'static str, String)>> {
        Some(vec![
            ("rate", format!("{:?}", self.rate)),
            ("duration", format!("{:?}", self.duration)),
            ("seed", self.seed.to_string()),
            ("max_gpus", self.max_gpus.to_string()),
            ("users", self.users.to_string()),
            ("user_skew", format!("{:?}", self.user_skew)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_cluster::trace::TraceKind;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    fn drain(mut src: impl ArrivalSource) -> Vec<ClusterJob> {
        let mut jobs = Vec::new();
        loop {
            match src.poll() {
                SourcePoll::Job(j) => jobs.push(j),
                SourcePoll::Pending => panic!("deterministic sources never pend"),
                SourcePoll::Closed => return jobs,
            }
        }
    }

    #[test]
    fn trace_source_replays_the_generated_trace_exactly() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 40, 7).gang_share(0.25);
        let jobs = drain(TraceSource::new(&s, cfg.clone()));
        assert_eq!(jobs, hrp_cluster::trace::generate(&s, &cfg));
    }

    #[test]
    fn trace_source_resumes_mid_stream_bit_exactly() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Skewed, 30, 11);
        let full = drain(TraceSource::new(&s, cfg.clone()));
        for cut in [0usize, 1, 13, 29, 30] {
            let rest = drain(TraceSource::resume(&s, cfg.clone(), cut));
            assert_eq!(rest.len(), 30 - cut);
            assert_eq!(rest.as_slice(), &full[cut..], "cut at {cut}");
        }
    }

    #[test]
    fn channel_source_pends_then_closes() {
        let s = suite();
        let (tx, mut src) = ChannelSource::channel();
        assert_eq!(src.poll(), SourcePoll::Pending);
        tx.send(ClusterJob::new(0, "stream", 1.0, 1, &s)).unwrap();
        assert!(matches!(src.poll(), SourcePoll::Job(j) if j.id == 0));
        drop(tx);
        assert_eq!(src.poll(), SourcePoll::Closed);
        assert_eq!(src.poll(), SourcePoll::Closed, "closed is sticky");
        assert_eq!(src.consumed(), 1);
        assert!(src.checkpoint_spec().is_none(), "live input: no spec");
    }

    #[test]
    fn load_gen_is_deterministic_ordered_and_rate_shaped() {
        let s = suite();
        for shape in [LoadShape::Poisson, LoadShape::Bursty] {
            let a = drain(LoadGen::new(&s, shape, 4.0, 100.0, 9));
            let b = drain(LoadGen::new(&s, shape, 4.0, 100.0, 9));
            assert_eq!(a, b, "{}: pure function of the spec", shape.name());
            assert!(
                a.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "{}: arrivals non-decreasing",
                shape.name()
            );
            assert!(
                a.iter().enumerate().all(|(i, j)| j.id == i),
                "{}: dense ids",
                shape.name()
            );
            // ~4 jobs/s over 100 s ≈ 400 jobs; allow generous slack.
            assert!(
                (150..=800).contains(&a.len()),
                "{}: offered {} jobs at rate 4 over 100 s",
                shape.name(),
                a.len()
            );
        }
    }

    #[test]
    fn bursty_load_gen_clumps_arrival_instants() {
        let s = suite();
        let jobs = drain(LoadGen::new(&s, LoadShape::Bursty, 4.0, 50.0, 3));
        let shared = jobs
            .windows(2)
            .filter(|w| w[0].arrival.to_bits() == w[1].arrival.to_bits())
            .count();
        assert!(shared * 2 >= jobs.len(), "bursts share instants: {shared}");
    }

    #[test]
    fn load_gen_resumes_mid_stream_bit_exactly() {
        let s = suite();
        for shape in [LoadShape::Poisson, LoadShape::Bursty] {
            let full = drain(LoadGen::new(&s, shape, 6.0, 40.0, 21));
            let cut = full.len() / 2;
            let resumed = LoadGen::new(&s, shape, 6.0, 40.0, 21).resume_to(cut);
            let rest = drain(resumed.expect("within the horizon"));
            assert_eq!(rest.as_slice(), &full[cut..], "{}", shape.name());
        }
    }

    #[test]
    fn load_gen_user_tagging_leaves_the_stream_untouched() {
        let s = suite();
        let plain = drain(LoadGen::new(&s, LoadShape::Bursty, 4.0, 50.0, 3));
        let tagged = drain(LoadGen::new(&s, LoadShape::Bursty, 4.0, 50.0, 3).with_users(4, 1.4));
        assert_eq!(plain.len(), tagged.len());
        let mut seen = [false; 4];
        for (a, b) in plain.iter().zip(&tagged) {
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!((a.id, a.bench, a.gpus), (b.id, b.bench, b.gpus));
            assert_eq!(a.user, 0);
            seen[b.user as usize] = true;
        }
        assert!(seen.iter().all(|&x| x), "every tenant appears");
    }

    #[test]
    fn resume_beyond_the_horizon_returns_none_not_a_panic() {
        let s = suite();
        let fresh = || LoadGen::new(&s, LoadShape::Poisson, 2.0, 20.0, 5);
        let total = drain(fresh()).len();
        assert!(fresh().resume_to(total).is_some());
        assert!(fresh().resume_to(total + 1).is_none());
    }

    #[test]
    #[should_panic(expected = "offered rate must be positive")]
    fn zero_rate_is_rejected() {
        let s = suite();
        let _ = LoadGen::new(&s, LoadShape::Poisson, 0.0, 10.0, 1);
    }
}
