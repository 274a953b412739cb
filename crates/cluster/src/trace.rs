//! Deterministic cluster-trace generators — the scenario-diversity
//! axis of the multi-node evaluation.
//!
//! There is one generator, the streaming [`TraceStream`]; [`generate`]
//! collects it. A trace is a pure function of its [`TraceConfig`] (kind,
//! job count, seed, bounds): the same config always yields the same
//! job list, arrivals are non-decreasing, and every job respects the
//! configured GPU bound — properties pinned by
//! `tests/trace_contract.rs`, with every kind's draws pinned by digest
//! in this module's tests. The kinds stress different parts of the
//! placement problem:
//!
//! * [`TraceKind::Uniform`] — benchmarks drawn uniformly, independent
//!   inter-arrival gaps: the easy, well-mixed baseline.
//! * [`TraceKind::Bursty`] — arrivals clumped into simultaneous
//!   bursts separated by long gaps: stresses the burst-spreading
//!   behaviour of the selector (a burst is assigned against one load
//!   snapshot, updated per assignment).
//! * [`TraceKind::Skewed`] — job *kinds* drawn from a Zipf popularity
//!   distribution whose head ranks are the longest-running
//!   benchmarks, with mildly clumped arrivals: a few job kinds carry
//!   most of the work, so naive placement (round-robin) piles
//!   long-job streaks onto single nodes — the §VI load-imbalance
//!   scenario the RL placement tier is trained on.
//! * [`TraceKind::HeavyTail`] — job *durations* follow a truncated
//!   Pareto: samples are mapped to the benchmark with the nearest
//!   solo time, so a small fraction of jobs dominates total work
//!   (clamped to the suite's longest benchmark).
//! * [`TraceKind::Colocate`] — a multi-GPU mix: a configurable share
//!   of jobs requests 2..=`max_gpus` GPUs and gang-schedules
//!   exclusively on its node, interleaved with single-GPU fillers.
//! * [`TraceKind::Staggered`] — the deterministic demo trace: a
//!   class-interleaving stride through the suite, bursts of four every
//!   5 s, every ninth job asking for two GPUs; ignores the seed by
//!   construction.

use crate::job::ClusterJob;
use crate::multinode::MAX_GPUS_PER_NODE;
use hrp_gpusim::rng::SplitMix64;
use hrp_nn::serialize::{CheckpointError, Spec, POSITIVE_FINITE};
use hrp_workloads::Suite;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which arrival/mix pattern to generate (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Uniform benchmark mix, independent inter-arrival gaps.
    Uniform,
    /// Simultaneous arrival bursts separated by long gaps.
    Bursty,
    /// Zipf-skewed job-kind popularity (head ranks = longest jobs).
    Skewed,
    /// Truncated-Pareto job durations (nearest-benchmark mapping).
    HeavyTail,
    /// Multi-GPU co-location mix (gang-scheduled wide jobs).
    Colocate,
    /// The legacy deterministic demo trace (seed-independent).
    Staggered,
}

/// Seed offset separating *evaluation* traces from the
/// [`hrp_gpusim::rng::split_seed`] training stream: held-out evaluation
/// (the `repro cluster` trace, the golden placement pin) XORs the base
/// seed with this before generating, so a trained policy never
/// evaluates on a trace it trained on (for the seeded kinds; the
/// seed-independent [`TraceKind::Staggered`] demo trace is the
/// documented exception).
pub const EVAL_SEED_OFFSET: u64 = 0x5eed_0000_0000_0000;

/// Every kind, in CLI listing order.
pub const TRACE_KINDS: [TraceKind; 6] = [
    TraceKind::Uniform,
    TraceKind::Bursty,
    TraceKind::Skewed,
    TraceKind::HeavyTail,
    TraceKind::Colocate,
    TraceKind::Staggered,
];

impl TraceKind {
    /// Parse a CLI-style name: exactly the strings [`TraceKind::name`]
    /// returns (`uniform`, `bursty`, `skewed`, `heavy-tail`, `colocate`,
    /// `staggered`).
    ///
    /// # Errors
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "uniform" => Ok(Self::Uniform),
            "bursty" => Ok(Self::Bursty),
            "skewed" => Ok(Self::Skewed),
            "heavy-tail" => Ok(Self::HeavyTail),
            "colocate" => Ok(Self::Colocate),
            "staggered" => Ok(Self::Staggered),
            other => Err(other.to_owned()),
        }
    }

    /// The CLI-style name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::Bursty => "bursty",
            Self::Skewed => "skewed",
            Self::HeavyTail => "heavy-tail",
            Self::Colocate => "colocate",
            Self::Staggered => "staggered",
        }
    }
}

/// A trace specification: kind, size, seed, and bounds. Pure data — the
/// same config always generates the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Arrival/mix pattern.
    pub kind: TraceKind,
    /// Number of jobs to emit (exactly).
    pub jobs: usize,
    /// Generator seed.
    pub seed: u64,
    /// Upper bound on any job's GPU request (the cluster's
    /// GPUs-per-node, in `1..=`[`MAX_GPUS_PER_NODE`]; every emitted job
    /// fits on one node).
    pub max_gpus: usize,
    /// Mean inter-arrival gap in seconds (per job; burst kinds spend
    /// the whole burst's budget on the gap after it).
    pub mean_gap: f64,
    /// Share of single-GPU jobs deterministically widened into
    /// 2..=`max_gpus`-GPU gangs after generation (`0.0` = off, the
    /// default — traces are bit-identical to configs predating the
    /// knob). The widening is a stateless per-job-id hash, so the
    /// arrival/mix RNG stream is untouched.
    pub gang_share: f64,
    /// Number of tenants to tag jobs with (`0` = untagged, the default
    /// — every job keeps `user: 0` and traces are bit-identical to
    /// configs predating the knob). With `users ≥ 2`, each job draws a
    /// tenant id in `0..users` from a Zipf popularity distribution
    /// (tenant 0 is the heavy hitter). Like the gang widening, the draw
    /// is a stateless per-job-id hash layered after generation, so the
    /// arrival/mix RNG stream is untouched.
    pub users: u32,
    /// Zipf exponent of the tenant popularity distribution (only
    /// meaningful with `users ≥ 2`; larger = heavier head tenant).
    pub user_skew: f64,
}

impl TraceConfig {
    /// A `jobs`-job trace of the given kind with the evaluation
    /// defaults (2-GPU nodes, 4 s mean gap).
    #[must_use]
    pub fn new(kind: TraceKind, jobs: usize, seed: u64) -> Self {
        Self {
            kind,
            jobs,
            seed,
            max_gpus: 2,
            mean_gap: 4.0,
            gang_share: 0.0,
            users: 0,
            user_skew: DEFAULT_USER_SKEW,
        }
    }

    /// Builder: override the per-job GPU bound.
    ///
    /// # Panics
    /// Panics unless `max_gpus` is in `1..=`[`MAX_GPUS_PER_NODE`].
    #[must_use]
    pub fn max_gpus(mut self, max_gpus: usize) -> Self {
        assert_max_gpus(max_gpus);
        self.max_gpus = max_gpus;
        self
    }

    /// Builder: override the mean inter-arrival gap.
    #[must_use]
    pub fn mean_gap(mut self, gap: f64) -> Self {
        self.mean_gap = gap;
        self
    }

    /// Builder: override the seed (used to derive per-episode training
    /// traces from one base config).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: widen a deterministic share of the single-GPU jobs
    /// into gangs (see the field docs). Gangs give a backfilling
    /// scheduler head-of-line blocking to work around; all-narrow
    /// traces schedule identically under every backfill policy.
    ///
    /// # Panics
    /// Panics unless `share` is in `[0, 1]`.
    #[must_use]
    pub fn gang_share(mut self, share: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&share),
            "gang_share must be in [0, 1], got {share}"
        );
        self.gang_share = share;
        self
    }

    /// Builder: tag jobs with Zipf-skewed tenant ids in `0..users`
    /// (see the field docs; `0` disables tagging).
    #[must_use]
    pub fn users(mut self, users: u32) -> Self {
        self.users = users;
        self
    }

    /// Builder: override the tenant-popularity Zipf exponent.
    ///
    /// # Panics
    /// Panics unless `skew` is positive and finite.
    #[must_use]
    pub fn user_skew(mut self, skew: f64) -> Self {
        assert!(
            skew.is_finite() && skew > 0.0,
            "user_skew must be positive and finite, got {skew}"
        );
        self.user_skew = skew;
        self
    }

    /// The eight fields as unprefixed `key=value` spec pairs, floats in
    /// their shortest round-trip form: what the `HRPP` agent spec writes
    /// under `trace.` and the `HRPS` trace source under `src_`.
    /// [`TraceConfig::from_spec`] reads them back.
    #[must_use]
    pub fn spec_pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("kind", self.kind.name().to_owned()),
            ("jobs", self.jobs.to_string()),
            ("seed", self.seed.to_string()),
            ("max_gpus", self.max_gpus.to_string()),
            ("mean_gap", format!("{:?}", self.mean_gap)),
            ("gang_share", format!("{:?}", self.gang_share)),
            ("users", self.users.to_string()),
            ("user_skew", format!("{:?}", self.user_skew)),
        ]
    }

    /// Read the [`TraceConfig::spec_pairs`] written under `prefix`, each
    /// held to what the builder methods assert: at least one job,
    /// `1..=`[`MAX_GPUS_PER_NODE`] GPUs, a positive finite mean gap and
    /// user skew, a gang share in `0..=1` and at most [`MAX_USERS`]
    /// tenants.
    ///
    /// # Errors
    /// [`CheckpointError::Invalid`] (in the spec's format) on a missing
    /// key or a value out of range.
    pub fn from_spec(spec: &mut Spec<'_>, prefix: &str) -> Result<Self, CheckpointError> {
        let key = |field: &str| format!("{prefix}{field}");
        Ok(Self {
            kind: spec.get_with(&key("kind"), TraceKind::parse)?,
            jobs: spec.get_in(&key("jobs"), 1..)?,
            seed: spec.get(&key("seed"))?,
            max_gpus: spec.get_in(&key("max_gpus"), 1..=MAX_GPUS_PER_NODE)?,
            mean_gap: spec.get_in(&key("mean_gap"), POSITIVE_FINITE)?,
            gang_share: spec.get_in(&key("gang_share"), 0.0..=1.0)?,
            users: spec.get_in(&key("users"), 0..=MAX_USERS)?,
            user_skew: spec.get_in(&key("user_skew"), POSITIVE_FINITE)?,
        })
    }
}

/// The per-job GPU bound a trace is held to: a job's GPU count is a
/// `u16`, and no node is wider than [`MAX_GPUS_PER_NODE`].
fn assert_max_gpus(max_gpus: usize) {
    assert!(
        (1..=MAX_GPUS_PER_NODE).contains(&max_gpus),
        "max_gpus must lie in 1..={MAX_GPUS_PER_NODE}, got {max_gpus}"
    );
}

/// Default Zipf exponent for tenant popularity: skewed enough that the
/// head tenant submits a multiple of anyone else's jobs, flat enough
/// that every tenant appears in modest traces.
pub const DEFAULT_USER_SKEW: f64 = 1.4;

/// Most tenants a trace or load generator may tag arrivals with:
/// [`user_popularity`] sizes its table from the count, so the count is
/// bounded wherever it comes from outside (the `--users` flag, an
/// `HRPS` spec).
pub const MAX_USERS: u32 = 65_536;

/// Salt decoupling the tenant draw from the [`TraceConfig::gang_share`]
/// widening hash (both are keyed on `(seed, job.id)`).
const USER_SALT: u64 = 0x7e9a_1b5c_3d2f_4e61;

/// Cumulative Zipf(`skew`) popularity table over `users` tenants —
/// the sampling table behind [`assign_user`]. Empty when `users < 2`
/// (tagging disabled / single tenant).
#[must_use]
pub fn user_popularity(users: u32, skew: f64) -> Vec<f64> {
    if users < 2 {
        return Vec::new();
    }
    assert!(
        skew.is_finite() && skew > 0.0,
        "user_skew must be positive and finite, got {skew}"
    );
    let mut acc = 0.0;
    (1..=users)
        .map(|rank| {
            acc += 1.0 / f64::from(rank).powf(skew);
            acc
        })
        .collect()
}

/// Tag one job with its tenant: a pure function of `(seed, job.id)`
/// through a salted [`SplitMix64`] draw mapped onto the cumulative
/// popularity table from [`user_popularity`]. With an empty table the
/// job keeps `user: 0`.
pub fn assign_user(seed: u64, popularity: &[f64], job: &mut ClusterJob) {
    if popularity.is_empty() {
        return;
    }
    let key = seed ^ USER_SALT ^ SplitMix64::new(job.id as u64).next_u64();
    // A uniform draw in [0, total mass).
    let u = SplitMix64::new(key).next_f64() * popularity[popularity.len() - 1];
    let rank = popularity
        .partition_point(|&c| c <= u)
        .min(popularity.len() - 1);
    job.user = u32::try_from(rank).expect("at most MAX_USERS tenants");
}

/// Apply the [`TraceConfig::gang_share`] widening to one job. A pure
/// function of `(cfg.seed, job.id)` — no generator state — so the
/// arrival/mix RNG draws are exactly those of a `gang_share = 0` run.
fn widen_to_gang(cfg: &TraceConfig, job: &mut ClusterJob) {
    if cfg.gang_share <= 0.0 || cfg.max_gpus < 2 || job.gpus != 1 {
        return;
    }
    let key = cfg.seed ^ SplitMix64::new(job.id as u64).next_u64();
    if SplitMix64::new(key).next_f64() < cfg.gang_share {
        let h = SplitMix64::new(key).next_u64();
        let extra = SplitMix64::new(h).next_u64() % (cfg.max_gpus as u64 - 1);
        job.gpus = 2 + u16::try_from(extra).expect("max_gpus is at most MAX_GPUS_PER_NODE");
    }
}

/// Generate the trace a [`TraceConfig`] describes: [`stream`],
/// collected. Deterministic: arrivals are non-decreasing, exactly
/// `cfg.jobs` jobs are emitted, and every job requests
/// `1..=cfg.max_gpus` GPUs.
///
/// # Panics
/// Panics if `cfg.jobs` is 0, `cfg.max_gpus` is outside
/// `1..=`[`MAX_GPUS_PER_NODE`], or `cfg.mean_gap` is not a positive
/// finite number.
#[must_use]
pub fn generate(suite: &Suite, cfg: &TraceConfig) -> Vec<ClusterJob> {
    stream(suite, cfg).collect()
}

/// Uniform inter-arrival gap in `[0, 2 × mean_gap)`.
fn uniform_gap(cfg: &TraceConfig, rng: &mut SmallRng) -> f64 {
    rng.gen_range(0.0..2.0 * cfg.mean_gap)
}

/// Benchmark indices ranked by descending solo time: Zipf rank 0 (the
/// most popular kind) is the longest-running job, which is what turns
/// popularity skew into work skew.
fn ranks_by_solo_time(suite: &Suite) -> Vec<usize> {
    let mut ranks: Vec<usize> = (0..suite.len()).collect();
    ranks.sort_by(|&a, &b| {
        suite
            .by_index(b)
            .app
            .solo_time
            .total_cmp(&suite.by_index(a).app.solo_time)
            .then(a.cmp(&b))
    });
    ranks
}

/// Draw a rank from Zipf(`s`) over `n` ranks via the cumulative table.
fn zipf_rank(cumulative: &[f64], rng: &mut SmallRng) -> usize {
    let u = rng.gen_range(0.0..cumulative[cumulative.len() - 1]);
    cumulative
        .partition_point(|&c| c <= u)
        .min(cumulative.len() - 1)
}

/// Per-kind generator state of a [`TraceStream`]: what a kind keeps
/// between jobs, and nothing sized by the job count.
enum StreamState {
    Uniform,
    Bursty {
        burst_size: usize,
        burst_left: usize,
    },
    Skewed {
        ranks: Vec<usize>,
        cumulative: Vec<f64>,
        clump_size: usize,
        clump_left: usize,
    },
    HeavyTail {
        /// Benchmarks sorted by solo time for nearest-duration lookup.
        by_time: Vec<(f64, usize)>,
        x_min: f64,
    },
    Colocate,
    Staggered,
}

/// The trace generator — the only place a kind's RNG draws are
/// written. Yields one job at a time in O(1) memory, so million-job
/// traces never need a `Vec` just to be walked (every kind's draws are
/// pinned by digest in this module's tests, and the stream is
/// exercised at the 1M boundary).
///
/// Built by [`stream`]; an [`ExactSizeIterator`] over `cfg.jobs` jobs.
pub struct TraceStream<'a> {
    suite: &'a Suite,
    cfg: TraceConfig,
    rng: SmallRng,
    t: f64,
    next_id: usize,
    state: StreamState,
    popularity: Vec<f64>,
}

/// Stream the trace a [`TraceConfig`] describes, job by job, without
/// materialising it (see [`TraceStream`]).
///
/// # Panics
/// Panics if `cfg.jobs` is 0, `cfg.max_gpus` is outside
/// `1..=`[`MAX_GPUS_PER_NODE`], or `cfg.mean_gap` is not a positive
/// finite number.
#[must_use]
pub fn stream<'a>(suite: &'a Suite, cfg: &TraceConfig) -> TraceStream<'a> {
    assert!(cfg.jobs >= 1, "a trace needs at least one job");
    assert_max_gpus(cfg.max_gpus);
    assert!(
        cfg.mean_gap.is_finite() && cfg.mean_gap > 0.0,
        "mean_gap must be positive and finite, got {}",
        cfg.mean_gap
    );
    let state = match cfg.kind {
        TraceKind::Uniform => StreamState::Uniform,
        TraceKind::Bursty => StreamState::Bursty {
            burst_size: 0,
            burst_left: 0,
        },
        TraceKind::Skewed => {
            const ZIPF_S: f64 = 1.4;
            let ranks = ranks_by_solo_time(suite);
            let mut cumulative = Vec::with_capacity(ranks.len());
            let mut acc = 0.0;
            for r in 0..ranks.len() {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                cumulative.push(acc);
            }
            StreamState::Skewed {
                ranks,
                cumulative,
                clump_size: 0,
                clump_left: 0,
            }
        }
        TraceKind::HeavyTail => {
            let mut by_time: Vec<(f64, usize)> = (0..suite.len())
                .map(|i| (suite.by_index(i).app.solo_time, i))
                .collect();
            by_time.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let x_min = by_time[0].0;
            StreamState::HeavyTail { by_time, x_min }
        }
        TraceKind::Colocate => StreamState::Colocate,
        TraceKind::Staggered => StreamState::Staggered,
    };
    TraceStream {
        suite,
        cfg: cfg.clone(),
        rng: SmallRng::seed_from_u64(cfg.seed),
        t: 0.0,
        next_id: 0,
        state,
        popularity: user_popularity(cfg.users, cfg.user_skew),
    }
}

impl Iterator for TraceStream<'_> {
    type Item = ClusterJob;

    fn next(&mut self) -> Option<ClusterJob> {
        if self.next_id >= self.cfg.jobs {
            return None;
        }
        let (suite, cfg, rng) = (self.suite, &self.cfg, &mut self.rng);
        let i = self.next_id;
        let remaining = cfg.jobs - i;
        let mut job = match &mut self.state {
            StreamState::Uniform => {
                let bench = rng.gen_range(0..suite.len());
                let job = ClusterJob::indexed(i, bench, self.t, 1);
                self.t += uniform_gap(cfg, rng);
                job
            }
            StreamState::Bursty {
                burst_size,
                burst_left,
            } => {
                if *burst_left == 0 {
                    *burst_size = rng.gen_range(2usize..6).min(remaining);
                    *burst_left = *burst_size;
                }
                let bench = rng.gen_range(0..suite.len());
                let job = ClusterJob::indexed(i, bench, self.t, 1);
                *burst_left -= 1;
                if *burst_left == 0 {
                    // The burst's whole arrival budget lands on the gap
                    // after it, so the long-run rate matches the
                    // uniform kind.
                    self.t += *burst_size as f64 * cfg.mean_gap * rng.gen_range(0.5..1.5);
                }
                job
            }
            StreamState::Skewed {
                ranks,
                cumulative,
                clump_size,
                clump_left,
            } => {
                if *clump_left == 0 {
                    // Mild clumping: pairs or triples share an arrival
                    // instant, so the popular (long) kinds arrive back
                    // to back.
                    *clump_size = rng.gen_range(1usize..4).min(remaining);
                    *clump_left = *clump_size;
                }
                let bench = ranks[zipf_rank(cumulative, rng)];
                let job = ClusterJob::indexed(i, bench, self.t, 1);
                *clump_left -= 1;
                if *clump_left == 0 {
                    self.t += *clump_size as f64 * cfg.mean_gap * rng.gen_range(0.5..1.5);
                }
                job
            }
            StreamState::HeavyTail { by_time, x_min } => {
                const PARETO_ALPHA: f64 = 1.1;
                // Pareto(x_min, α), truncated at the suite's longest job
                // by the nearest-benchmark mapping.
                let u: f64 = rng.gen_range(0.0..1.0);
                let x = *x_min * (1.0 - u).powf(-1.0 / PARETO_ALPHA);
                let p = by_time.partition_point(|&(t, _)| t < x);
                let bench = match (by_time.get(p.wrapping_sub(1)), by_time.get(p)) {
                    (Some(&(lo, lo_i)), Some(&(hi, hi_i))) => {
                        if x - lo <= hi - x {
                            lo_i
                        } else {
                            hi_i
                        }
                    }
                    (Some(&(_, i)), None) | (None, Some(&(_, i))) => i,
                    (None, None) => unreachable!("suite is non-empty"),
                };
                let job = ClusterJob::indexed(i, bench, self.t, 1);
                self.t += uniform_gap(cfg, rng);
                job
            }
            StreamState::Colocate => {
                let bench = rng.gen_range(0..suite.len());
                // Roughly a third of the mix gang-schedules wide; the
                // rest are single-GPU fillers the co-scheduler can pack
                // around them. Draw both values unconditionally so the
                // stream position — and therefore the rest of the
                // trace — does not depend on max_gpus.
                let wide = rng.gen_bool(0.35);
                let width = (rng.gen_range(2u32..5) as usize).min(cfg.max_gpus);
                let gpus = if wide { width.max(1) } else { 1 };
                let job = ClusterJob::indexed(i, bench, self.t, gpus);
                self.t += uniform_gap(cfg, rng);
                job
            }
            StreamState::Staggered => {
                let gpus = if i % 9 == 8 { 2 } else { 1 };
                let arrival = (i / 4) as f64 * 5.0;
                ClusterJob::indexed(i, (i * 7) % suite.len(), arrival, gpus.min(cfg.max_gpus))
            }
        };
        widen_to_gang(cfg, &mut job);
        assign_user(cfg.seed, &self.popularity, &mut job);
        self.next_id += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.jobs - self.next_id;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// FNV-1a over `(id, bench, arrival bits, gpus, user)` of every job.
    fn trace_digest(jobs: &[ClusterJob]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for j in jobs {
            for word in [
                j.id as u64,
                u64::from(j.bench),
                j.arrival.to_bits(),
                u64::from(j.gpus),
                u64::from(j.user),
            ] {
                for b in word.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    // The pinned configurations: every kind × job count × gang share ×
    // tenant count, at one seed and a 4-GPU bound.
    const PIN_JOBS: [usize; 3] = [1, 7, 1000];
    const PIN_GANG: [f64; 2] = [0.0, 0.25];
    const PIN_USERS: [u32; 2] = [0, 3];

    fn pin_cfg(kind: TraceKind, jobs: usize, gang: f64, users: u32) -> TraceConfig {
        TraceConfig::new(kind, jobs, 123)
            .max_gpus(4)
            .gang_share(gang)
            .users(users)
    }

    /// `PINNED[kind][jobs]` (axes: [`TRACE_KINDS`], `PIN_JOBS`) holds the
    /// four `(gang, users)` corners in the order `(0, 0)`, `(0, 3)`,
    /// `(0.25, 0)`, `(0.25, 3)`: [`trace_digest`] of
    /// `generate(pin_cfg(..))`, captured on the parent commit (PR 17)
    /// from the materialising generators this module used to carry
    /// beside the stream. They are what keeps a moved draw visible now
    /// that there is no second implementation to compare against —
    /// never re-pin to "fix" one.
    #[rustfmt::skip]
    const PINNED: [[[u64; 4]; 3]; 6] = [
        // uniform
        [
            [0xeab89525d665bd17, 0xcbbdce1ccb7672f6, 0xeab89525d665bd17, 0xcbbdce1ccb7672f6],
            [0x1988c6048fbe45dc, 0xf8d2b793e538150f, 0x6dffbd176aa9200d, 0xfdc916943afba78e],
            [0xc4729267d767cdfa, 0x62333e1d2034b085, 0x7cd833d45cc21ab5, 0x38accab1e7ccd602],
        ],
        // bursty
        [
            [0x7cdab3b16ae3d11e, 0x9bd57aba75d31b3f, 0x7cdab3b16ae3d11e, 0x9bd57aba75d31b3f],
            [0x21c77510c68f6ea8, 0xd16e5f94c6c2336f, 0x745e2efb20625905, 0x2b6802ce366d925a],
            [0xff1665736b54eb8f, 0x7b91d2fb82d98808, 0x84e541af1392e2b8, 0xa5e9a0dede16d2a7],
        ],
        // skewed
        [
            [0x4763b6af0d454c14, 0x665e7db818349635, 0x4763b6af0d454c14, 0x665e7db818349635],
            [0x974195ca1d40d30c, 0xd57f4f8344891caf, 0x553d3a9c04673b51, 0x67b3e1a03a2238aa],
            [0x66f400e8fa4485aa, 0x8b69e1dd3b332b65, 0x3534e79e73aae969, 0xf97e50e5d33d9a0e],
        ],
        // heavy-tail
        [
            [0xaa90325632dab70b, 0x8b956b4d27eb6cea, 0xaa90325632dab70b, 0x8b956b4d27eb6cea],
            [0xf48ab78ba9090a21, 0xae96d2dd8b48e7a2, 0xec66c665ca106398, 0x6fdc491ab1859ccb],
            [0xcd30712fe2475acc, 0xe4d791edd1ccfcc3, 0x797c0305919460a3, 0x5396c4acdb3630c4],
        ],
        // colocate
        [
            [0xeab89525d665bd17, 0xcbbdce1ccb7672f6, 0xeab89525d665bd17, 0xcbbdce1ccb7672f6],
            [0xf49907abdf5cc8a3, 0x6b136fba13d72964, 0xf49907abdf5cc8a3, 0x6b136fba13d72964],
            [0x08444e39b3c88ffb, 0xa115845da52c2d20, 0x3121c33574d101a8, 0xdb4c3c9ed9a23ba3],
        ],
        // staggered
        [
            [0xf1d88844dde14404, 0x10d34f4de8d08e25, 0xf1d88844dde14404, 0x10d34f4de8d08e25],
            [0xfc9126428f788a8d, 0xd86f4887a7947a0e, 0x4b52a6f92b429428, 0xca56534737078bab],
            [0xbbf64326898b5815, 0x9fef2a5aea770dea, 0xb5979320428c38a9, 0xe423f9bf16a57d5e],
        ],
    ];

    /// Position of a pinned value on its axis.
    fn axis<T: PartialEq>(values: &[T], value: T) -> usize {
        values
            .iter()
            .position(|v| *v == value)
            .expect("a pinned value")
    }

    /// The trace of one pinned configuration, checked against its
    /// [`PINNED`] digest on the way out.
    fn pinned_trace(
        s: &Suite,
        kind: TraceKind,
        jobs: usize,
        gang: f64,
        users: u32,
    ) -> Vec<ClusterJob> {
        let trace: Vec<ClusterJob> = stream(s, &pin_cfg(kind, jobs, gang, users)).collect();
        assert_eq!(trace.len(), jobs);
        let corner = 2 * axis(&PIN_GANG, gang) + axis(&PIN_USERS, users);
        let pinned = PINNED[axis(&TRACE_KINDS, kind)][axis(&PIN_JOBS, jobs)][corner];
        assert_eq!(
            trace_digest(&trace),
            pinned,
            "{} draws moved: jobs={jobs} gang_share={gang} users={users}",
            kind.name()
        );
        trace
    }

    #[test]
    fn every_kind_generates_exactly_the_requested_jobs() {
        let s = suite();
        for kind in TRACE_KINDS {
            for n in [1usize, 7, 24] {
                let trace = generate(&s, &TraceConfig::new(kind, n, 11));
                assert_eq!(trace.len(), n, "{}", kind.name());
                assert!(
                    trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                    "{}: arrivals must be non-decreasing",
                    kind.name()
                );
                assert!(
                    trace.iter().all(|j| j.gpus >= 1 && j.gpus <= 2),
                    "{}: GPU bound",
                    kind.name()
                );
                assert!(
                    trace.iter().enumerate().all(|(i, j)| j.id == i),
                    "{}: ids are dense",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_config() {
        let s = suite();
        for kind in TRACE_KINDS {
            let cfg = TraceConfig::new(kind, 16, 77);
            assert_eq!(generate(&s, &cfg), generate(&s, &cfg), "{}", kind.name());
        }
        // Different seeds actually move the seeded kinds.
        let a = generate(&s, &TraceConfig::new(TraceKind::Skewed, 16, 1));
        let b = generate(&s, &TraceConfig::new(TraceKind::Skewed, 16, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn skewed_popularity_concentrates_work_on_few_kinds() {
        let s = suite();
        let trace = generate(&s, &TraceConfig::new(TraceKind::Skewed, 200, 5));
        let mut counts = vec![0usize; s.len()];
        for j in &trace {
            counts[usize::from(j.bench)] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top3: usize = sorted[..3].iter().sum();
        assert!(
            top3 * 2 > trace.len(),
            "Zipf head should carry most arrivals: top-3 = {top3}/200"
        );
        // And the head is long-running: the most popular kind is the
        // suite's longest benchmark.
        let top_kind = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        let max_solo = (0..s.len())
            .map(|i| s.by_index(i).app.solo_time)
            .fold(0.0, f64::max);
        assert_eq!(s.by_index(top_kind).app.solo_time, max_solo);
    }

    #[test]
    fn heavy_tail_work_is_dominated_by_the_longest_jobs() {
        let s = suite();
        let trace = generate(&s, &TraceConfig::new(TraceKind::HeavyTail, 200, 9));
        let mut works: Vec<f64> = trace.iter().map(|j| j.solo_time(&s)).collect();
        works.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = works.iter().sum();
        let top_fifth: f64 = works[..40].iter().sum();
        assert!(
            top_fifth > 0.4 * total,
            "top 20% of jobs should carry >40% of work: {top_fifth:.1}/{total:.1}"
        );
    }

    #[test]
    fn colocate_mixes_wide_and_narrow_jobs() {
        let s = suite();
        let trace = generate(
            &s,
            &TraceConfig::new(TraceKind::Colocate, 60, 3).max_gpus(4),
        );
        let wide = trace.iter().filter(|j| j.gpus > 1).count();
        assert!(wide > 5, "expect a real multi-GPU share, got {wide}");
        assert!(trace.iter().all(|j| j.gpus <= 4));
        // With max_gpus = 1 the same config degrades to all-narrow but
        // keeps the identical arrival/benchmark stream.
        let narrow = generate(
            &s,
            &TraceConfig::new(TraceKind::Colocate, 60, 3).max_gpus(1),
        );
        assert!(narrow.iter().all(|j| j.gpus == 1));
        assert_eq!(
            trace
                .iter()
                .map(|j| j.arrival.to_bits())
                .collect::<Vec<_>>(),
            narrow
                .iter()
                .map(|j| j.arrival.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn bursty_traces_share_arrival_instants() {
        let s = suite();
        let trace = generate(&s, &TraceConfig::new(TraceKind::Bursty, 30, 4));
        let shared = trace
            .windows(2)
            .filter(|w| w[0].arrival.to_bits() == w[1].arrival.to_bits())
            .count();
        assert!(shared >= 10, "bursts should clump arrivals: {shared}");
    }

    #[test]
    fn user_tagging_skews_tenants_without_touching_the_trace() {
        let s = suite();
        for kind in [TraceKind::Bursty, TraceKind::Skewed] {
            // 1 000 jobs over three tenants; the tags are pinned too.
            let jobs = pinned_trace(&s, kind, 1000, 0.0, 3);
            // Zipf head: tenant 0 submits the most, every tenant shows up.
            let mut counts = [0usize; 3];
            for j in &jobs {
                counts[j.user as usize] += 1;
            }
            assert!(
                counts[0] > 2 * counts[2],
                "tenant 0 should dominate: {counts:?}"
            );
            assert!(
                counts.iter().all(|&c| c > 0),
                "all tenants appear: {counts:?}"
            );
            // Tagging is layered after generation: the untagged config
            // yields the bit-identical trace apart from `user`.
            let untagged = pinned_trace(&s, kind, 1000, 0.0, 0);
            assert!(untagged.iter().all(|j| j.user == 0));
            for (a, b) in jobs.iter().zip(&untagged) {
                assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
                assert_eq!((a.id, a.bench, a.gpus), (b.id, b.bench, b.gpus));
            }
        }
    }

    #[test]
    fn single_tenant_configs_stay_untagged() {
        let s = suite();
        let jobs = generate(&s, &TraceConfig::new(TraceKind::Uniform, 50, 3).users(1));
        assert!(jobs.iter().all(|j| j.user == 0));
    }

    #[test]
    #[should_panic(expected = "user_skew")]
    fn non_finite_user_skew_is_rejected() {
        let _ = TraceConfig::new(TraceKind::Uniform, 10, 1).user_skew(f64::NAN);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TRACE_KINDS {
            assert_eq!(TraceKind::parse(kind.name()), Ok(kind));
        }
        for alias in ["zipf", "heavytail", "co-locate"] {
            assert_eq!(TraceKind::parse(alias), Err(alias.to_owned()));
        }
        assert_eq!(TraceKind::parse("random"), Err("random".to_owned()));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_traces_are_rejected() {
        let _ = generate(&suite(), &TraceConfig::new(TraceKind::Uniform, 0, 1));
    }

    #[test]
    fn streaming_generation_is_bit_identical_to_materialising() {
        // The materialising generators are gone; what they produced is
        // `PINNED`. The stream must still make their RNG draws in their
        // order — every digest covers the arrival bits — and `generate`
        // must be that stream, collected.
        let s = suite();
        for kind in TRACE_KINDS {
            for jobs in PIN_JOBS {
                for gang in PIN_GANG {
                    for users in PIN_USERS {
                        let streamed = pinned_trace(&s, kind, jobs, gang, users);
                        let cfg = pin_cfg(kind, jobs, gang, users);
                        assert_eq!(generate(&s, &cfg), streamed, "{}", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn gang_share_widens_jobs_without_touching_the_arrival_process() {
        // The widening pass is a stateless per-id hash layered *after*
        // generation: arrivals, benchmark picks, and job ids must stay
        // bit-identical to the share-0 trace, only widths may change.
        let s = suite();
        for kind in TRACE_KINDS {
            let base = pinned_trace(&s, kind, 1000, 0.0, 0);
            let gangs = pinned_trace(&s, kind, 1000, 0.25, 0);
            let mut widened = 0usize;
            let mut narrow = 0usize;
            for (a, b) in base.iter().zip(&gangs) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.bench, b.bench);
                assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
                if a.gpus == 1 {
                    narrow += 1;
                    if b.gpus != 1 {
                        assert!((2..=4).contains(&b.gpus), "widened into a gang");
                        widened += 1;
                    }
                } else {
                    assert_eq!(a.gpus, b.gpus, "only 1-GPU jobs are eligible");
                }
            }
            // The hash is uniform: the widened share lands near 0.25.
            let got = widened as f64 / narrow.max(1) as f64;
            assert!(
                narrow < 50 || (0.15..=0.35).contains(&got),
                "{}: widened {widened}/{narrow}",
                kind.name()
            );
        }
    }

    #[test]
    fn million_job_boundary_streams_without_materialising() {
        // The 1M-job scale audit's regression pin: ids stay dense,
        // arrivals non-decreasing (compared via total_cmp, as the
        // simulator orders them), and times/ids never wrap — all
        // checked in O(1) memory straight off the stream.
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 1_000_001, 77).mean_gap(0.001);
        let mut expected_id = 0usize;
        let mut last_arrival = f64::NEG_INFINITY;
        for job in stream(&s, &cfg) {
            assert_eq!(job.id, expected_id);
            assert!(job.arrival.total_cmp(&last_arrival).is_ge());
            assert!(job.arrival.is_finite());
            last_arrival = job.arrival;
            expected_id += 1;
        }
        assert_eq!(expected_id, 1_000_001, "exactly the requested jobs");
        assert!(last_arrival > 0.0);
    }

    #[test]
    fn stream_reports_an_exact_size() {
        let s = suite();
        let mut it = stream(&s, &TraceConfig::new(TraceKind::Uniform, 10, 1));
        assert_eq!(it.len(), 10);
        let _ = it.next();
        assert_eq!(it.len(), 9);
    }
}
