//! One hostile-bytes harness for all four checkpoint formats, plus the
//! goldens that keep their writers byte-identical.
//!
//! `HRPQ` weights nest inside the `HRPE` / `HRPP` agents, and an `HRPP`
//! nests inside the `HRPS` live snapshot; all four are read by the one
//! codec in `hrp-nn::serialize`. For one blob per format at fixed
//! seeds — `HRPS` taken mid-run under least-loaded, round-robin, EASY +
//! admission with a non-empty deferred queue, and a policy agent (so
//! the nested `HRPS` → `HRPP` → `HRPQ` path is swept too) — this file
//! checks that
//!
//! * the untouched blob decodes and re-encodes to the identical bytes,
//!   and those bytes are the ones the parent commit's writers produced
//!   (length + FNV-1a digest captured there, before any writer moved);
//! * every truncation is a typed error;
//! * every byte set to `0x00`, `0xff`, `^0x01`, `^0x80`, every
//!   four-byte window (so every `u32` length prefix) set to `u32::MAX`,
//!   and a fixed number of seeded draws of 2–4 bytes damaged at once,
//!   decodes to `Ok` or a typed error — never a panic, never an abort;
//! * the largest single allocation any of those decodes requests stays
//!   under a stated constant plus a small multiple of the blob length,
//!   i.e. is never sized by a length or geometry field the bytes
//!   present cannot back.
//!
//! The recording `#[global_allocator]` of `tests/common/alloc.rs` takes
//! the last measurement; it also *refuses* absurd requests while armed,
//! so a decoder that does trust a forged size aborts this test binary
//! instead of exhausting the machine.

mod common;
use common::alloc::{largest_request, RecordingAlloc};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

use hrp::cluster::place::{PlacementAgent, PlacementConfig, PlacementExperiment};
use hrp::cluster::{SelectorKind, TraceConfig, TraceKind};
use hrp::core::rl::EnvKind;
use hrp::core::train::{train, TrainConfig, TrainedAgent};
use hrp::gpusim::GpuArch;
use hrp::nn::net::{Head, QNet};
use hrp::nn::serialize::{load_weights, save_weights};
use hrp::nn::{DqnAgent, DqnConfig};
use hrp::serve::{
    restore, AdmissionConfig, CheckpointError, SchedulerService, ServeConfig, ServiceStep,
    TraceSource,
};
use hrp::workloads::Suite;

#[global_allocator]
static GLOBAL: RecordingAlloc = RecordingAlloc;

// ---- one blob per format, at fixed seeds --------------------------

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

/// FNV-1a over the blob: the same digest family the timeline uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hrpq_blob() -> Vec<u8> {
    save_weights(&QNet::new(6, &[8], 3, Head::Dueling, 5))
}

fn hrpe_blob(suite: &Suite) -> Vec<u8> {
    let cfg = TrainConfig {
        w: 3,
        hidden: vec![4],
        episodes: 4,
        seed: 7,
        ..TrainConfig::quick()
    };
    train(suite, cfg).0.save_bytes()
}

fn placement_agent() -> PlacementAgent {
    let mut cfg = PlacementConfig::quick();
    cfg.nodes = 2;
    cfg.hidden = vec![4];
    PlacementAgent::untrained(cfg)
}

fn hrpp_blob() -> Vec<u8> {
    placement_agent().save_bytes()
}

/// Which selector tier a mid-run `HRPS` blob is taken from.
#[derive(Clone, Copy, Debug)]
enum Tier {
    LeastLoaded,
    RoundRobin,
    /// EASY backfilling behind an admission tier whose quota of 1
    /// leaves jobs parked in the deferred queue at the cut.
    EasyAdmission,
    Policy,
}

const TIERS: [Tier; 4] = [
    Tier::LeastLoaded,
    Tier::RoundRobin,
    Tier::EasyAdmission,
    Tier::Policy,
];

/// A 2 × 2 service stepped to the middle of a 20-job bursty trace and
/// checkpointed there, so the body carries running placements, waiting
/// queues, undrained events and (per tier) a cursor, release bookings,
/// fair-share state with a non-empty deferred queue, or an agent.
fn hrps_blob(suite: &Suite, tier: Tier) -> Vec<u8> {
    let mut trace = TraceConfig::new(TraceKind::Bursty, 20, 3).gang_share(0.25);
    let mut cfg = ServeConfig::new(2, 2);
    if matches!(tier, Tier::EasyAdmission) {
        trace = trace.users(3);
        cfg = cfg
            .walltime_err(0.25)
            .admission(AdmissionConfig::new().quota(1).slo(50.0));
    }
    let source = TraceSource::new(suite, trace);
    let mut svc = match tier {
        Tier::LeastLoaded => SchedulerService::new(suite, cfg, SelectorKind::LeastLoaded, source),
        Tier::RoundRobin => SchedulerService::new(suite, cfg, SelectorKind::RoundRobin, source),
        Tier::EasyAdmission => SchedulerService::new(suite, cfg, SelectorKind::Easy, source),
        Tier::Policy => SchedulerService::with_agent(suite, cfg, placement_agent(), source),
    };
    while svc.consumed() < 10 {
        let _ = svc.step();
    }
    if matches!(tier, Tier::EasyAdmission) {
        assert!(svc.deferred_jobs() > 0, "the cut must catch parked jobs");
    }
    svc.checkpoint().expect("a trace source checkpoints")
}

/// Decode a blob and, when it decodes, re-encode what came back. The
/// error is kept as text: the harness only needs "typed, not a panic".
type Decode = fn(&Suite, Vec<u8>) -> Result<Vec<u8>, String>;

fn decode_hrpq(_: &Suite, blob: Vec<u8>) -> Result<Vec<u8>, String> {
    let mut net = QNet::new(6, &[8], 3, Head::Dueling, 99);
    load_weights(&mut net, &blob).map_err(|e| e.to_string())?;
    Ok(save_weights(&net))
}

fn decode_hrpe(suite: &Suite, blob: Vec<u8>) -> Result<Vec<u8>, String> {
    let agent = TrainedAgent::load_bytes(blob, suite).map_err(|e| e.to_string())?;
    Ok(agent.save_bytes())
}

fn decode_hrpp(_: &Suite, blob: Vec<u8>) -> Result<Vec<u8>, String> {
    let agent = PlacementExperiment::load_bytes(blob).map_err(|e| e.to_string())?;
    Ok(agent.save_bytes())
}

fn decode_hrps(suite: &Suite, blob: Vec<u8>) -> Result<Vec<u8>, String> {
    let service = restore(suite, blob).map_err(|e| e.to_string())?;
    service.checkpoint().map_err(|e| e.to_string())
}

/// Every swept blob: name, bytes, decoder.
fn corpus(suite: &Suite) -> Vec<(String, Vec<u8>, Decode)> {
    let mut all: Vec<(String, Vec<u8>, Decode)> = vec![
        ("HRPQ".into(), hrpq_blob(), decode_hrpq),
        ("HRPE".into(), hrpe_blob(suite), decode_hrpe),
        ("HRPP".into(), hrpp_blob(), decode_hrpp),
    ];
    for tier in TIERS {
        all.push((
            format!("HRPS {tier:?}"),
            hrps_blob(suite, tier),
            decode_hrps,
        ));
    }
    all
}

// ---- byte identity ------------------------------------------------

/// `(name, length, FNV-1a)` of every corpus blob, captured on the
/// parent commit (PR 16) before any writer was touched. These must not
/// move: they are what keeps `serve.checkpoint.bytes` and every CI
/// kill/restore digest fixed. `HRPP` and the policy-tier `HRPS` that
/// embeds it were re-captured once, when `HRPP` v2 dropped six spec
/// keys (PR 22: 721 → 600 and 2 057 → 1 936 bytes, 121 fewer each). The
/// four `HRPS` pins were re-captured once more when `HRPS` v3 retired
/// its cycle-mode and karma-half-life spec lines (PR 23: 17 bytes fewer
/// each, 36 for the admission blob; each new blob is the parent's with
/// those lines cut and the version word bumped, byte for byte — the
/// admission one against the parent run at the now-constant 300 s). And
/// once more when `HRPS` v4 stopped writing what a node's event log
/// already says and what no advance reservation fills (PR 25: 1 437 →
/// 1 333, 1 449 → 1 345, 1 476 → 1 410, 1 919 → 1 799; each new blob is
/// the parent's with those fields cut and the version word set to 4,
/// byte for byte). And once more when `HRPS` v5 stopped writing the
/// load snapshots and the five counters its node records determine
/// (1 333 → 1 216, 1 345 → 1 228, 1 410 → 1 295, 1 799 → 1 682; again
/// the parent's blob with those fields cut and the version word set to
/// 5, byte for byte). `HRPP` and the policy-tier `HRPS` were re-captured
/// once more when `HRPP` v3 made fourteen training and node-window keys
/// constants (600 → 410 and 1 682 → 1 492 bytes): each new blob is the
/// parent's with those fourteen spec lines cut and the `HRPP` version
/// word set to 3, byte for byte. `HRPE` was re-captured once, when v2
/// dropped the co-run engine's three keys and the `overlap` / `shards`
/// lines (1 826 → 1 707 bytes): the new blob is the parent's with those
/// five spec lines cut and the version word set to 2, byte for byte. And
/// the four `HRPS` pins once more when `HRPS` v6 stopped writing the four
/// node counters its event log determines, the `has_agent` and
/// `rr_cursor` spec lines its selector and decision count determine, and
/// the fair-share clock, sequence and in-flight list its last cycle,
/// decision count and releases determine (1 216 → 1 140, 1 228 → 1 139,
/// 1 295 → 1 175, 1 492 → 1 416; each new blob is the parent's with those
/// fields and lines cut, the spec length fixed and the version word set
/// to 6, byte for byte).
const GOLDEN: [(&str, usize, u64); 7] = [
    ("HRPQ", 380, 0x168e_3209_c0ac_404a),
    ("HRPE", 1707, 0xc7fd_8473_55a1_b769),
    ("HRPP", 410, 0xa56b_e318_6de6_28a5),
    ("HRPS LeastLoaded", 1140, 0x6a9e_826b_115a_8cfb),
    ("HRPS RoundRobin", 1139, 0x8ee5_2fc5_03d4_b7b0),
    ("HRPS EasyAdmission", 1175, 0x9a78_c1d4_6182_a166),
    ("HRPS Policy", 1416, 0xb9a1_c5a1_fd2b_1a9d),
];

#[test]
fn every_writer_is_byte_identical_to_the_parent_commit() {
    let s = suite();
    let got: Vec<(String, usize, u64)> = corpus(&s)
        .into_iter()
        .map(|(name, blob, _)| (name, blob.len(), fnv1a(&blob)))
        .collect();
    for ((name, len, digest), (want_name, want_len, want_digest)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(
            (*len, *digest),
            (want_len, want_digest),
            "{name}: got {len} bytes, digest 0x{digest:016x}"
        );
    }
}

#[test]
fn untouched_blobs_decode_and_re_encode_to_the_identical_bytes() {
    let s = suite();
    for (name, blob, decode) in corpus(&s) {
        assert_eq!(decode(&s, blob.clone()), Ok(blob), "{name}");
    }
}

// ---- the hostile sweep ----------------------------------------------

/// The stated constant of the allocation bound. The largest fixed-size
/// request of a *successful* decode is a replay ring's pre-allocation
/// (4 096 transitions, ≈ 300 KiB), made after the weights checked out.
const ALLOC_FLOOR: usize = 512 * 1024;
/// ... plus this multiple of the blob length (decoded records are a few
/// times wider in memory than on the wire).
const ALLOC_PER_BYTE: usize = 8;

/// Seeded draws of multi-byte damage per corpus blob. Single-site
/// damage is swept exhaustively; this samples what no single byte can
/// do, such as a length prefix and the bytes it covers changed together.
const MULTI_SITE_DRAWS: usize = 1_500;

/// What one sweep saw.
#[derive(Default)]
struct Sweep {
    decodes: usize,
    /// Mutations that still decoded (flips inside floats and weights).
    accepted: usize,
    peak: usize,
    /// `(what, offset)` of every decode that panicked.
    panics: Vec<(&'static str, usize)>,
    /// Truncations that decoded instead of failing.
    short_reads: Vec<usize>,
}

impl Sweep {
    fn run(&mut self, what: &'static str, at: usize, suite: &Suite, decode: Decode, blob: Vec<u8>) {
        let (outcome, peak) =
            largest_request(|| catch_unwind(AssertUnwindSafe(|| decode(suite, blob).is_ok())));
        self.decodes += 1;
        self.peak = self.peak.max(peak);
        match outcome {
            Ok(true) if what == "truncate" => self.short_reads.push(at),
            Ok(true) => self.accepted += 1,
            Ok(false) => {}
            Err(_) => self.panics.push((what, at)),
        }
    }
}

#[test]
fn hostile_bytes_never_panic_abort_or_size_an_allocation() {
    let s = suite();
    let mut report = Vec::new();
    for (name, blob, decode) in corpus(&s) {
        let mut sweep = Sweep::default();
        for cut in 0..blob.len() {
            sweep.run("truncate", cut, &s, decode, blob[..cut].to_vec());
        }
        for at in 0..blob.len() {
            let mutations: [(&'static str, u8); 4] = [
                ("=0x00", 0x00),
                ("=0xff", 0xff),
                ("^0x01", blob[at] ^ 0x01),
                ("^0x80", blob[at] ^ 0x80),
            ];
            for (what, byte) in mutations {
                if byte != blob[at] {
                    let mut forged = blob.clone();
                    forged[at] = byte;
                    sweep.run(what, at, &s, decode, forged);
                }
            }
            if at + 4 <= blob.len() {
                let mut forged = blob.clone();
                forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                sweep.run("u32::MAX", at, &s, decode, forged);
            }
        }
        // 2–4 distinct sites per draw, each byte xor-ed with a nonzero
        // mask; a panic is reported by the draw's number.
        let mut rng = SmallRng::seed_from_u64(fnv1a(name.as_bytes()));
        for draw in 0..MULTI_SITE_DRAWS {
            let sites = rng.gen_range(2usize..5);
            let mut forged = blob.clone();
            let mut damaged: Vec<usize> = Vec::with_capacity(sites);
            while damaged.len() < sites {
                let at = rng.gen_range(0..blob.len());
                if !damaged.contains(&at) {
                    damaged.push(at);
                    forged[at] ^= rng.gen_range(1u32..256) as u8;
                }
            }
            sweep.run("multi-site", draw, &s, decode, forged);
        }
        report.push((name, blob.len(), sweep));
    }

    for (name, len, sweep) in &report {
        println!(
            "{name}: {len} bytes, {} decodes, {} still accepted, peak single allocation {} bytes",
            sweep.decodes, sweep.accepted, sweep.peak
        );
    }
    for (name, len, sweep) in &report {
        assert!(
            sweep.panics.is_empty(),
            "{name}: {} of {} hostile decodes panicked, first at {:?}",
            sweep.panics.len(),
            sweep.decodes,
            &sweep.panics[..sweep.panics.len().min(8)]
        );
        assert!(
            sweep.short_reads.is_empty(),
            "{name}: truncations at {:?} decoded",
            sweep.short_reads
        );
        let bound = ALLOC_FLOOR + ALLOC_PER_BYTE * len;
        assert!(
            sweep.peak <= bound,
            "{name}: a decode asked for {} bytes at once, bound is {bound}",
            sweep.peak
        );
    }
}

// ---- the defects this harness was written against -------------------

/// Rewrite one `key=value` line of the spec section that follows the
/// eight header bytes of an `HRPE` / `HRPP` / `HRPS` blob, fixing up
/// the section's length prefix.
fn tamper_spec(blob: &[u8], key: &str, value: &str) -> Vec<u8> {
    let spec_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
    let spec = std::str::from_utf8(&blob[12..12 + spec_len]).unwrap();
    let old = spec
        .lines()
        .find(|line| line.split_once('=').is_some_and(|(k, _)| k == key))
        .unwrap_or_else(|| panic!("spec has no '{key}' line"));
    let forged = spec.replacen(old, &format!("{key}={value}"), 1);
    let mut out = blob[..8].to_vec();
    out.extend_from_slice(&(forged.len() as u32).to_le_bytes());
    out.extend_from_slice(forged.as_bytes());
    out.extend_from_slice(&blob[12 + spec_len..]);
    out
}

/// Swap the `HRPP` blob embedded in a policy-tier `HRPS` snapshot (the
/// body's last, length-prefixed section) for `agent`.
fn embed_agent(snapshot: &[u8], agent: &[u8]) -> Vec<u8> {
    let at = snapshot
        .windows(4)
        .position(|w| w == b"HRPP")
        .expect("a policy snapshot embeds its agent");
    let mut out = snapshot[..at - 4].to_vec();
    out.extend_from_slice(&(agent.len() as u32).to_le_bytes());
    out.extend_from_slice(agent);
    out
}

/// A forged agent spec must be a typed error naming `needle` — alone
/// and when the `HRPP` arrives embedded in an `HRPS`.
fn assert_forged_agent_is_rejected(key: &str, value: &str, needle: &str) {
    let s = suite();
    let forged = tamper_spec(&hrpp_blob(), key, value);
    let snapshot = embed_agent(&hrps_blob(&s, Tier::Policy), &forged);
    for (what, decode, blob) in [
        ("HRPP", decode_hrpp as Decode, forged),
        ("HRPP inside HRPS", decode_hrps as Decode, snapshot),
    ] {
        let (outcome, peak) = largest_request(|| decode(&s, blob));
        let err = outcome.expect_err(what);
        assert!(err.contains(needle), "{what}: '{err}' lacks '{needle}'");
        assert!(err.contains("HRPP"), "{what}: '{err}' names the format");
        assert!(
            peak <= ALLOC_FLOOR,
            "{what}: asked for {peak} bytes at once"
        );
    }
}

/// A key `HRPP` v3 retired, smuggled into an agent spec behind its live
/// `seed` line (whose value is kept), must be refused as unknown — alone
/// and when the `HRPP` arrives embedded in an `HRPS`.
fn assert_retired_agent_key_is_rejected(line: &str) {
    let key = line.split('=').next().expect("a key");
    let live = format!("{}\n{line}", PlacementConfig::quick().seed);
    assert_forged_agent_is_rejected("seed", &live, &format!("unknown key '{key}'"));
}

/// A forged experiment spec must be a typed error naming `needle`.
fn assert_forged_experiment_is_rejected(key: &str, value: &str, needle: &str) {
    let s = suite();
    let forged = tamper_spec(&hrpe_blob(&s), key, value);
    let (outcome, peak) = largest_request(|| decode_hrpe(&s, forged));
    let err = outcome.expect_err(key);
    assert!(err.contains("HRPE") || err.contains("HRPQ"), "{key}: {err}");
    assert!(err.contains(needle), "{key}: '{err}' lacks {needle}");
    assert!(peak <= ALLOC_FLOOR, "{key}: asked for {peak} bytes at once");
}

/// A key `HRPE` v2 retired, smuggled into an experiment spec behind its
/// live `seed` line (whose value is kept), must be refused as unknown.
fn assert_retired_experiment_key_is_rejected(line: &str) {
    let key = line.split('=').next().expect("a key");
    let live = format!("7\n{line}");
    assert_forged_experiment_is_rejected("seed", &live, &format!("unknown key '{key}'"));
}

/// The fourteen training and node-window keys of `HRPP` v2, which v3
/// holds as constants. (Split, like every retired name, so that a search
/// for them finds no live use.)
const RETIRED_AGENT_LINES: [&str; 14] = [
    concat!("node", "_w=4"),
    concat!("node", "_cmax=4"),
    concat!("gam", "ma=0.98"),
    concat!("l", "r=0.001"),
    concat!("batch", "_size=32"),
    concat!("target_sync", "_every=200"),
    concat!("buffer", "_capacity=20000"),
    concat!("dou", "ble=true"),
    concat!("duel", "ing=true"),
    concat!("eps", "_end=0.02"),
    concat!("rf", "_weight=0.5"),
    concat!("rollout", "_round=8"),
    concat!("over", "lap=false"),
    concat!("sha", "rds=1"),
];

#[test]
fn retired_hrpp_keys_are_typed_errors() {
    for line in RETIRED_AGENT_LINES {
        assert_retired_agent_key_is_rejected(line);
    }
}

/// Parent commit: `assert!(capacity > 0)` in the replay constructor,
/// reached from `PlacementExperiment::load_bytes`. `HRPP` no longer
/// carries the key, so a forged one is unknown; `HRPE` still does, and
/// holds it to at least 1.
#[test]
fn forged_zero_buffer_capacity_is_a_typed_error() {
    assert_retired_agent_key_is_rejected(concat!("buffer", "_capacity=0"));
    assert_forged_experiment_is_rejected("buffer_capacity", "0", "buffer_capacity");
}

/// Parent commit: a 160 GB allocation inside `QNet::new`, before the
/// weight section was ever looked at. A forged replay shard count is
/// refused the same way: neither `HRPP` nor `HRPE` knows the key.
#[test]
fn forged_hidden_widths_are_a_typed_error_before_any_network_is_built() {
    assert_forged_agent_is_rejected("hidden", "4000000000,4000000000", "params");
    assert_forged_agent_is_rejected("hidden", "", "hidden");
    assert_retired_agent_key_is_rejected(concat!("sha", "rds=1000000000"));
    assert_retired_experiment_key_is_rejected(concat!("sha", "rds=1000000000"));
}

/// Parent commit: both loaded. The first `learn` with a zero batch
/// then panicked dividing by zero inside `predict_batch_into`, and a
/// zero sync period never synced the target (`is_multiple_of(0)` is
/// false for every step ≥ 1). `HRPE` holds both to at least 1, and
/// `load_agent` and `DqnAgent::new` refuse them too.
#[test]
fn forged_zero_batch_and_sync_period_are_typed_errors() {
    assert_forged_experiment_is_rejected("batch_size", "0", "'batch_size'");
    assert_forged_experiment_is_rejected("target_sync_every", "0", "'target_sync_every'");
}

/// The retired training modes stay refused where they could come back
/// in: an `HRPE` spec has no key for either retired knob, and neither
/// the agent nor the pipeline builds their other values.
#[test]
fn retired_training_modes_are_refused() {
    assert_retired_experiment_key_is_rejected(concat!("over", "lap=true"));
    assert_retired_experiment_key_is_rejected(concat!("sha", "rds=4"));
    let refusal = |build: &dyn Fn()| -> String {
        let payload = catch_unwind(AssertUnwindSafe(build)).expect_err("refused");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    };
    let two_rings = refusal(&|| {
        let _ = DqnAgent::new(DqnConfig {
            shards: 2,
            ..DqnConfig::paper(6, 3)
        });
    });
    assert!(two_rings.contains("item 2f"), "{two_rings}");
    let overlapped = refusal(&|| {
        let cfg = TrainConfig {
            episodes: 1,
            overlap: true,
            ..TrainConfig::quick()
        };
        let _ = train(&suite(), cfg);
    });
    assert!(overlapped.contains("item 2f"), "{overlapped}");
}

/// Parent commit (PR 21): all three loaded. A node then handed its first
/// window to `hrp_core::exhaustive::best_partition`, which panics on a
/// window of 0 ("window size 0 out of range"), cannot cover one at a
/// concurrency cap of 0 ("DP failed to cover mask"), and searches every
/// queued job at once — exponentially — under a window of 2⁶⁴ − 1. An
/// agent no longer names its node window at all: every node runs the
/// constant one, and a forged window is an unknown key.
#[test]
fn forged_node_windows_are_typed_errors() {
    assert_retired_agent_key_is_rejected(concat!("node", "_w=0"));
    assert_retired_agent_key_is_rejected(concat!("node", "_w=18446744073709551615"));
    assert_retired_agent_key_is_rejected(concat!("node", "_cmax=0"));
}

/// An agent's training-trace spec is read by the same codec, with the
/// same bounds, as an `HRPS` trace source's. Parent commit: `HRPP` read
/// its trace keys with no bounds, so the first four loaded, though an
/// `HRPS` trace source refused each. A GPU bound past
/// `MAX_GPUS_PER_NODE` loaded even after that: jobs hold their GPU
/// count in a `u16`, and no node is wider than 1 024 GPUs.
#[test]
fn forged_agent_traces_are_typed_errors() {
    for (key, value) in [
        ("trace.jobs", "0"),
        ("trace.mean_gap", "NaN"),
        ("trace.gang_share", "2.0"),
        ("trace.users", "4000000000"),
        ("trace.max_gpus", "1025"),
    ] {
        assert_forged_agent_is_rejected(key, value, &format!("'{key}'"));
    }
}

/// The same checks guard `HRPE`, which shares the agent loader. Parent
/// commit (PR 21): `cmax=0` loaded, and the first greedy decision
/// panicked with no valid action to choose from. Until `HRPE` v2 every
/// training float loaded unchecked: `gamma=-9.5` named a negative
/// discount, and `profile_noise=-3.0` or `9e99` rebuilt the profiles a
/// loaded agent decides from with a noise factor `1 + level·u` that
/// goes negative and is clamped.
#[test]
fn forged_experiment_specs_are_typed_errors() {
    for (key, value, needle) in [
        ("hidden", "4000000000,4000000000", "params"),
        ("w", "18446744073709551615", "'w'"),
        ("cmax", "0", "'cmax'"),
        ("env", "sideways", "'env'"),
        ("gamma", "-9.5", "'gamma'"),
        ("gamma", "1.5", "'gamma'"),
        ("gamma", "NaN", "'gamma'"),
        ("lr", "0", "'lr'"),
        ("lr", "-0.001", "'lr'"),
        ("lr", "1e39", "'lr'"),
        ("profile_noise", "-3.0", "'profile_noise'"),
        ("profile_noise", "9e99", "'profile_noise'"),
        ("profile_noise", "NaN", "'profile_noise'"),
        ("ri_weight", "-0.05", "'ri_weight'"),
        ("ri_weight", "inf", "'ri_weight'"),
        ("rf_weight", "-1", "'rf_weight'"),
        ("rf_weight", "NaN", "'rf_weight'"),
        ("eps_end", "-0.01", "'eps_end'"),
        ("eps_end", "2", "'eps_end'"),
    ] {
        assert_forged_experiment_is_rejected(key, value, needle);
    }
}

/// `HRPE` v2 dropped the co-run engine's three keys and the retired
/// `overlap` / `shards` knobs. A v1 blob is a version error, and a
/// forged line for any of those keys is refused as unknown. Parent
/// commit: `engine.max_sim_time=0` loaded, and the agent's first
/// greedy decision panicked ("co-run time must be positive").
#[test]
fn retired_hrpe_version_and_keys_are_typed_errors() {
    let s = suite();
    let mut old = hrpe_blob(&s);
    old[4..8].copy_from_slice(&1u32.to_le_bytes());
    let (outcome, peak) = largest_request(|| TrainedAgent::load_bytes(old, &s).map(drop));
    assert_eq!(
        outcome,
        Err(CheckpointError::BadVersion {
            format: "HRPE",
            found: 1
        })
    );
    assert!(peak <= ALLOC_FLOOR, "v1: asked for {peak} bytes at once");
    for line in [
        concat!("engine.max", "_sim_time=0"),
        concat!("engine.mig", "_reconfig_overhead=2.5"),
        concat!("engine.mps", "_setup_overhead=0.5"),
        concat!("over", "lap=true"),
        concat!("sha", "rds=4"),
    ] {
        assert_retired_experiment_key_is_rejected(line);
    }
}

/// Each name has one spelling, and a decoder accepts exactly the one its
/// writer emits. Parent commit: `selector=rr` restored a round-robin
/// service, `env=hier` loaded a hierarchical agent and
/// `trace.kind=zipf` a skewed-trace one, and each re-encoded to other
/// bytes than it was read from.
#[test]
fn spellings_no_writer_emits_are_typed_errors() {
    let s = suite();
    let forged = tamper_spec(&hrps_blob(&s, Tier::RoundRobin), "selector", "rr");
    let (outcome, peak) = largest_request(|| restore(&s, forged).map(drop));
    let err = outcome.expect_err("selector=rr");
    assert!(
        matches!(err, CheckpointError::Invalid { format: "HRPS", .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("'selector'"), "{err}");
    assert!(
        peak <= ALLOC_FLOOR,
        "selector=rr: asked for {peak} bytes at once"
    );

    let cfg = TrainConfig {
        env: EnvKind::Hierarchical,
        w: 3,
        hidden: vec![4],
        episodes: 4,
        seed: 7,
        ..TrainConfig::quick()
    };
    let hierarchical = train(&s, cfg).0.save_bytes();
    let forged = tamper_spec(&hierarchical, "env", "hier");
    let (outcome, peak) = largest_request(|| TrainedAgent::load_bytes(forged, &s).map(drop));
    let err = outcome.expect_err("env=hier");
    assert!(
        matches!(err, CheckpointError::Invalid { format: "HRPE", .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("'env'"), "{err}");
    assert!(
        peak <= ALLOC_FLOOR,
        "env=hier: asked for {peak} bytes at once"
    );

    assert_forged_agent_is_rejected("trace.kind", "zipf", "'trace.kind'");
}

/// `HRPS` v3 retired two spec keys, v4 the node fields its event log
/// already holds, v5 the load snapshots and the counters its node
/// records determine, and v6 the node counters, the round-robin cursor,
/// the agent flag and the ledger entries the rest of the blob
/// determines. A v2, v3, v4 or v5 blob is a version error, not a guess
/// at what its extra lines or fields meant, and a spec that still
/// carries a retired key is refused like any other key the format does
/// not have. (The names of options retired outright are split so that a
/// search for them finds no live use.)
#[test]
fn retired_hrps_versions_and_keys_are_typed_errors() {
    let s = suite();
    for version in [2u32, 3, 4, 5] {
        let mut old = hrps_blob(&s, Tier::LeastLoaded);
        old[4..8].copy_from_slice(&version.to_le_bytes());
        let (outcome, peak) = largest_request(|| restore(&s, old).map(drop));
        assert_eq!(
            outcome,
            Err(CheckpointError::BadVersion {
                format: "HRPS",
                found: version
            })
        );
        assert!(
            peak <= ALLOC_FLOOR,
            "v{version}: asked for {peak} bytes at once"
        );
    }

    // Each retired line is smuggled in behind a live one, whose value
    // is kept.
    let half_life = concat!("adm_half", "_life=300.0");
    for (tier, after, kept, retired) in [
        (Tier::LeastLoaded, "selector", "least-loaded", "mode=full"),
        (
            Tier::LeastLoaded,
            "selector",
            "least-loaded",
            "mode=incremental",
        ),
        (Tier::EasyAdmission, "adm_quota", "1", half_life),
        (Tier::LeastLoaded, "cycles", "4", "decisions=10"),
        (Tier::LeastLoaded, "nodes_replanned", "8", "nodes_skipped=0"),
        (Tier::RoundRobin, "rejected", "0", "placed=10"),
        (Tier::RoundRobin, "rejected", "0", "sync_rounds=4"),
        (Tier::EasyAdmission, "rejected", "0", "node_advances=8"),
        (Tier::RoundRobin, "selector", "round-robin", "rr_cursor=10"),
        (Tier::LeastLoaded, "has_lookahead", "1", "has_agent=0"),
        (Tier::Policy, "has_lookahead", "1", "has_agent=1"),
    ] {
        let forged = tamper_spec(&hrps_blob(&s, tier), after, &format!("{kept}\n{retired}"));
        let (outcome, peak) = largest_request(|| decode_hrps(&s, forged));
        let err = outcome.expect_err(retired);
        let key = retired.split('=').next().expect("a key");
        assert!(err.contains("HRPS"), "{retired}: '{err}' names the format");
        assert!(
            err.contains(&format!("unknown key '{key}'")),
            "{retired}: '{err}'"
        );
        assert!(peak <= ALLOC_FLOOR, "{key}: asked for {peak} bytes at once");
    }
}

/// Parent commit: the snapshot restored, and the service then ran the
/// agent over planners and windows sized for the *service's* geometry,
/// not the one the agent was trained through.
#[test]
fn an_embedded_agent_shaped_for_other_nodes_is_a_typed_error() {
    let s = suite();
    let agent = tamper_spec(&hrpp_blob(), "gpus_per_node", "4");
    let snapshot = embed_agent(&hrps_blob(&s, Tier::Policy), &agent);
    let err = decode_hrps(&s, snapshot).expect_err("2 x 4 agent in a 2 x 2 service");
    assert!(err.contains("HRPS"), "'{err}' names the format");
    assert!(
        err.contains("2 nodes x 4 GPUs"),
        "'{err}' names the mismatch"
    );
}

/// Parent commit: restore held `src_max_gpus` only to at least 1, so a
/// source forged wider than its 2-GPU nodes restored, and its first
/// 3-GPU job panicked in `ClusterDrive::place`. Forged beside a gang
/// share that makes every job wide, and beside a kind whose draws are
/// wide on their own.
#[test]
fn a_source_wider_than_its_nodes_is_a_typed_error() {
    let s = suite();
    let wide = tamper_spec(&hrps_blob(&s, Tier::LeastLoaded), "src_max_gpus", "3");
    for (key, value) in [("src_gang_share", "1.0"), ("src_kind", "colocate")] {
        let forged = tamper_spec(&wide, key, value);
        match restore(&s, forged).map(drop) {
            Err(CheckpointError::Invalid {
                format: "HRPS",
                what,
            }) => assert!(what.contains("src_max_gpus=3"), "{key}: '{what}'"),
            other => panic!("src_max_gpus=3, {key}={value}: {other:?}"),
        }
    }
}

/// Offset of the name's length prefix in every job record of an `HRPS`
/// body. A record is `id u64 | bench u64 | arrival f64 | gpus u32 |
/// user u32 | name`, and job records are the only place a benchmark
/// name is written, so each length-prefixed suite name marks one.
fn job_records(suite: &Suite, blob: &[u8]) -> Vec<usize> {
    let mut at: Vec<usize> = (0..suite.len())
        .flat_map(|bench| {
            let name = suite.by_index(bench).app.name.as_bytes();
            let mut needle = (name.len() as u32).to_le_bytes().to_vec();
            needle.extend_from_slice(name);
            (32..blob.len().saturating_sub(needle.len()))
                .filter(|&i| blob[i..].starts_with(&needle))
                .collect::<Vec<_>>()
        })
        .collect();
    at.sort_unstable();
    at
}

/// A 1 × 2 EASY service fed a dense burst train and settled at its last
/// cycle: every placed job has reached the node, two run, and the rest
/// sit in the waiting queue — the one job section the mid-run corpus
/// blobs (cut straight after a placement) leave empty.
fn backlogged_blob(suite: &Suite) -> Vec<u8> {
    one_node_blob(suite, 0.5)
}

/// A 1 × 2 EASY service fed ten jobs of a burst train `mean_gap` apart
/// and settled at its last cycle.
fn one_node_blob(suite: &Suite, mean_gap: f64) -> Vec<u8> {
    let trace = TraceConfig::new(TraceKind::Bursty, 20, 3).mean_gap(mean_gap);
    let source = TraceSource::new(suite, trace);
    let mut svc = SchedulerService::new(suite, ServeConfig::new(1, 2), SelectorKind::Easy, source);
    let mut now = 0.0;
    while svc.consumed() < 10 {
        if let ServiceStep::Cycle { time, .. } = svc.step() {
            now = time;
        }
    }
    svc.settle(now);
    svc.checkpoint().expect("a trace source checkpoints")
}

/// Parent commit: every one of these decoded, and the restored service
/// panicked at its next dispatch — `Suite::by_index` past the end, a
/// co-run looked up under the wrong benchmark, a job no node can host.
/// A job holds its bench index and GPU count as `u16`s, so a decoder
/// that narrowed before it checked would read a bench 2¹⁶ past the
/// record's own (65 539 on a record naming bench 3) as that bench, and
/// 65 537 GPUs as one: both must stay errors.
/// Forged in every job record of every snapshot: the lookahead, each
/// node's pending arrivals (the mid-run corpus), its waiting queue (the
/// backlogged service), and the admission tier's deferred queue (the
/// last records of the `EasyAdmission` blob).
#[test]
fn forged_job_records_are_typed_errors() {
    let s = suite();
    let mut snapshots: Vec<(String, Vec<u8>)> = TIERS
        .iter()
        .map(|&tier| (format!("{tier:?}"), hrps_blob(&s, tier)))
        .collect();
    snapshots.push(("backlogged".into(), backlogged_blob(&s)));
    for (name, blob) in snapshots {
        let records = job_records(&s, &blob);
        assert!(records.len() >= 3, "{name}: found {records:?}");
        for name_at in records {
            let bench_at = name_at - 24;
            let gpus_at = name_at - 8;
            let bench = u64::from_le_bytes(blob[bench_at..bench_at + 8].try_into().unwrap());
            // (what, offset, little-endian value, field width)
            let forgeries: [(&str, usize, u64, usize); 7] = [
                ("bench past the suite", bench_at, s.len() as u64, 8),
                ("bench = u64::MAX", bench_at, u64::MAX, 8),
                (
                    "another benchmark's index",
                    bench_at,
                    (bench + 1) % s.len() as u64,
                    8,
                ),
                ("bench 2^16 past its name", bench_at, bench + 65_536, 8),
                ("zero GPUs", gpus_at, 0, 4),
                ("wider than a node", gpus_at, 3, 4),
                ("65 537 GPUs", gpus_at, 65_537, 4),
            ];
            for (what, at, value, width) in forgeries {
                let mut forged = blob.clone();
                forged[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                let (outcome, peak) = largest_request(|| decode_hrps(&s, forged));
                let err = outcome.expect_err(what);
                assert!(err.contains("HRPS"), "{name}, {what}: '{err}'");
                assert!(
                    peak <= ALLOC_FLOOR + ALLOC_PER_BYTE * blob.len(),
                    "{name}, {what}: asked for {peak} bytes at once"
                );
            }
        }
    }
}

/// Parent commit: every one of these decoded, and the restored planner
/// panicked in its slot set (a claim window "must be finite") at the
/// first decision with a free GPU. The backlogged service ends its blob
/// with the dispatcher record: `1 | n (finish f64, gpus u32)*` — the
/// release bookings of what runs.
#[test]
fn forged_backfill_states_are_typed_errors() {
    let s = suite();
    let blob = backlogged_blob(&s);
    assert_eq!(decode_hrps(&s, blob.clone()), Ok(blob.clone()));

    let f64_at = |at: usize| f64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
    let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap()) as usize;
    // One or two placements hold the two GPUs.
    let rel_at = (1..=2)
        .map(|n| blob.len() - 12 * n)
        .find(|&at| blob[at - 5] == 1 && blob.len() - at == 12 * u32_at(at - 4))
        .expect("the release bookings end the blob");
    assert!(f64_at(rel_at) > 0.0 && (1..=2).contains(&u32_at(rel_at + 8)));

    let (inf, nan) = (f64::INFINITY.to_le_bytes(), f64::NAN.to_le_bytes());
    let past = (-1.0f64).to_le_bytes();
    let forgeries: [(&str, usize, &[u8]); 5] = [
        ("release at +inf", rel_at, &inf),
        ("release at NaN", rel_at, &nan),
        ("release before time zero", rel_at, &past),
        ("release of zero GPUs", rel_at + 8, &[0; 4]),
        ("release wider than the node", rel_at + 8, &[3, 0, 0, 0]),
    ];
    for (what, at, bytes) in forgeries {
        let mut forged = blob.clone();
        forged[at..at + bytes.len()].copy_from_slice(bytes);
        let (outcome, peak) = largest_request(|| decode_hrps(&s, forged));
        let err = outcome.map(|ok| ok.len()).expect_err(what);
        assert!(err.contains("HRPS"), "{what}: '{err}'");
        assert!(
            peak <= ALLOC_FLOOR + ALLOC_PER_BYTE * blob.len(),
            "{what}: asked for {peak} bytes at once"
        );
    }
}

/// Restore and, when that succeeds, drive the service to the end — how
/// far a section that decodes must be able to go. Returns the timeline
/// and admission digests.
fn drain_hrps(suite: &Suite, blob: Vec<u8>) -> Result<(u64, u64), String> {
    let mut service = restore(suite, blob).map_err(|e| e.to_string())?;
    service.run_to_close();
    let served = service.finish();
    let admission = served.admission.expect("the admission tier is on");
    Ok((served.report.timeline.digest(), admission.digest))
}

/// Where the admission section that ends the `EasyAdmission` blob,
/// straight after the node records, keeps its fields: `n (user u32,
/// karma f64, stamp f64)* | n (release bits u64, seq u64, user u32)* |
/// digest u64 | n job*`. At quota 1 a parked job's tenant has exactly
/// one release pending.
struct AdmissionAt {
    /// First karma entry.
    karma: usize,
    /// Release entry of the first parked job's tenant.
    release: usize,
    /// `user` field of the first parked job.
    parked_user: usize,
}

/// The last cycle's instant, which `HRPS` writes as the spec's
/// `last_cycle_bits` and which is the fair-share ledger's clock too.
fn last_cycle(blob: &[u8]) -> f64 {
    let spec_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
    let spec = std::str::from_utf8(&blob[12..12 + spec_len]).unwrap();
    let bits = spec
        .lines()
        .find_map(|line| line.strip_prefix("last_cycle_bits="))
        .expect("the spec has a last cycle");
    f64::from_bits(bits.parse().expect("the bits are a u64"))
}

fn admission_at(blob: &[u8]) -> AdmissionAt {
    let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap()) as usize;
    let karma = node_records(blob).1 + 4;
    let releases = karma + 20 * u32_at(karma - 4) + 4;
    let in_flight = u32_at(releases - 4);
    let parked = releases + 20 * in_flight + 8 + 4;
    let job = |at: usize| at + 32 + 4 + u32_at(at + 32);
    let parked_end = (0..u32_at(parked - 4)).fold(parked, |at, _| job(at));
    assert!(u32_at(parked - 4) > 0, "the cut must catch parked jobs");
    assert_eq!(parked_end, blob.len(), "the parked queue ends the blob");
    let parked_user = parked + 28;
    let release = (0..in_flight)
        .map(|k| releases + 20 * k)
        .find(|&at| u32_at(at + 16) == u32_at(parked_user))
        .expect("a parked job's tenant is in flight");
    AdmissionAt {
        karma,
        release,
        parked_user,
    }
}

/// Parent commit: `get_admission` handed whatever decoded to
/// `FairShare::from_state`. A release at `+inf` became the last wake-up;
/// a karma stamp after the ledger's clock decayed to `inf` at the next
/// charge, so the restored service wrote checkpoints restore refuses;
/// the rest restored and drained — from ledgers no service can reach.
/// (The ledger's clock is the last cycle's, held to an instant with the
/// spec, and a tenant's in-flight count is its number of releases, so
/// neither has bytes of its own to forge.)
#[test]
fn forged_admission_ledgers_are_typed_errors() {
    let s = suite();
    let blob = hrps_blob(&s, Tier::EasyAdmission);
    let at = admission_at(&blob);
    let f64_at = |at: usize| f64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
    let now = last_cycle(&blob);
    assert!(now > 0.0 && f64_at(at.release) > now);

    let (inf, nan) = (f64::INFINITY.to_le_bytes(), f64::NAN.to_le_bytes());
    let past = (-1.0f64).to_le_bytes();
    let later = (now + 1e6).to_le_bytes();
    let forgeries: [(&str, usize, &[u8]); 10] = [
        ("release at +inf", at.release, &inf),
        ("release at NaN", at.release, &nan),
        ("release before time zero", at.release, &past),
        ("karma of NaN", at.karma + 4, &nan),
        ("karma of +inf", at.karma + 4, &inf),
        ("karma of -1", at.karma + 4, &past),
        ("karma stamped at NaN", at.karma + 12, &nan),
        ("karma stamped before time zero", at.karma + 12, &past),
        ("karma stamped after the clock", at.karma + 12, &later),
        (
            "karma stamped at -inf",
            at.karma + 12,
            &f64::NEG_INFINITY.to_le_bytes(),
        ),
    ];
    for (what, at, bytes) in forgeries {
        let mut forged = blob.clone();
        forged[at..at + bytes.len()].copy_from_slice(bytes);
        let (outcome, peak) = largest_request(|| drain_hrps(&s, forged));
        let err = outcome.expect_err(what);
        assert!(err.contains("HRPS"), "{what}: '{err}'");
        assert!(
            peak <= ALLOC_FLOOR + ALLOC_PER_BYTE * blob.len(),
            "{what}: asked for {peak} bytes at once"
        );
    }
}

/// Honest but unusual: a parked job whose tenant is *under* quota — what
/// a checkpoint edited to lift a tenant's cap looks like. Nothing about
/// it is inconsistent, so it restores, and the restored service's first
/// cycle lets the job through although no release is due in it (here: an
/// idle cycle at the very instant of the last one); the drain is the
/// parent commit's, digest for digest.
#[test]
fn a_parked_job_under_quota_restores_and_goes_through_at_once() {
    let s = suite();
    let blob = hrps_blob(&s, Tier::EasyAdmission);
    let at = admission_at(&blob);
    let last_cycle = last_cycle(&blob);
    let mut lifted = blob.clone();
    lifted[at.parked_user..at.parked_user + 4].copy_from_slice(&7u32.to_le_bytes());

    let mut service = restore(&s, lifted).expect("a consistent ledger");
    let parked = service.deferred_jobs();
    service.settle(last_cycle);
    assert_eq!(service.deferred_jobs(), parked - 1, "tenant 7 is through");
    service.run_to_close();
    let served = service.finish();
    assert_eq!(
        (
            served.report.timeline.digest(),
            served.admission.expect("the admission tier is on").digest
        ),
        (0xbe39_0fb4_7d63_ef15, 0xaab0_710c_0944_cf01),
        "the drain the parent commit produces"
    );
}

/// The node records of an `HRPS` body: `[lookahead job] | node*`, a node
/// being `clock f64 | wait f64 | dirty u8 | n job* | n job* | n event* |
/// dispatcher`, an event `time f64 | seq u64 | tag u8` and then `job u64`
/// (0, arrival), `gpus u32 | duration f64 | n id u64*` (1, start) or
/// `gpus u32 | n id u64*` (2, finish), and a dispatcher `0` or `1 | n
/// (finish f64, gpus u32)*`. Returns `(offset of the event's time, tag)`
/// of every event of every node, and the offset just past the last node.
fn node_records(blob: &[u8]) -> (Vec<Vec<(usize, u8)>>, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap()) as usize;
    let spec_len = u32_at(8);
    let spec = std::str::from_utf8(&blob[12..12 + spec_len]).unwrap();
    let value = |key: &str| spec.lines().find_map(|line| line.strip_prefix(key));
    let job = |at: usize| at + 32 + 4 + u32_at(at + 32);
    let jobs = |at: usize| (0..u32_at(at)).fold(at + 4, |at, _| job(at));
    let ids = |at: usize| at + 4 + 8 * u32_at(at);
    let mut at = 12 + spec_len;
    if value("has_lookahead=") == Some("1") {
        at = job(at);
    }
    let nodes: usize = value("nodes=").expect("a node count").parse().unwrap();
    let mut logs = Vec::new();
    for _ in 0..nodes {
        at = jobs(jobs(at + 8 * 2 + 1));
        let mut events = Vec::new();
        let count = u32_at(at);
        at += 4;
        for _ in 0..count {
            let tag = blob[at + 16];
            events.push((at, tag));
            at = match tag {
                0 => at + 17 + 8,
                1 => ids(at + 17 + 4 + 8),
                _ => ids(at + 17 + 4),
            };
        }
        logs.push(events);
        at = match blob[at] {
            0 => at + 1,
            _ => at + 1 + 4 + 12 * u32_at(at + 1),
        };
    }
    (logs, at)
}

/// Parent commit: every one of these restored (1 460 bytes re-encoded),
/// resumed from the forged record and drained to the end — GPUs held
/// that the node does not have, a timeline with a hole in its sequence
/// numbers or an event at `NaN`, a placement due before it started:
/// digests of timelines no service can reach. The decoder now holds a
/// node's log to what a `NodeRun` can record, and derives what runs from
/// it. Fed at a slower pace than the backlogged one, the 1 x 2 service
/// has two placements running (one job each) behind finished ones, so
/// its log has every kind of event, open and closed.
#[test]
fn forged_event_logs_are_typed_errors() {
    let s = suite();
    let blob = one_node_blob(&s, 6.0);
    let events = node_records(&blob).0.swap_remove(0);
    let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
    let f64_at = |at: usize| f64::from_bits(u64_at(at));
    let of_tag = |tag: u8| events.iter().filter(move |e| e.1 == tag).map(|e| e.0);
    // A start some finish closes, that finish, and a start still open.
    let finished: Vec<u64> = of_tag(2)
        .map(|finish| u64_at(finish + 17 + 4 + 4))
        .collect();
    let finish = of_tag(2).next().expect("something has finished");
    let closed = of_tag(1)
        .find(|&start| u64_at(start + 17 + 16) == finished[0])
        .expect("what finished had started");
    let open: Vec<usize> = of_tag(1)
        .filter(|&start| !finished.contains(&u64_at(start + 17 + 16)))
        .collect();
    assert_eq!(open.len(), 2, "two placements run");
    assert!(open.iter().all(|&start| u32_at(start + 17 + 12) == 1));
    let open = open[0];
    let arrival = of_tag(0).next().expect("something arrived");
    let third = events[2].0;

    let nan = f64::NAN.to_le_bytes();
    let later = 1e9f64.to_le_bytes();
    let before = (-1.0f64).to_le_bytes();
    let forgeries: [(&str, usize, &[u8]); 13] = [
        ("a start on zero GPUs", closed + 17, &[0; 4]),
        ("a start wider than the node", closed + 17, &[3, 0, 0, 0]),
        (
            "a start wider than what runs of it",
            open + 17,
            &[2, 0, 0, 0],
        ),
        ("a finish wider than the node", finish + 17, &[3, 0, 0, 0]),
        ("a gap in the sequence numbers", third + 8, &[7, 0, 0, 0]),
        ("an event at NaN", arrival, &nan),
        ("an event after the node's clock", arrival, &later),
        (
            "a finish of a job that never started",
            finish + 25,
            &[0xee; 4],
        ),
        ("a finish at another instant than its start's", finish, &[1]),
        ("a running start due before it starts", open + 21, &before),
        ("a running start for NaN seconds", open + 21, &nan),
        (
            "a running start for ever",
            open + 21,
            &f64::INFINITY.to_le_bytes(),
        ),
        ("a running start for no time", open + 21, &[0; 8]),
    ];
    // And a closed pair due before it starts: the finish moved back to
    // where the forged duration puts it, so the pair still matches.
    let mut backwards = blob.clone();
    backwards[closed + 21..closed + 29].copy_from_slice(&before);
    let due = f64_at(closed) + -1.0;
    backwards[finish..finish + 8].copy_from_slice(&due.to_le_bytes());
    let forged = forgeries.into_iter().map(|(what, at, bytes)| {
        let mut forged = blob.clone();
        forged[at..at + bytes.len()].copy_from_slice(bytes);
        (what, forged)
    });
    for (what, forged) in forged.chain([("a finished start due before it starts", backwards)]) {
        let (outcome, peak) = largest_request(|| decode_hrps(&s, forged));
        let err = outcome.map(|ok| ok.len()).expect_err(what);
        assert!(
            err.contains("HRPS") && err.contains("node 0"),
            "{what}: '{err}'"
        );
        assert!(
            peak <= ALLOC_FLOOR,
            "{what}: asked for {peak} bytes at once"
        );
    }

    // Job ids are not narrowed on the way in: one past 2^32, forged
    // consistently into a finished job's arrival, start and finish,
    // comes back out bit for bit.
    let finished = finished[0];
    let wide = (finished | 1 << 40).to_le_bytes();
    let mut forged = blob.clone();
    for id_at in [closed + 17 + 16, finish + 17 + 8]
        .into_iter()
        .chain(of_tag(0).map(|a| a + 17).filter(|&a| u64_at(a) == finished))
    {
        forged[id_at..id_at + 8].copy_from_slice(&wide);
    }
    assert_ne!(forged, blob);
    assert_eq!(decode_hrps(&s, forged.clone()), Ok(forged));
}
