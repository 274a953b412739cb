//! `HRPE` checkpoints: a trained agent saved as spec + weights and
//! reloaded to identical decisions.
//!
//! A run is [`train`](crate::train::train)`(&suite, TrainConfig { .. })`;
//! this module adds the **checkpoint** hand-off the paper's deployment
//! story needs (train offline once, redeploy the frozen agent online):
//! [`TrainedAgent::save_bytes`] captures the spec *and* the trained
//! weights in one blob, and [`TrainedAgent::load_bytes`] rebuilds an
//! agent that makes **identical greedy decisions** — everything else the
//! agent needs (profiles, scaler, catalog) is a deterministic function
//! of the spec and the suite, so only spec + weights go to disk.
//!
//! ```no_run
//! use hrp_core::rl::EnvKind;
//! use hrp_core::train::{train, TrainConfig, TrainedAgent};
//! use hrp_gpusim::GpuArch;
//! use hrp_workloads::Suite;
//!
//! let suite = Suite::paper_suite(&GpuArch::a100());
//! let cfg = TrainConfig {
//!     env: EnvKind::Hierarchical,
//!     ..TrainConfig::paper()
//! };
//! let (trained, report) = train(&suite, cfg);
//! println!("late return: {:.3}", report.late_return);
//! trained.save_file("agent.hrpe".as_ref()).unwrap();
//! let redeployed = TrainedAgent::load_file("agent.hrpe".as_ref(), &suite).unwrap();
//! # let _ = redeployed;
//! ```
//!
//! # Checkpoint format
//!
//! An `HRPE` blob on the shared checkpoint codec
//! ([`hrp_nn::serialize`], re-exported as [`crate::codec`]): the
//! container header, a `key=value` spec with one line per
//! [`TrainConfig`] field (floats printed shortest-round-trip, so
//! decoding is exact), then the `HRPQ` weight blob of the online
//! network. ARCHITECTURE.md tabulates all four formats.
//!
//! ## Save → load quickstart
//!
//! ```
//! use hrp_core::train::{train, TrainConfig, TrainedAgent};
//! use hrp_gpusim::GpuArch;
//! use hrp_workloads::Suite;
//!
//! let suite = Suite::paper_suite(&GpuArch::a100());
//! // Tiny run for the doctest; use TrainConfig::paper() for real runs.
//! let cfg = TrainConfig {
//!     episodes: 8,
//!     seed: 7,
//!     ..TrainConfig::quick()
//! };
//! let (trained, _report) = train(&suite, cfg);
//!
//! // Persist spec + weights, redeploy elsewhere.
//! let blob = trained.save_bytes();
//! let reloaded = TrainedAgent::load_bytes(blob, &suite).unwrap();
//!
//! // The reloaded agent is behaviourally identical.
//! let queues = hrp_workloads::queue::table_v_queues(&suite);
//! let queue = hrp_workloads::JobQueue {
//!     label: "probe".into(),
//!     jobs: queues[0].jobs[..6].to_vec(),
//! };
//! let engine = hrp_gpusim::EngineConfig::default();
//! assert_eq!(
//!     trained.greedy_decision(&suite, &queue, &engine),
//!     reloaded.greedy_decision(&suite, &queue, &engine),
//! );
//! ```

use crate::actions::ActionCatalog;
pub use crate::codec::CheckpointError;
use crate::codec::{load_agent, save_weights, Reader, Spec, SpecWriter, Writer};
use crate::rl::EnvKind;
use crate::train::{dqn_config, env_geometry, TrainConfig, TrainedAgent};
use hrp_gpusim::engine::EngineConfig;
use hrp_profile::{FeatureScaler, ProfileRepository, Profiler};
use hrp_workloads::Suite;
use std::path::Path;

/// Magic prefix for experiment checkpoints.
const MAGIC: &str = "HRPE";
/// Checkpoint format version.
const VERSION: u32 = 1;

/// Largest window a checkpoint may claim (the paper's `W` is 12): it
/// sizes the state vector, so it must be bounded before the geometry
/// is computed from it.
const MAX_WINDOW: usize = 4096;
/// Largest concurrency cap a checkpoint may claim: the paper's `Cmax`,
/// the widest action of the catalog and the top of `repro fig10`'s
/// sweep. At 0 no action is ever valid and the first greedy decision
/// has nothing to choose from.
const MAX_CMAX: usize = 4;

impl TrainedAgent {
    /// Serialise the full checkpoint: spec + online-network weights.
    #[must_use]
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC, VERSION);
        w.spec(&encode_spec(self.config()));
        w.raw(&save_weights(self.dqn().online_net()));
        w.finish()
    }

    /// Write the checkpoint to a file.
    ///
    /// # Errors
    /// Surfaces I/O failures.
    pub fn save_file(&self, path: &Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.save_bytes())
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))
    }

    /// Rebuild a trained agent from a checkpoint blob: decode the spec,
    /// check the weights against the geometry it implies, regenerate
    /// the deterministic deployment state (profiles, scaler, catalog),
    /// and load the weights.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] when the blob is not an `HRPE`
    /// checkpoint, has an unsupported version, a malformed or
    /// out-of-range spec, or weights whose shape does not match the
    /// spec's network geometry.
    pub fn load_bytes(blob: Vec<u8>, suite: &Suite) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(&blob, MAGIC, VERSION)?;
        let cfg = decode_spec(r.spec()?)?;
        let catalog = ActionCatalog::paper_29();
        let (state_dim, n_actions) = env_geometry(&cfg, &catalog);
        let agent = load_agent(MAGIC, dqn_config(&cfg, state_dim, n_actions), r.rest())?;

        let profiler = Profiler::new(suite.arch().clone(), cfg.profile_noise, cfg.seed);
        let repo = ProfileRepository::for_suite(suite, &profiler);
        let scaler = FeatureScaler::fit(&repo);
        Ok(Self::from_parts(agent, scaler, catalog, repo, cfg))
    }

    /// [`TrainedAgent::load_bytes`] from a file.
    ///
    /// # Errors
    /// I/O failures surface as [`CheckpointError::Io`]; decode failures
    /// as in [`TrainedAgent::load_bytes`].
    pub fn load_file(path: &Path, suite: &Suite) -> Result<Self, CheckpointError> {
        let raw = std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
        Self::load_bytes(raw, suite)
    }
}

/// Encode a config as `key=value` lines (floats shortest-round-trip).
fn encode_spec(cfg: &TrainConfig) -> SpecWriter {
    let mut s = SpecWriter::new();
    s.kv("w", cfg.w);
    s.kv("cmax", cfg.cmax);
    s.kv("episodes", cfg.episodes);
    s.kv("n_queues", cfg.n_queues);
    s.kv("seed", cfg.seed);
    s.list("hidden", &cfg.hidden);
    s.float("gamma", cfg.gamma);
    s.float("lr", cfg.lr);
    s.kv("batch_size", cfg.batch_size);
    s.kv("target_sync_every", cfg.target_sync_every);
    s.kv("buffer_capacity", cfg.buffer_capacity);
    s.kv("double", cfg.double);
    s.kv("dueling", cfg.dueling);
    s.float("profile_noise", cfg.profile_noise);
    s.float("ri_weight", cfg.ri_weight);
    s.float("rf_weight", cfg.rf_weight);
    s.float(
        "engine.mig_reconfig_overhead",
        cfg.engine.mig_reconfig_overhead,
    );
    s.float("engine.mps_setup_overhead", cfg.engine.mps_setup_overhead);
    s.float("engine.max_sim_time", cfg.engine.max_sim_time);
    s.float("eps_end", cfg.eps_end);
    s.kv("n_workers", cfg.n_workers);
    s.kv("rollout_round", cfg.rollout_round);
    s.kv("overlap", cfg.overlap);
    s.kv("shards", cfg.shards);
    s.kv("env", cfg.env.name());
    s
}

/// Decode the spec: every [`TrainConfig`] field exactly once, in any
/// order. The network-shaping values (`hidden`, `buffer_capacity`)
/// are range-checked by [`load_agent`] against the weights; `overlap`
/// and `shards` must hold the one value [`crate::train::train`] accepts,
/// and `batch_size` and `target_sync_every` must be at least 1, as
/// `DqnAgent::new` requires.
fn decode_spec(mut spec: Spec<'_>) -> Result<TrainConfig, CheckpointError> {
    let cfg = TrainConfig {
        w: spec.get_in("w", 1..=MAX_WINDOW)?,
        cmax: spec.get_in("cmax", 1..=MAX_CMAX)?,
        episodes: spec.get("episodes")?,
        n_queues: spec.get("n_queues")?,
        seed: spec.get("seed")?,
        hidden: spec.get_list("hidden")?,
        gamma: spec.get("gamma")?,
        lr: spec.get("lr")?,
        batch_size: spec.get_in("batch_size", 1..)?,
        target_sync_every: spec.get_in("target_sync_every", 1..)?,
        buffer_capacity: spec.get("buffer_capacity")?,
        double: spec.get("double")?,
        dueling: spec.get("dueling")?,
        profile_noise: spec.get("profile_noise")?,
        ri_weight: spec.get("ri_weight")?,
        rf_weight: spec.get("rf_weight")?,
        engine: EngineConfig {
            mig_reconfig_overhead: spec.get("engine.mig_reconfig_overhead")?,
            mps_setup_overhead: spec.get("engine.mps_setup_overhead")?,
            max_sim_time: spec.get("engine.max_sim_time")?,
        },
        eps_end: spec.get("eps_end")?,
        n_workers: spec.get("n_workers")?,
        rollout_round: spec.get("rollout_round")?,
        // Retired knobs: still written, and only their one value read.
        overlap: spec.get_in("overlap", false..=false)?,
        shards: spec.get_in("shards", 1..=1)?,
        env: spec.get_with("env", EnvKind::parse)?,
    };
    spec.finish()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    fn decode_text(text: &str) -> Result<TrainConfig, CheckpointError> {
        decode_spec(Spec::parse(MAGIC, text)?)
    }

    #[test]
    fn spec_round_trips_every_field() {
        let mut cfg = TrainConfig::paper();
        cfg.env = EnvKind::Hierarchical;
        cfg.lr = 3.3e-4;
        cfg.profile_noise = 0.123_456_789;
        cfg.engine.mig_reconfig_overhead = 2.5;
        cfg.hidden = vec![96, 48, 24];
        let decoded = decode_text(encode_spec(&cfg).as_str()).unwrap();
        assert_eq!(decoded, cfg);
    }

    #[test]
    fn spec_rejects_missing_and_malformed_keys() {
        let good = encode_spec(&TrainConfig::quick());
        let good = good.as_str();
        assert!(decode_text(good).is_ok());
        for (from, to) in [
            ("gamma=", "gama="),
            ("episodes=250", "episodes=lots"),
            ("env=flat", "env=flatt"),
            ("w=6", "w=0"),
            ("w=6", "w=18446744073709551615"),
            ("seed=", "retired=1\nseed="),
        ] {
            assert!(good.contains(from), "spec has no '{from}'");
            assert!(
                matches!(
                    decode_text(&good.replace(from, to)),
                    Err(CheckpointError::Invalid { format: "HRPE", .. })
                ),
                "'{from}' -> '{to}' must be a typed error"
            );
        }
    }

    #[test]
    fn load_rejects_garbage_and_versions() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        assert_eq!(
            TrainedAgent::load_bytes(b"nope".to_vec(), &suite).err(),
            Some(CheckpointError::NotACheckpoint { expected: "HRPE" })
        );
        let cfg = TrainConfig {
            episodes: 4,
            ..TrainConfig::quick()
        };
        let mut raw = crate::train::train(&suite, cfg).0.save_bytes();
        raw[4] = 99;
        assert_eq!(
            TrainedAgent::load_bytes(raw, &suite).err(),
            Some(CheckpointError::BadVersion {
                format: "HRPE",
                found: 99
            })
        );
    }
}
