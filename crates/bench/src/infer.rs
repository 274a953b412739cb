//! The `repro bench-infer` deployed-inference harness: nanoseconds per
//! placement decision of the `hrp-nn` inference fast path, persisted
//! as `BENCH_10.json`.
//!
//! The harness builds a placement-shaped dueling Q-network (the
//! geometry `PolicySelector` deploys: `2·N + 2` state floats, one
//! action per node) and times one greedy decision through each
//! variant — the allocating [`QNet::predict`] reference, the
//! [`FastPolicy`] scalar kernel, and the auto-detected kernel (AVX2
//! where the CPU has it) — over a pool of synthetic placement states
//! encoded exactly as deployment encodes live loads
//! ([`encode_placement_state`]).
//!
//! Before any number is reported the harness asserts the contract the
//! numbers depend on: every variant must pick the *same* action as
//! the reference on every pool state (a throughput figure for a
//! different policy would be meaningless), and the fast path must
//! beat the reference mean.
//!
//! The mean comes from block timing (`reps` timed sweeps over the
//! pool, summarised with [`RunStats`]); the p50/p99 percentiles come
//! from individually-timed decisions, which carry the `Instant`
//! read overhead and are therefore reported separately rather than
//! folded into the mean. Like its siblings, the harness is
//! dependency-free: JSON is assembled by hand
//! ([`render_infer_json`]) and written to `BENCH_10.json` by the
//! caller.

use crate::stats::RunStats;
use hrp_core::cluster_env::{encode_placement_state, placement_fit_mask, NodeLoad};
use hrp_nn::{masked_argmax, FastPolicy, Head, Kernel, QNet};
use std::fmt::Write as _;
use std::time::Instant;

/// Nodes in the benched placement geometry (matches the serve bench,
/// so a decision here is the decision that harness times end-to-end).
pub const INFER_BENCH_NODES: usize = 8;
/// GPUs on the *largest* nodes; the pool mixes 1- and 2-GPU nodes so
/// wide jobs exercise the fit mask.
pub const INFER_BENCH_GPUS_PER_NODE: usize = 2;

/// Sizing knobs of one `repro bench-infer` invocation.
#[derive(Debug, Clone, Copy)]
pub struct InferBenchConfig {
    /// Shrink the network and decision count for smoke runs.
    pub quick: bool,
    /// Network-init and state-pool seed.
    pub seed: u64,
    /// Repetitions per variant (`0` = the mode default).
    pub reps: usize,
}

impl InferBenchConfig {
    /// Hidden layers of the benched net: the placement agent's
    /// deployed geometry, `[32, 16]` under `--quick`.
    #[must_use]
    pub fn hidden(&self) -> Vec<usize> {
        if self.quick {
            vec![32, 16]
        } else {
            vec![64, 32]
        }
    }

    /// Distinct placement states in the evaluation pool.
    #[must_use]
    pub fn states(&self) -> usize {
        if self.quick {
            256
        } else {
            1024
        }
    }

    /// Block-timed decisions per rep: 20 000 for `--quick`, 200 000
    /// otherwise.
    #[must_use]
    pub fn decisions(&self) -> usize {
        if self.quick {
            20_000
        } else {
            200_000
        }
    }

    /// Individually-timed decisions behind the percentiles.
    #[must_use]
    pub fn percentile_samples(&self) -> usize {
        if self.quick {
            4_000
        } else {
            40_000
        }
    }

    /// Repetitions per variant (explicit `reps`, else 3 quick /
    /// 5 full).
    #[must_use]
    pub fn effective_reps(&self) -> usize {
        if self.reps > 0 {
            self.reps
        } else if self.quick {
            3
        } else {
            5
        }
    }
}

/// One inference variant's summary.
#[derive(Debug, Clone)]
pub struct InferVariantResult {
    /// Row label: `predict`, `fast_scalar`, or `fast`.
    pub variant: &'static str,
    /// Kernel behind the row (`reference`, `scalar`, `avx2`).
    pub kernel: &'static str,
    /// Nanoseconds per greedy decision, per rep (block timing).
    pub ns_per_decision: RunStats,
    /// Median of the individually-timed decisions, in nanoseconds.
    pub p50_ns: f64,
    /// 99th percentile of the individually-timed decisions.
    pub p99_ns: f64,
    /// FNV digest of the chosen action sequence over one pool sweep
    /// (equal across all variants; asserted).
    pub actions_digest: u64,
}

/// The full harness output.
#[derive(Debug, Clone)]
pub struct InferBenchReport {
    /// The configuration that produced it.
    pub cfg: InferBenchConfig,
    /// State floats per decision (`2·N + 2`).
    pub state_dim: usize,
    /// Actions (nodes) per decision.
    pub n_actions: usize,
    /// Hidden layers of the benched net.
    pub hidden: Vec<usize>,
    /// `predict`, `fast_scalar`, `fast`.
    pub variants: Vec<InferVariantResult>,
}

/// SplitMix64 step — the harness's only randomness source, so the
/// state pool is a pure function of the seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Synthesise the evaluation pool: `n` placement states encoded via
/// [`encode_placement_state`] over varied node loads (mixed 1-/2-GPU
/// nodes, so 2-GPU jobs get a partial fit mask), returned as
/// (flattened states, per-state fit masks).
fn state_pool(cfg: &InferBenchConfig) -> (Vec<f32>, Vec<u64>) {
    let n = cfg.states();
    let mut rng = cfg.seed ^ 0xda3e_39cb_94b9_5bdb;
    let mut states = Vec::with_capacity(n * (2 * INFER_BENCH_NODES + 2));
    let mut masks = Vec::with_capacity(n);
    let mut encoded = Vec::new();
    for _ in 0..n {
        let loads: Vec<NodeLoad> = (0..INFER_BENCH_NODES)
            .map(|node| {
                let r = splitmix64(&mut rng);
                // Node 0 is always full-width so no draw can leave a
                // 2-GPU job with an empty fit mask.
                let total_gpus = if node == 0 || r & 1 == 0 {
                    INFER_BENCH_GPUS_PER_NODE
                } else {
                    1
                };
                NodeLoad {
                    node,
                    total_gpus,
                    free_gpus: (r >> 1) as usize % (total_gpus + 1),
                    queued_jobs: (r >> 8) as usize % 5,
                    outstanding: (r >> 16) as f64 % 4096.0 * 0.37,
                }
            })
            .collect();
        let r = splitmix64(&mut rng);
        // 1-GPU jobs fit everywhere; 2-GPU jobs mask out the 1-GPU
        // nodes — both mask shapes appear in the pool.
        let gpus = 1 + (r & 1) as usize;
        let work = 30.0 + (r >> 1) as f64 % 1024.0;
        let mask = placement_fit_mask(&loads, gpus);
        assert!(mask != 0, "node 0 always fits");
        encode_placement_state(&loads, gpus, work, &mut encoded);
        states.extend_from_slice(&encoded);
        masks.push(mask);
    }
    (states, masks)
}

/// FNV-1a over a chosen-action sequence.
fn fnv1a(actions: impl Iterator<Item = usize>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in actions {
        h ^= a as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Time one variant: `reps` block-timed sweeps for the mean, then one
/// individually-timed pass for the percentiles, plus the
/// action-sequence digest of a pool sweep.
fn time_variant(
    variant: &'static str,
    kernel: &'static str,
    cfg: &InferBenchConfig,
    states: &[f32],
    masks: &[u64],
    dim: usize,
    mut greedy: impl FnMut(&[f32], u64) -> usize,
) -> InferVariantResult {
    let pool = masks.len();
    let state = |i: usize| &states[(i % pool) * dim..(i % pool) * dim + dim];
    // Digest pass (also warms caches and branch predictors).
    let actions_digest = fnv1a((0..pool).map(|i| greedy(state(i), masks[i % pool])));
    // Blackhole so the timed loops cannot be hoisted away.
    let mut sink = 0usize;
    let decisions = cfg.decisions();
    let mut samples = Vec::with_capacity(cfg.effective_reps());
    for _ in 0..cfg.effective_reps() {
        let start = Instant::now();
        for i in 0..decisions {
            sink = sink.wrapping_add(greedy(state(i), masks[i % pool]));
        }
        samples.push(start.elapsed().as_nanos() as f64 / decisions as f64);
    }
    let mut per_call: Vec<f64> = (0..cfg.percentile_samples())
        .map(|i| {
            let start = Instant::now();
            sink = sink.wrapping_add(greedy(state(i), masks[i % pool]));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let pct = |q: f64| per_call[((per_call.len() - 1) as f64 * q).round() as usize];
    std::hint::black_box(sink);
    InferVariantResult {
        variant,
        kernel,
        ns_per_decision: RunStats::from_samples(&samples),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        actions_digest,
    }
}

/// Run the full harness: the reference and both fast-path kernels,
/// equivalence-checked before timing is trusted.
///
/// # Panics
/// Panics if any variant disagrees with the reference on any pool
/// state, or if the auto-kernel fast path fails to beat the `predict`
/// reference mean — each would make the numbers meaningless, not
/// merely slow.
#[must_use]
pub fn run_infer_bench(cfg: &InferBenchConfig) -> InferBenchReport {
    let state_dim = 2 * INFER_BENCH_NODES + 2;
    let n_actions = INFER_BENCH_NODES;
    let hidden = cfg.hidden();
    let net = QNet::new(state_dim, &hidden, n_actions, Head::Dueling, cfg.seed);
    let (states, masks) = state_pool(cfg);

    let mut fast_scalar = FastPolicy::with_kernel(&net, Kernel::Scalar);
    let mut fast_auto = FastPolicy::new(&net);
    // The contract behind every row: same action everywhere.
    for (i, &mask) in masks.iter().enumerate() {
        let s = &states[i * state_dim..(i + 1) * state_dim];
        let q = net.predict(s);
        let reference = masked_argmax(&q, |a| mask & (1 << a) != 0).expect("non-empty mask");
        assert_eq!(
            fast_scalar.greedy(s, mask),
            reference,
            "scalar fast path diverged from predict on pool state {i}"
        );
        assert_eq!(
            fast_auto.greedy(s, mask),
            reference,
            "{} fast path diverged from predict on pool state {i}",
            fast_auto.kernel().name()
        );
    }

    let variants = vec![
        time_variant(
            "predict",
            "reference",
            cfg,
            &states,
            &masks,
            state_dim,
            |s, m| {
                let q = net.predict(s);
                masked_argmax(&q, |a| m & (1 << a) != 0).expect("non-empty mask")
            },
        ),
        time_variant(
            "fast_scalar",
            Kernel::Scalar.name(),
            cfg,
            &states,
            &masks,
            state_dim,
            {
                let p = &mut fast_scalar;
                move |s, m| p.greedy(s, m)
            },
        ),
        time_variant(
            "fast",
            fast_auto.kernel().name(),
            cfg,
            &states,
            &masks,
            state_dim,
            {
                let p = &mut fast_auto;
                move |s, m| p.greedy(s, m)
            },
        ),
    ];
    assert_eq!(
        variants[0].actions_digest, variants[1].actions_digest,
        "scalar action digest diverged"
    );
    assert_eq!(
        variants[0].actions_digest, variants[2].actions_digest,
        "auto-kernel action digest diverged"
    );
    assert!(
        variants[2].ns_per_decision.mean < variants[0].ns_per_decision.mean,
        "fast path ({:.1} ns) must beat the predict reference ({:.1} ns)",
        variants[2].ns_per_decision.mean,
        variants[0].ns_per_decision.mean
    );

    InferBenchReport {
        cfg: *cfg,
        state_dim,
        n_actions,
        hidden,
        variants,
    }
}

/// A finite f64 as a JSON number (Rust's shortest-roundtrip rendering
/// is valid JSON for every finite value).
fn jnum(x: f64) -> String {
    debug_assert!(x.is_finite());
    format!("{x:?}")
}

/// Render the report as the `infer/v1` JSON document.
#[must_use]
pub fn render_infer_json(report: &InferBenchReport) -> String {
    let cfg = &report.cfg;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"infer/v1\",");
    let _ = writeln!(out, "  \"quick\": {},", cfg.quick);
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"nodes\": {INFER_BENCH_NODES},");
    let _ = writeln!(out, "  \"gpus_per_node\": {INFER_BENCH_GPUS_PER_NODE},");
    let _ = writeln!(out, "  \"state_dim\": {},", report.state_dim);
    let _ = writeln!(out, "  \"n_actions\": {},", report.n_actions);
    let hidden: Vec<String> = report.hidden.iter().map(ToString::to_string).collect();
    let _ = writeln!(out, "  \"hidden\": [{}],", hidden.join(", "));
    let _ = writeln!(out, "  \"states\": {},", cfg.states());
    let _ = writeln!(out, "  \"decisions_per_rep\": {},", cfg.decisions());
    let _ = writeln!(out, "  \"reps\": {},", cfg.effective_reps());
    let _ = writeln!(out, "  \"rows\": [");
    let mut first = true;
    for v in &report.variants {
        if !first {
            let _ = writeln!(out, ",");
        }
        first = false;
        let s = &v.ns_per_decision;
        let _ = write!(
            out,
            "    {{\"variant\": \"{}\", \"kernel\": \"{}\", \
             \"ns_per_decision\": {}, \"std_err\": {}, \
             \"ci95_lo\": {}, \"ci95_hi\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \
             \"actions_digest\": \"{:016x}\"}}",
            v.variant,
            v.kernel,
            jnum(s.mean),
            jnum(s.std_err),
            jnum(s.ci95_lo),
            jnum(s.ci95_hi),
            jnum(v.p50_ns),
            jnum(v.p99_ns),
            v.actions_digest,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A down-sized config so the harness tests stay fast; everything
    /// else (pool synthesis, equivalence asserts, JSON shape) is the
    /// real path.
    fn tiny_cfg() -> InferBenchConfig {
        InferBenchConfig {
            quick: true,
            seed: 42,
            reps: 1,
        }
    }

    #[test]
    fn pool_is_deterministic_and_mixes_mask_shapes() {
        let cfg = tiny_cfg();
        let (s1, m1) = state_pool(&cfg);
        let (s2, m2) = state_pool(&cfg);
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
        assert_eq!(s1.len(), cfg.states() * (2 * INFER_BENCH_NODES + 2));
        let full = (1u64 << INFER_BENCH_NODES) - 1;
        assert!(m1.contains(&full), "no 1-GPU-job mask");
        assert!(m1.iter().any(|&m| m != full), "no partial mask");
        assert!(m1.iter().all(|&m| m != 0));
    }

    #[test]
    fn harness_rows_agree_and_fast_wins() {
        let report = run_infer_bench(&tiny_cfg());
        assert_eq!(report.variants.len(), 3);
        let d = report.variants[0].actions_digest;
        assert!(report.variants.iter().all(|v| v.actions_digest == d));
        assert!(report.variants[2].ns_per_decision.mean < report.variants[0].ns_per_decision.mean);
        assert!(report.variants.iter().all(|v| v.p50_ns <= v.p99_ns));
    }

    #[test]
    fn json_document_has_the_promised_fields() {
        let json = render_infer_json(&run_infer_bench(&tiny_cfg()));
        for field in [
            "\"schema\": \"infer/v1\"",
            "\"ns_per_decision\"",
            "\"std_err\"",
            "\"ci95_lo\"",
            "\"ci95_hi\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"actions_digest\"",
            "\"variant\": \"predict\"",
            "\"variant\": \"fast_scalar\"",
            "\"variant\": \"fast\"",
            "\"kernel\": \"reference\"",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // "inf" alone would false-positive on the schema name.
        assert!(!json.contains("NaN") && !json.contains(": inf") && !json.contains(": -inf"));
    }

    #[test]
    fn config_sizing() {
        let mut cfg = tiny_cfg();
        cfg.reps = 0;
        assert_eq!(cfg.decisions(), 20_000);
        assert_eq!(cfg.effective_reps(), 3);
        assert_eq!(cfg.hidden(), vec![32, 16]);
        cfg.quick = false;
        assert_eq!(cfg.decisions(), 200_000);
        assert_eq!(cfg.effective_reps(), 5);
        assert_eq!(cfg.hidden(), vec![64, 32]);
        cfg.reps = 7;
        assert_eq!(cfg.effective_reps(), 7);
    }
}
