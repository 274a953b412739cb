//! Cross-crate guarantees of the batched tensor core and the parallel
//! rollout/evaluation pipeline:
//!
//! 1. a batched network pass gives every sample the bits of a
//!    one-sample pass, for both head architectures (property-style over
//!    random states);
//! 2. the batched DQN learning step reproduces a pinned golden bit for
//!    bit — 20 loss values and a digest of the online weights, for
//!    both heads, vanilla DQN at ragged sizes, and the paper's
//!    geometry;
//! 3. training with 1 worker and with 4 workers produces the same
//!    trained policy and therefore identical evaluation throughput for
//!    a fixed seed.

use hrp::core::metrics::evaluate_decision;
use hrp::nn::net::{Head, LearnScratch, PredictScratch, QNet};
use hrp::nn::replay::Transition;
use hrp::nn::{DqnAgent, DqnConfig};
use hrp::prelude::*;

fn lcg_stream(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }
}

#[test]
fn forward_batch_equals_per_sample_forward_property() {
    for head in [Head::Plain, Head::Dueling] {
        let net = QNet::new(10, &[24, 12], 5, head, 99);
        let mut gen = lcg_stream(7);
        // 16 random "cases": random batch sizes and state contents.
        for case in 0..16 {
            let batch = 1 + case % 7;
            let x: Vec<f32> = (0..batch * 10).map(|_| gen()).collect();
            let mut q_batch = Vec::new();
            net.forward_batch(&x, batch, &mut LearnScratch::default(), &mut q_batch);
            let (mut scratch, mut q_one) = (PredictScratch::default(), Vec::new());
            for b in 0..batch {
                net.predict_batch_into(&x[b * 10..(b + 1) * 10], 1, &mut scratch, &mut q_one);
                assert_eq!(
                    q_batch[b * 5..(b + 1) * 5],
                    q_one,
                    "{head:?} case {case} sample {b}"
                );
            }
        }
    }
}

/// One pinned case of the batched learning step.
struct LearnGolden {
    name: &'static str,
    /// `f32::to_bits` of the loss `learn` returned at steps 1..=20.
    loss_bits: [u32; 20],
    /// FNV-1a over the bit patterns of the online weights after step 20.
    weights_fnv: u64,
}

fn fnv1a_weights(agent: &DqnAgent) -> u64 {
    let mut w = Vec::new();
    agent.online_net().write_params(&mut w);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in w.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The four pinned agents: both heads at a small geometry, a
/// vanilla-DQN agent whose every dimension is ragged against any tile
/// size, and the paper's 512/256/128 dueling double DQN.
fn golden_agent(name: &str) -> DqnAgent {
    let mut cfg = DqnConfig {
        state_dim: 6,
        n_actions: 4,
        hidden: vec![32, 16],
        gamma: 0.9,
        lr: 2e-3,
        batch_size: 32,
        target_sync_every: 8,
        buffer_capacity: 500,
        shards: 1,
        huber_delta: 1.0,
        double: true,
        head: Head::Dueling,
        seed: 11,
    };
    match name {
        "plain" => cfg.head = Head::Plain,
        "dueling" => {}
        "ragged_vanilla" => {
            cfg.state_dim = 7;
            cfg.n_actions = 5;
            cfg.hidden = vec![37, 19];
            cfg.batch_size = 13;
            cfg.double = false;
        }
        "paper" => {
            cfg = DqnConfig::paper(215, 18);
            cfg.buffer_capacity = 500;
        }
        other => panic!("unknown golden case {other}"),
    }
    let (dim, n) = (cfg.state_dim, cfg.n_actions);
    let mut agent = DqnAgent::new(cfg);
    let mut gen = lcg_stream(3);
    for i in 0..80 {
        agent.remember(Transition {
            state: (0..dim).map(|_| gen()).collect(),
            action: i % n,
            reward: gen(),
            next_state: (0..dim).map(|_| gen()).collect(),
            done: i % 6 == 0,
            next_mask: (1u64 << n) - 1 - u64::from(i % 5 == 0),
        });
    }
    agent
}

fn run_golden(name: &str) -> ([u32; 20], u64) {
    let mut agent = golden_agent(name);
    let mut loss_bits = [0u32; 20];
    for bits in &mut loss_bits {
        *bits = agent.learn().expect("buffer holds a batch").to_bits();
    }
    (loss_bits, fnv1a_weights(&agent))
}

/// Captured on the commit before the register-tiled kernels, the
/// cache-free bootstrap forwards and the fused Adam sweep landed; all
/// three must reproduce it, on any target-feature set.
fn learn_goldens() -> Vec<LearnGolden> {
    vec![
        LearnGolden {
            name: "plain",
            loss_bits: [
                0x3f19e083, 0x3f3f101f, 0x3f151f1f, 0x3f196d8d, 0x3ec506e8, 0x3f132f84, 0x3f35e01a,
                0x3edb2e25, 0x3ef57118, 0x3f017d5b, 0x3e921159, 0x3f2b39c4, 0x3ec2f203, 0x3ea0e194,
                0x3ef47d91, 0x3ed90907, 0x3ef57ea5, 0x3eaf91b6, 0x3ebd7a8a, 0x3e9f6f56,
            ],
            weights_fnv: 0x4dcf203b751315b3,
        },
        LearnGolden {
            name: "dueling",
            loss_bits: [
                0x3f51056c, 0x3f128d81, 0x3f669e7d, 0x3ea16657, 0x3f3da576, 0x3ee81a36, 0x3eff741b,
                0x3eee01a6, 0x3eea2807, 0x3ed25d66, 0x3e8037f0, 0x3ebd29de, 0x3ee2c540, 0x3ebbe413,
                0x3ea7ab53, 0x3e44e55c, 0x3ef2ceef, 0x3e99d60e, 0x3e8fb9ba, 0x3ea417c5,
            ],
            weights_fnv: 0xce7db0f9ace8a342,
        },
        // The one-ring twin of the four-shard case this pinned until the
        // sharded replay went; captured on the commit before, where one
        // shard was the same ring.
        LearnGolden {
            name: "ragged_vanilla",
            loss_bits: [
                0x3f0fe35f, 0x3f273894, 0x3ef7a6a3, 0x3ea7cd45, 0x3e7d0782, 0x3f0149ad, 0x3ed72214,
                0x3ef361a7, 0x3e140a82, 0x3e8ed814, 0x3eae41da, 0x3ebd34b8, 0x3dc2cbf3, 0x3e4d8f65,
                0x3ec619da, 0x3ebd0013, 0x3ef90aed, 0x3f078d96, 0x3e9793fc, 0x3f02d095,
            ],
            weights_fnv: 0xfe5a5140a52d8bac,
        },
        LearnGolden {
            name: "paper",
            loss_bits: [
                0x3f519a91, 0x3ee7e99b, 0x3ee41406, 0x3ecfb805, 0x3e88c542, 0x3e4afa22, 0x3e76458f,
                0x3ead2009, 0x3e48b156, 0x3ea1a1fb, 0x3e35aafc, 0x3e0a3e77, 0x3e8e5069, 0x3de46dbd,
                0x3e457d36, 0x3ddffa0e, 0x3e30ab38, 0x3da57e1e, 0x3e08b007, 0x3d97883d,
            ],
            weights_fnv: 0x57b3161d02cc1c7d,
        },
    ]
}

#[test]
fn batched_learning_step_matches_the_pinned_golden() {
    for golden in learn_goldens() {
        let (loss_bits, weights_fnv) = run_golden(golden.name);
        for (step, (got, want)) in loss_bits.iter().zip(golden.loss_bits.iter()).enumerate() {
            assert_eq!(
                got,
                want,
                "{}: loss at step {} is {} ({got:#010x}), pinned {} ({want:#010x})",
                golden.name,
                step + 1,
                f32::from_bits(*got),
                f32::from_bits(*want)
            );
        }
        assert_eq!(
            weights_fnv, golden.weights_fnv,
            "{}: online-weight digest {weights_fnv:#018x}, pinned {:#018x}",
            golden.name, golden.weights_fnv
        );
    }
}

/// Prints the pins of [`learn_goldens`]: `cargo test --test
/// batch_parallel -- --ignored --nocapture print_learn_goldens`.
#[test]
#[ignore = "pin printer"]
fn print_learn_goldens() {
    for name in ["plain", "dueling", "ragged_vanilla", "paper"] {
        let (loss_bits, weights_fnv) = run_golden(name);
        println!("LearnGolden {{\n    name: {name:?},\n    loss_bits: {loss_bits:#010x?},\n    weights_fnv: {weights_fnv:#018x},\n}},");
    }
}

#[test]
fn worker_count_does_not_change_eval_throughput() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let mut cfg = TrainConfig::quick();
    cfg.episodes = 12;

    let mut throughputs = Vec::new();
    for n_workers in [1usize, 4] {
        cfg.n_workers = n_workers;
        let (trained, _) = train(&suite, cfg.clone());
        let mut gen = QueueGenerator::new(77);
        let queue = gen.category_queue(&suite, "det", cfg.w, MixCategory::Balanced, false);
        let decision = trained.greedy_decision(
            &suite,
            &queue,
            &hrp::gpusim::engine::EngineConfig::default(),
        );
        let m = evaluate_decision("det", &suite, &queue, &decision);
        throughputs.push(m.throughput);
    }
    assert_eq!(
        throughputs[0], throughputs[1],
        "1-worker and 4-worker training must yield identical eval throughput"
    );
}
