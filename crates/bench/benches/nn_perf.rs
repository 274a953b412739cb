//! Criterion benchmarks for the learning substrate: forward/backward
//! passes of the paper-size network and one full DQN learning step —
//! the costs that dominate the paper's "couple of hours" offline phase.
//!
//! The forward and backward passes are measured in both forms: the
//! batched kernels that stream every weight matrix once per minibatch
//! (`*_batch32`) and the per-sample loop that streams them once per
//! sample (`*_per_sample_x32`); the ratio between the paired numbers is
//! the batching speedup. The learning step exists only batched.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hrp_nn::net::{Head, QNet};
use hrp_nn::replay::{MiniBatch, ReplayBuffer, Transition};
use hrp_nn::sharded::ShardedReplay;
use hrp_nn::{DqnAgent, DqnConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const STATE_DIM: usize = 204; // W=12 × 17 features
const BATCH: usize = 32;

fn paper_net() -> QNet {
    QNet::new(STATE_DIM, &[512, 256, 128], 29, Head::Dueling, 1)
}

fn batch_input() -> Vec<f32> {
    (0..BATCH * STATE_DIM)
        .map(|i| (i % 13) as f32 * 0.05 - 0.3)
        .collect()
}

fn bench_forward(c: &mut Criterion) {
    let mut net = paper_net();
    let x = vec![0.25f32; STATE_DIM];
    c.bench_function("qnet_forward_paper_arch", |b| {
        b.iter(|| black_box(net.forward(black_box(&x))))
    });
}

fn bench_forward_batched_vs_per_sample(c: &mut Criterion) {
    let mut net = paper_net();
    let xb = batch_input();
    let mut out = Vec::new();
    c.bench_function("qnet_forward_batch32", |b| {
        b.iter(|| {
            net.forward_batch(black_box(&xb), BATCH, &mut out);
            black_box(out.len())
        })
    });
    c.bench_function("qnet_forward_per_sample_x32", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..BATCH {
                acc += net
                    .forward(black_box(&xb[i * STATE_DIM..(i + 1) * STATE_DIM]))
                    .len();
            }
            black_box(acc)
        })
    });
}

fn bench_backward(c: &mut Criterion) {
    let mut net = paper_net();
    let x = vec![0.25f32; STATE_DIM];
    let dq = vec![0.1f32; 29];
    c.bench_function("qnet_forward_backward_paper_arch", |b| {
        b.iter(|| {
            let q = net.forward(black_box(&x));
            net.backward(black_box(&dq));
            black_box(q)
        })
    });
}

fn bench_backward_batched_vs_per_sample(c: &mut Criterion) {
    let mut net = paper_net();
    let xb = batch_input();
    let dqb = vec![0.01f32; BATCH * 29];
    let mut out = Vec::new();
    c.bench_function("qnet_forward_backward_batch32", |b| {
        b.iter(|| {
            net.forward_batch(black_box(&xb), BATCH, &mut out);
            net.backward_batch(black_box(&dqb), BATCH);
            black_box(out.len())
        })
    });
    c.bench_function("qnet_forward_backward_per_sample_x32", |b| {
        b.iter(|| {
            for i in 0..BATCH {
                net.forward(black_box(&xb[i * STATE_DIM..(i + 1) * STATE_DIM]));
                net.backward(black_box(&dqb[i * 29..(i + 1) * 29]));
            }
        })
    });
}

fn sample_transition(i: usize) -> Transition {
    Transition {
        state: vec![0.1 * (i % 7) as f32; STATE_DIM],
        action: i % 29,
        reward: 1.0,
        next_state: vec![0.1; STATE_DIM],
        done: i.is_multiple_of(3),
        next_mask: u64::MAX >> (64 - 29),
    }
}

fn filled_agent(shards: usize) -> DqnAgent {
    let mut cfg = DqnConfig::paper(STATE_DIM, 29);
    cfg.shards = shards;
    let mut agent = DqnAgent::new(cfg);
    for i in 0..64 {
        agent.remember_to(i % shards, sample_transition(i));
    }
    agent
}

fn bench_learn_step(c: &mut Criterion) {
    let mut agent = filled_agent(1);
    c.bench_function("dqn_learn_step_batch32", |b| {
        b.iter(|| black_box(agent.learn()))
    });
}

/// `sharded_vs_single`: the learner-side cost of the replay path — the
/// single ring every learner sample serialises on vs the stratified
/// sharded draw — in isolation and through a full DQN learning step.
fn bench_sharded_vs_single(c: &mut Criterion) {
    let mut single = ReplayBuffer::new(20_000);
    let mut sharded = ShardedReplay::new(20_000, 4);
    for i in 0..4096 {
        single.push(sample_transition(i));
        sharded.push_to(i % 4, sample_transition(i));
    }
    let mut rng = SmallRng::seed_from_u64(1);
    let mut mb = MiniBatch::new();
    c.bench_function("replay_sample32_single_ring", |b| {
        b.iter(|| {
            single.sample_into(BATCH, &mut rng, &mut mb);
            black_box(mb.len)
        })
    });
    c.bench_function("replay_sample32_sharded4", |b| {
        b.iter(|| {
            sharded.sample_into(BATCH, &mut rng, &mut mb);
            black_box(mb.len)
        })
    });
    let mut agent = filled_agent(4);
    c.bench_function("dqn_learn_step_sharded4_batch32", |b| {
        b.iter(|| black_box(agent.learn()))
    });
}

criterion_group!(
    benches,
    bench_forward,
    bench_forward_batched_vs_per_sample,
    bench_backward,
    bench_backward_batched_vs_per_sample,
    bench_learn_step,
    bench_sharded_vs_single,
);
criterion_main!(benches);
