//! Criterion benchmarks for the deployed inference fast path: one
//! greedy placement decision through each variant on the geometry
//! `PolicySelector` actually serves (`2·N + 2` state floats, one
//! action per node, dueling head).
//!
//! The ladder mirrors `repro bench-infer`'s rows — the allocating
//! `predict` reference, the preplanned scalar kernel, and the
//! auto-detected SIMD kernel — plus the full `PolicySelector::select`
//! path (mask + encode + greedy), so the per-decision cost can be
//! split into encoding and inference.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hrp_core::cluster_env::{NodeLoad, PolicySelector};
use hrp_core::NodeSelector;
use hrp_nn::{masked_argmax, FastPolicy, Head, Kernel, QNet};

const NODES: usize = 8;
const STATE_DIM: usize = 2 * NODES + 2;

fn placement_net() -> QNet {
    QNet::new(STATE_DIM, &[64, 32], NODES, Head::Dueling, 7)
}

fn sample_state() -> Vec<f32> {
    (0..STATE_DIM)
        .map(|i| (i % 11) as f32 * 0.09 - 0.4)
        .collect()
}

fn sample_loads() -> Vec<NodeLoad> {
    (0..NODES)
        .map(|node| NodeLoad {
            node,
            total_gpus: 2,
            free_gpus: node % 3,
            queued_jobs: node % 4,
            outstanding: 40.0 * (node % 5) as f64,
        })
        .collect()
}

fn bench_greedy_decision(c: &mut Criterion) {
    let net = placement_net();
    let x = sample_state();
    let mask = (1u64 << NODES) - 1;
    c.bench_function("infer_predict_reference", |b| {
        b.iter(|| {
            let q = net.predict(black_box(&x));
            black_box(masked_argmax(&q, |a| mask & (1 << a) != 0))
        })
    });
    let mut scalar = FastPolicy::with_kernel(&net, Kernel::Scalar);
    c.bench_function("infer_fast_scalar", |b| {
        b.iter(|| black_box(scalar.greedy(black_box(&x), mask)))
    });
    let mut auto = FastPolicy::new(&net);
    c.bench_function(&format!("infer_fast_{}", auto.kernel().name()), |b| {
        b.iter(|| black_box(auto.greedy(black_box(&x), mask)))
    });
}

/// The full deployed path: fit mask, state encoding, and the greedy
/// pass, through the same `PolicySelector` the cluster simulator and
/// serve loop consult.
fn bench_selector_path(c: &mut Criterion) {
    let net = placement_net();
    let loads = sample_loads();
    let mut selector = PolicySelector::new(FastPolicy::new(&net));
    c.bench_function("infer_policy_selector_select", |b| {
        b.iter(|| black_box(selector.select(1, black_box(55.0), black_box(&loads))))
    });
}

criterion_group!(benches, bench_greedy_decision, bench_selector_path);
criterion_main!(benches);
