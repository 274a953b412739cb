//! Property tests (proptest) for the deployed inference fast path
//! (`hrp_nn::infer`):
//!
//! * `FastPolicy::infer` is **bit-identical** to the reference
//!   `QNet::predict_batch_into` at batch 1 over arbitrary network
//!   shapes (plain and dueling heads, every row-padding and panel-group
//!   case) and arbitrary states;
//! * `FastPolicy::greedy` picks exactly the reference
//!   `masked_argmax` action under arbitrary non-empty masks;
//! * the deployed `PolicySelector` path agrees with the reference on
//!   `placement_fit_mask` edge cases: a single-node cluster, a
//!   saturated cluster (no free GPU anywhere), and wide jobs that
//!   mask out narrow nodes.

use hrp::core::cluster_env::{
    encode_placement_state, placement_fit_mask, NodeLoad, PolicySelector,
};
use hrp::core::NodeSelector;
use hrp::nn::net::{Head, QNet};
use hrp::nn::{masked_argmax, FastPolicy, PredictScratch};
use proptest::prelude::*;

/// The reference: the training-side inference forward at batch 1.
fn predict(net: &QNet, state: &[f32]) -> Vec<f32> {
    let mut q = Vec::new();
    net.predict_batch_into(state, 1, &mut PredictScratch::default(), &mut q);
    q
}

/// Deterministic state stream (same generator the batch-equivalence
/// suite uses), so a proptest case is a pure function of its inputs.
fn lcg_stream(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }
}

/// Strategy: an arbitrary small network shape — state dim, one or two
/// hidden layers (widths crossing the 8-row panel boundary in both
/// directions, and up to nine panels: whole groups of four, each alone
/// or followed by one to three lone panels), action count, head, and
/// init seed.
fn arb_shape() -> impl Strategy<Value = (usize, Vec<usize>, usize, Head, u64)> {
    (
        1usize..=20,
        proptest::collection::vec(1usize..=72, 1..=2),
        1usize..=12,
        0u32..=1,
        0u64..1_000,
    )
        .prop_map(|(dim, hidden, n_actions, head, seed)| {
            let head = if head == 0 {
                Head::Plain
            } else {
                Head::Dueling
            };
            (dim, hidden, n_actions, head, seed)
        })
}

proptest! {
    // The fast path reproduces the reference forward pass bit-for-bit,
    // and its greedy action is the reference masked argmax, over
    // arbitrary shapes, states, and masks.
    #[test]
    fn fast_policy_bit_identical_to_predict(
        shape in arb_shape(),
        state_seed in 0u64..u64::MAX / 2,
        raw_mask in 1u64..u64::MAX / 2,
    ) {
        let (dim, hidden, n_actions, head, net_seed) = shape;
        let net = QNet::new(dim, &hidden, n_actions, head, net_seed);
        let mut fast = FastPolicy::new(&net);
        let mut gen = lcg_stream(state_seed);
        for _ in 0..4 {
            let state: Vec<f32> = (0..dim).map(|_| gen()).collect();
            let reference = predict(&net, &state);
            prop_assert_eq!(reference.len(), n_actions);
            let bits = |q: &[f32]| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let expect = bits(&reference);
            prop_assert_eq!(&bits(fast.infer(&state)), &expect);
            let mut mask = raw_mask & ((1u64 << n_actions) - 1);
            if mask == 0 {
                mask = 1;
            }
            let best = masked_argmax(&reference, |a| mask & (1 << a) != 0);
            prop_assert_eq!(Some(fast.greedy(&state, mask)), best);
        }
    }

    // The full deployed path — fit mask, state encoding, fast-path
    // greedy — picks the reference action on arbitrary clusters,
    // including the placement_fit_mask edge cases: one node,
    // saturated nodes (zero free GPUs), and wide jobs that rule out
    // the 1-GPU nodes.
    #[test]
    fn policy_selector_matches_reference_on_fit_mask_edge_cases(
        widths in proptest::collection::vec(1usize..=2, 1..=10),
        free_seed in 0u64..1_000,
        net_seed in 0u64..100,
        wide in 0u32..=1,
        saturated in 0u32..=1,
    ) {
        let gpus = if wide == 1 { 2 } else { 1 };
        // A wide job needs at least one 2-GPU node to be placeable.
        let mut widths = widths;
        if gpus == 2 {
            widths[0] = 2;
        }
        let nodes = widths.len();
        let mut gen = lcg_stream(free_seed);
        let loads: Vec<NodeLoad> = widths
            .iter()
            .enumerate()
            .map(|(node, &total_gpus)| NodeLoad {
                node,
                total_gpus,
                free_gpus: if saturated == 1 {
                    0
                } else {
                    (gen().abs() * 10.0) as usize % (total_gpus + 1)
                },
                queued_jobs: (gen().abs() * 10.0) as usize % 4,
                outstanding: f64::from(gen().abs()) * 300.0,
            })
            .collect();
        let work = 20.0 + f64::from(gen().abs()) * 200.0;

        let dim = 2 * nodes + 2;
        let net = QNet::new(dim, &[16, 8], nodes, Head::Dueling, net_seed);
        let mut selector = PolicySelector::new(FastPolicy::new(&net));
        let picked = selector.select(gpus, work, &loads);

        let mask = placement_fit_mask(&loads, gpus);
        prop_assert!(mask & (1 << picked) != 0, "picked a node outside the fit mask");
        let mut state = Vec::new();
        encode_placement_state(&loads, gpus, work, &mut state);
        let q = predict(&net, &state);
        let reference = masked_argmax(&q, |a| mask & (1 << a) != 0);
        prop_assert_eq!(Some(picked), reference);
        // The capacity mask ignores saturation: a single-node cluster
        // always places on node 0, free GPUs or not.
        if nodes == 1 {
            prop_assert_eq!(picked, 0);
        }
    }
}
