//! Property tests (proptest) for the single-sample inference path
//! (`hrp_nn::infer`):
//!
//! * `FastPolicy::infer` is **bit-identical** to a scalar reference —
//!   per output row the bias, then `acc += w·x` for `k` ascending
//!   (multiply, then add); ReLU as `if v < 0.0`; the dueling combine
//!   over the unpadded advantages — over arbitrary network shapes
//!   (plain and dueling heads, every row-padding and panel-group case),
//!   weights that produce signed zeros, and states holding ±0.0, ±inf,
//!   NaN and subnormals;
//! * `FastPolicy::greedy` picks exactly the reference `masked_argmax`
//!   action under arbitrary non-empty masks;
//! * the deployed `PolicySelector` path agrees with the reference on
//!   `placement_fit_mask` edge cases: a single-node cluster, a
//!   saturated cluster (no free GPU anywhere), and wide jobs that mask
//!   out narrow nodes.

use hrp::core::cluster_env::{
    encode_placement_state, placement_fit_mask, placement_state_dim, NodeLoad, PolicySelector,
};
use hrp::core::rl::DqnSnapshot;
use hrp::core::NodeSelector;
use hrp::nn::net::{Head, QNet};
use hrp::nn::{masked_argmax, FastPolicy, InferScratch};
use proptest::prelude::*;

/// The scalar reference, read off `net`'s flat parameters (the trunk's
/// `hidden` layers, then the `head`).
fn reference(net: &QNet, hidden: &[usize], head: Head, state: &[f32]) -> Vec<f32> {
    let mut params = Vec::new();
    net.write_params(&mut params);
    let mut rest = &params[..];
    let mut linear = |x: &[f32], rows: usize, relu: bool| -> Vec<f32> {
        let (w, tail) = rest.split_at(rows * x.len());
        let (b, tail) = tail.split_at(rows);
        rest = tail;
        w.chunks(x.len())
            .zip(b)
            .map(|(row, &bias)| {
                let mut acc = bias;
                for (wk, xk) in row.iter().zip(x) {
                    acc += wk * xk;
                }
                if relu && acc < 0.0 {
                    acc = 0.0;
                }
                acc
            })
            .collect()
    };
    let mut x = state.to_vec();
    for &rows in hidden {
        x = linear(&x, rows, true);
    }
    let n = net.n_actions();
    match head {
        Head::Plain => linear(&x, n, false),
        Head::Dueling => {
            let v = linear(&x, 1, false)[0];
            let a = linear(&x, n, false);
            let mean = a.iter().sum::<f32>() / n as f32;
            a.iter().map(|ai| v + ai - mean).collect()
        }
    }
}

/// Bitwise equality, except that any NaN equals any NaN: which
/// operand's sign and payload a NaN carries is not fixed.
fn same_bits(fast: &[f32], reference: &[f32]) -> bool {
    fast.len() == reference.len()
        && fast
            .iter()
            .zip(reference)
            .all(|(f, r)| f.to_bits() == r.to_bits() || (f.is_nan() && r.is_nan()))
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

/// Shapes that hit every padding case: rows ≡ 0 mod 8, odd rows,
/// single-row (the dueling V head), fewer than one panel, whole groups
/// of four panels, groups followed by one to three lone panels, three
/// hidden layers, and more actions than the random shapes draw.
const PADDING_SHAPES: [(usize, &[usize], usize); 6] = [
    (4, &[8, 6], 3),
    (7, &[33], 5),
    (2, &[3], 1),
    (18, &[64, 32], 8),
    (5, &[40, 24, 16], 12),
    (9, &[56], 33),
];

/// State values the kernel must carry through exactly: signed zeros,
/// infinities (rows turn to ±inf or NaN = inf − inf, and ReLU must keep
/// NaN while zeroing −inf), NaN, and a subnormal.
const SPECIALS: [f32; 6] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40];

/// Strategy: one of [`PADDING_SHAPES`] half the time, otherwise an
/// arbitrary small shape — state dim, one or two hidden layers (widths
/// crossing the 8-row panel boundary in both directions, and up to nine
/// panels), action count — with either head and any init seed.
fn arb_shape() -> impl Strategy<Value = (usize, Vec<usize>, usize, Head, u64)> {
    (
        0usize..2 * PADDING_SHAPES.len(),
        1usize..=20,
        proptest::collection::vec(1usize..=72, 1..=2),
        1usize..=12,
        0u32..=1,
        0u64..1_000,
    )
        .prop_map(|(pick, dim, hidden, n_actions, head, seed)| {
            let head = if head == 0 {
                Head::Plain
            } else {
                Head::Dueling
            };
            match PADDING_SHAPES.get(pick) {
                Some(&(dim, hidden, n_actions)) => (dim, hidden.to_vec(), n_actions, head, seed),
                None => (dim, hidden, n_actions, head, seed),
            }
        })
}

/// Every bias and the first layer's weights `−0.0`, every later weight
/// `+0.0`: over a state of positive signs, every pre-activation is
/// exactly `−0.0`, which ReLU must keep and each layer passes on.
fn signed_zero_params(net: &mut QNet, dim: usize, hidden: &[usize], head: Head) {
    let (last, n) = (hidden[hidden.len() - 1], net.n_actions());
    let mut shapes: Vec<(usize, usize)> = hidden
        .iter()
        .scan(dim, |cols, &rows| {
            Some((rows, std::mem::replace(cols, rows)))
        })
        .collect();
    if head == Head::Dueling {
        shapes.push((1, last));
    }
    shapes.push((n, last));
    let mut params = Vec::new();
    for (i, (rows, cols)) in shapes.into_iter().enumerate() {
        let w = if i == 0 { -0.0 } else { 0.0 };
        params.extend(std::iter::repeat_n(w, rows * cols));
        params.extend(std::iter::repeat_n(-0.0f32, rows));
    }
    net.read_params(&params);
}

proptest! {
    // The fast path reproduces the scalar reference bit for bit, and
    // its greedy action is the reference masked argmax, over arbitrary
    // shapes, weights, states and masks.
    #[test]
    fn fast_policy_bit_identical_to_predict(
        shape in arb_shape(),
        weights in 0u32..=2,
        special in 0u32..=2,
        at in 0usize..64,
        state_seed in 0u64..u64::MAX / 2,
        raw_mask in 1u64..u64::MAX / 2,
    ) {
        let (dim, hidden, n_actions, head, net_seed) = shape;
        let mut net = QNet::new(dim, &hidden, n_actions, head, net_seed);
        match weights {
            // Zero weights: every output is its bias.
            1 => net.read_params(&vec![0.0; net.num_params()]),
            2 => signed_zero_params(&mut net, dim, &hidden, head),
            _ => {}
        }
        let fast = FastPolicy::new(&net);
        let mut scratch = InferScratch::default();
        let mut gen = lcg_stream(state_seed);
        for i in 0..4 {
            let mut state: Vec<f32> = (0..dim).map(|_| gen()).collect();
            if weights == 2 {
                state.iter_mut().for_each(|v| *v = v.abs());
            }
            match special {
                // One special value among ordinary ones ...
                1 => state[(at + i) % dim] = SPECIALS[(at + i) % SPECIALS.len()],
                // ... or nothing but special values.
                2 => {
                    for (j, v) in state.iter_mut().enumerate() {
                        *v = SPECIALS[(i + j) % SPECIALS.len()];
                    }
                }
                _ => {}
            }
            let expect = reference(&net, &hidden, head, &state);
            prop_assert_eq!(expect.len(), n_actions);
            if weights == 2 && special == 0 && head == Head::Plain {
                prop_assert!(expect.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
            }
            let got = fast.infer(&state, &mut scratch);
            prop_assert!(same_bits(got, &expect), "{:?} state {:?}: {:?} vs {:?}", head, state, got, expect);
            let mut mask = raw_mask & ((1u64 << n_actions) - 1);
            if mask == 0 {
                mask = 1;
            }
            let best = masked_argmax(&expect, |a| mask & (1 << a) != 0);
            prop_assert_eq!(Some(fast.greedy(&state, mask, &mut scratch)), best);
        }
    }

    // The full deployed path — fit mask, state encoding, snapshot
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

        let dim = placement_state_dim(nodes);
        let hidden = [16, 8];
        let net = QNet::new(dim, &hidden, nodes, Head::Dueling, net_seed);
        let mut selector = PolicySelector::new(DqnSnapshot::new(&net));
        let picked = selector.select(gpus, work, &loads);

        let mask = placement_fit_mask(&loads, gpus);
        prop_assert!(mask & (1 << picked) != 0, "picked a node outside the fit mask");
        let mut state = Vec::new();
        encode_placement_state(&loads, gpus, work, &mut state);
        let q = reference(&net, &hidden, Head::Dueling, &state);
        let expect = masked_argmax(&q, |a| mask & (1 << a) != 0);
        prop_assert_eq!(Some(picked), expect);
        // The capacity mask ignores saturation: a single-node cluster
        // always places on node 0, free GPUs or not.
        if nodes == 1 {
            prop_assert_eq!(picked, 0);
        }
    }
}
