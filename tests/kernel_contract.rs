//! Bit-level contract of the batched training kernels
//! (`hrp_nn::tensor::{matmul_bias_tn, matmul_dx_tn, matmul_dw_tn}`) and
//! of the cache-free forward built on them.
//!
//! Each kernel must equal, bit for bit, a naive scalar loop that spells
//! out the documented operation sequence of one output element — its
//! starting value, then the terms in ascending order, four at a time as
//! `acc + (((t0 + t1) + t2) + t3)`, then the leftovers one at a time —
//! for every shape (so for every full, one-row, slid-back and narrow
//! tile the kernels cut the output into) and for inputs that contain
//! `±0.0`, subnormals, `±inf` and NaN. Because no lane of a tile ever
//! reads another lane's sum, the same holds under any target-feature
//! set; CI runs this file at `target-cpu=x86-64` as well as natively.

use hrp::nn::net::{Head, LearnScratch, PredictScratch, QNet};
use hrp::nn::tensor::{matmul_bias_tn, matmul_dw_tn, matmul_dx_tn};
use proptest::prelude::*;

/// SplitMix64, so that a case is a pure function of its seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    }

    /// `n` values in (-1, 1), of which about `zeros` in 16 are `±0.0`
    /// and, when `special`, one in 16 is a subnormal and one in 256 an
    /// infinity or a NaN.
    fn values(&mut self, n: usize, zeros: u64, special: bool) -> Vec<f32> {
        (0..n)
            .map(|_| {
                let v = self.unit();
                let roll = self.next();
                if roll % 16 < zeros {
                    0.0f32.copysign(v)
                } else if !special {
                    v
                } else if (roll >> 8).is_multiple_of(16) {
                    (f32::MIN_POSITIVE * 0.25).copysign(v) * ((roll >> 16) % 4 + 1) as f32
                } else if (roll >> 8) % 256 == 1 {
                    [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(roll >> 16) as usize % 3]
                } else {
                    v
                }
            })
            .collect()
    }
}

/// The operation sequence every kernel documents for one output
/// element: `init`, then `a·x` terms in order, grouped four-wide. With
/// `skip_zero`, a group (or a leftover term) whose `a` are all `±0.0`
/// leaves the sum untouched.
fn reference_sum(init: f32, terms: &[(f32, f32)], skip_zero: bool) -> f32 {
    let mut acc = init;
    let quads = terms.chunks_exact(4);
    let tail = quads.remainder();
    for t in quads {
        if skip_zero && t.iter().all(|&(a, _)| a == 0.0) {
            continue;
        }
        acc += ((t[0].0 * t[0].1 + t[1].0 * t[1].1) + t[2].0 * t[2].1) + t[3].0 * t[3].1;
    }
    for &(a, x) in tail {
        if skip_zero && a == 0.0 {
            continue;
        }
        acc += a * x;
    }
    acc
}

/// Bit pattern with every NaN folded onto one: which NaN an operation
/// returns (payload, sign) is not specified by Rust and may legally
/// differ between a vector and a scalar instruction.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn transposed(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0; m.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = m[r * cols + c];
        }
    }
    t
}

/// All three kernels against the reference at one shape.
fn check_kernels(batch: usize, rows: usize, cols: usize, seed: u64, special: bool) {
    let mut gen = Gen(seed);
    let w = gen.values(rows * cols, 1, special);
    let b = gen.values(rows, 1, special);
    // Batch-minor activations and gradients, as the layers hold them;
    // the gradient is ReLU-gated, so mostly zero.
    let xt = gen.values(cols * batch, 2, special);
    let dyt = gen.values(rows * batch, 9, special);
    let at = |ctx: &str, i: usize, l: usize| format!("{ctx} [{i}][{l}] at {batch}×{rows}×{cols}");

    let mut yt = Vec::new();
    matmul_bias_tn(&w, &b, &xt, &mut yt, batch, rows, cols);
    assert_eq!(yt.len(), rows * batch);
    for r in 0..rows {
        for l in 0..batch {
            let terms: Vec<_> = (0..cols)
                .map(|k| (w[r * cols + k], xt[k * batch + l]))
                .collect();
            let want = reference_sum(b[r], &terms, false);
            assert_eq!(bits(yt[r * batch + l]), bits(want), "{}", at("y", r, l));
        }
    }

    let mut dxt = Vec::new();
    matmul_dx_tn(&w, &dyt, &mut dxt, batch, rows, cols);
    assert_eq!(dxt.len(), cols * batch);
    for c in 0..cols {
        for l in 0..batch {
            let terms: Vec<_> = (0..rows)
                .map(|r| (w[r * cols + c], dyt[r * batch + l]))
                .collect();
            let want = reference_sum(0.0, &terms, false);
            assert_eq!(bits(dxt[c * batch + l]), bits(want), "{}", at("dx", c, l));
        }
    }

    check_weight_gradient(
        &mut gen,
        &dyt,
        &transposed(&xt, cols, batch),
        batch,
        rows,
        cols,
        special,
    );
}

/// The weight-gradient kernel against the reference: it reads the
/// output gradient batch-minor (`dyt`, `rows × batch`, as the backward
/// pass holds it) and the input batch-major (`x`, `batch × cols`), and
/// adds to what is already there (`-0.0` included: a skipped group
/// must leave it `-0.0`).
fn check_weight_gradient(
    gen: &mut Gen,
    dyt: &[f32],
    x: &[f32],
    batch: usize,
    rows: usize,
    cols: usize,
    special: bool,
) {
    let at = |ctx: &str, i: usize, l: usize| format!("{ctx} [{i}][{l}] at {batch}×{rows}×{cols}");
    let gw0 = gen.values(rows * cols, 4, special);
    let gb0 = gen.values(rows, 4, special);
    let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
    matmul_dw_tn(&mut gw, &mut gb, dyt, x, batch, rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let terms: Vec<_> = (0..batch)
                .map(|l| (dyt[r * batch + l], x[l * cols + c]))
                .collect();
            let want = reference_sum(gw0[r * cols + c], &terms, true);
            assert_eq!(bits(gw[r * cols + c]), bits(want), "{}", at("gw", r, c));
        }
        // The bias gradient is the same grouped sum of `dy · 1`.
        let ones: Vec<_> = (0..batch).map(|l| (dyt[r * batch + l], 1.0)).collect();
        let want = reference_sum(gb0[r], &ones, false);
        assert_eq!(bits(gb[r]), bits(want), "{}", at("gb", r, 0));
    }
}

proptest! {
    #[test]
    fn kernels_are_bit_equal_to_the_scalar_reference(
        batch in 1usize..=70,
        rows in 1usize..=70,
        cols in 1usize..=70,
        seed in 0u64..u64::MAX / 2,
        special in 0u32..=1,
    ) {
        check_kernels(batch, rows, cols, seed, special == 1);
    }

    // The bootstrap passes of `DqnAgent::learn` go through the
    // cache-free forward; it must give the Q-values of the caching one.
    #[test]
    fn cache_free_forward_is_bit_equal_to_forward_batch(
        dim in 1usize..=40,
        hidden in proptest::collection::vec(1usize..=40, 1..=3),
        n_actions in 1usize..=20,
        dueling in 0u32..=1,
        batch in 1usize..=70,
        seed in 0u64..u64::MAX / 2,
    ) {
        let head = if dueling == 1 { Head::Dueling } else { Head::Plain };
        let net = QNet::new(dim, &hidden, n_actions, head, seed);
        let x = Gen(seed).values(batch * dim, 2, false);
        let (mut cached, mut free) = (Vec::new(), Vec::new());
        net.forward_batch(&x, batch, &mut LearnScratch::default(), &mut cached);
        net.predict_batch_into(&x, batch, &mut PredictScratch::default(), &mut free);
        prop_assert_eq!(cached.len(), batch * n_actions);
        let (cached, free): (Vec<_>, Vec<_>) =
            (cached.into_iter().map(f32::to_bits).collect(), free.into_iter().map(f32::to_bits).collect());
        prop_assert_eq!(cached, free);
    }
}

/// The lanes `DqnAgent::learn` runs a bootstrap block of `rows` rows at.
fn block_lanes(rows: usize) -> usize {
    match rows {
        1 => 1,
        2..=8 => 8,
        _ => 16,
    }
}

/// A row's Q-values do not depend on which rows share its batch, which
/// the learning step's bootstrap passes rely on: they gather only the
/// rows they need from the replay ring and run them in blocks of 16,
/// a shorter last block padded with copies of its first row. At every
/// batch width, through ±0.0, subnormals, ±inf and NaN, a gathered
/// subset of the rows (with repeats) gives those rows' bits of the
/// full-batch pass — in one pass of its own and in padded blocks.
#[test]
fn a_row_gets_the_same_bits_whatever_rows_share_its_batch() {
    let (dim, n) = (13, 7);
    for head in [Head::Dueling, Head::Plain] {
        let net = QNet::new(dim, &[37, 18], n, head, 5);
        let mut scratch = PredictScratch::default();
        for width in 1..=40 {
            let mut gen = Gen(width as u64);
            let x = gen.values(width * dim, 2, true);
            let mut full = Vec::new();
            net.predict_batch_into(&x, width, &mut scratch, &mut full);
            let want = |row: usize| {
                full[row * n..(row + 1) * n]
                    .iter()
                    .map(|&q| bits(q))
                    .collect::<Vec<_>>()
            };
            // About two rows in three, in a strided order, some twice.
            let subset: Vec<usize> = (0..width)
                .flat_map(|row| match gen.next() % 6 {
                    0 | 1 => vec![],
                    2 => vec![row, row],
                    _ => vec![row],
                })
                .map(|row| (row * 7 + width) % width)
                .collect();
            let gather = |rows: &[usize]| -> Vec<f32> {
                rows.iter()
                    .flat_map(|&row| x[row * dim..(row + 1) * dim].iter().copied())
                    .collect()
            };
            let mut got = Vec::new();
            if !subset.is_empty() {
                net.predict_batch_into(&gather(&subset), subset.len(), &mut scratch, &mut got);
                for (k, &row) in subset.iter().enumerate() {
                    let got: Vec<_> = got[k * n..(k + 1) * n].iter().map(|&q| bits(q)).collect();
                    assert_eq!(got, want(row), "{head:?}, width {width}, subset row {k}");
                }
            }
            for block in subset.chunks(16) {
                let lanes = block_lanes(block.len());
                let padded: Vec<usize> = (0..lanes)
                    .map(|l| *block.get(l).unwrap_or(&block[0]))
                    .collect();
                net.predict_batch_into(&gather(&padded), lanes, &mut scratch, &mut got);
                for (k, &row) in block.iter().enumerate() {
                    let got: Vec<_> = got[k * n..(k + 1) * n].iter().map(|&q| bits(q)).collect();
                    assert_eq!(
                        got,
                        want(row),
                        "{head:?}, width {width}, {lanes}-lane block row {k}"
                    );
                }
            }
        }
    }
}

/// Every way a shape can be ragged against the tiles: each dimension in
/// turn sweeps 1..=70 (every width below, at and between multiples of
/// the lane blocks; every leftover row count; every leftover reduction
/// length) while the other two cover all residues modulo four on both
/// sides of one full group.
#[test]
fn every_ragged_tile_combination_matches_the_reference() {
    let mut seed = 0;
    for long in 1..=70 {
        for a in 1..=9 {
            for b in [1, 2, 3, 4, 5, 8] {
                for (batch, rows, cols) in [(long, a, b), (a, long, b), (a, b, long)] {
                    seed += 1;
                    check_kernels(batch, rows, cols, seed, seed % 2 == 0);
                }
            }
        }
    }
}

/// The weight gradient at every input width from 1 to 40, so through
/// each of its lane blocks (32, 16, 8, 4 and 1 lanes) and every
/// slid-back ragged block between them, over row counts on both sides
/// of a multiple of four and batch sizes with and without a leftover
/// group, with special values in every other case.
#[test]
fn the_weight_gradient_is_bit_equal_at_every_width() {
    let mut seed = 1 << 20;
    for cols in 1..=40 {
        for rows in [1, 3, 4, 5, 8, 13] {
            for batch in [1, 4, 7, 32, 37] {
                seed += 1;
                let mut gen = Gen(seed);
                let special = seed % 2 == 0;
                let dyt = gen.values(rows * batch, 9, special);
                let x = gen.values(batch * cols, 2, special);
                check_weight_gradient(&mut gen, &dyt, &x, batch, rows, cols, special);
            }
        }
    }
}
