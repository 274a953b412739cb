//! Dense linear-algebra kernels (f32) over batches of any size, one
//! sample included.
//!
//! The Q-network is small (≲ 300k parameters), so simple cache-friendly
//! loops beat any heavyweight dependency. The kernels
//! ([`matmul_bias_tn`], [`matmul_dx_tn`], [`matmul_dw_tn`]) are
//! three views of one register-tiled routine (`accumulate_tiled`): a
//! tile of a few output rows × a block of **independent lanes** (batch
//! lanes in batch-minor layout, see [`transpose_into`]; weight columns
//! for the weight gradient) keeps its sums in registers over the whole
//! reduction and shares every operand load among its rows.
//!
//! # Operation order
//!
//! The kernels are safe Rust without `std::arch`, and a lane
//! never reads another lane's sum. Each output element therefore goes
//! through one fixed sequence of IEEE operations, whatever tile it
//! falls in and whatever vector width the compiler picks: from its
//! starting value (the bias, `+0.0`, or the gradient accumulated so
//! far), the products are added in ascending reduction index, four at
//! a time as `acc += ((a0·x0 + a1·x1) + a2·x2) + a3·x3`, then the
//! leftover `len % 4` one at a time as `acc += a·x`; never a fused
//! multiply-add. Trained weights are thus bit-identical on every host
//! and target-feature set (`tests/kernel_contract.rs` holds the
//! kernels to a scalar spelling of this sequence), and a sample gets
//! the same bits alone as inside a minibatch.

/// Source rows `r0..r0 + N` of [`transpose_into`]: `N` contiguous
/// entries of every `dst` row.
#[inline(always)]
fn transpose_strip<const N: usize>(
    src: &[f32],
    dst: &mut [f32],
    rows: usize,
    cols: usize,
    r0: usize,
) {
    let strip: [&[f32]; N] = std::array::from_fn(|i| &src[(r0 + i) * cols..][..cols]);
    for c in 0..cols {
        let d = &mut dst[c * rows + r0..][..N];
        for (d, s) in d.iter_mut().zip(strip) {
            *d = s[c];
        }
    }
}

/// Transpose a `rows × cols` row-major matrix into `dst` (resized to
/// `cols × rows`).
///
/// The batched kernels want their independent sums contiguous — batch
/// lanes for the forward and input-gradient passes, weight columns for
/// the weight gradient — hence these cheap `O(rows·cols)` transposes
/// around the `O(rows·cols·B)` kernels. The copy goes in strips of 16
/// source rows, one full cache line of every `dst` row at a time;
/// writing `dst` a single element per row instead costs ten times as
/// much when `rows` is a power of two, because those writes all land in
/// the same few cache sets.
#[inline]
pub fn transpose_into(src: &[f32], dst: &mut Vec<f32>, rows: usize, cols: usize) {
    const STRIP: usize = 16;
    debug_assert_eq!(src.len(), rows * cols);
    dst.clear();
    dst.resize(rows * cols, 0.0);
    let mut r0 = 0;
    while r0 + STRIP <= rows {
        transpose_strip::<STRIP>(src, dst, rows, cols, r0);
        r0 += STRIP;
    }
    while r0 < rows {
        transpose_strip::<1>(src, dst, rows, cols, r0);
        r0 += 1;
    }
}

/// Output rows per register tile of the batched kernels.
const TILE_ROWS: usize = 4;
/// Lanes per tile of the forward and input-gradient kernels: 4 × 16
/// accumulators are eight 256-bit registers, which leaves room for the
/// shared `x` loads in AVX2's sixteen.
const TILE_LANES: usize = 16;
/// Lanes per tile of the weight-gradient kernel. Its reduction is only
/// `batch` long and every row tests its coefficients for zero, so a
/// wider tile amortises more; its sixteen 256-bit accumulators want the
/// 32 registers of AVX-512VL and spill (correctly) without them.
const DW_TILE_LANES: usize = 32;

/// The `N` entries of `row` that start at `at`, as an array.
#[inline(always)]
fn window<const N: usize>(row: &[f32], at: usize) -> &[f32; N] {
    row[at..at + N]
        .try_into()
        .expect("slice has the window's width")
}

/// The four equal consecutive parts of `s`.
#[inline(always)]
fn quarters(s: &[f32]) -> [&[f32]; 4] {
    let n = s.len() / 4;
    std::array::from_fn(|j| &s[j * n..(j + 1) * n])
}

/// `true` when every coefficient is `±0.0`.
#[inline(always)]
fn all_zero(a: &[f32]) -> bool {
    a.iter().fold(0, |bits, v| bits | v.to_bits()) << 1 == 0
}

/// Where the coefficients `a(i, k)` of [`accumulate_tiled`] live.
trait Coefs: Copy {
    /// Length of the reduction.
    fn depth(self) -> usize;

    /// Accessors for output rows `i0..i0 + R`: `quad(i, q)` is
    /// `a(i0 + i, 4q..4q + 4)` and `at(i, k)` is `a(i0 + i, k)`.
    fn rows<const R: usize>(
        self,
        i0: usize,
    ) -> (
        impl Fn(usize, usize) -> [f32; 4],
        impl Fn(usize, usize) -> f32,
    );
}

/// `a(i, k) = a[i · depth + k]`: a matrix read along its rows.
#[derive(Clone, Copy)]
struct RowMajor<'a> {
    a: &'a [f32],
    depth: usize,
}

impl Coefs for RowMajor<'_> {
    #[inline(always)]
    fn depth(self) -> usize {
        self.depth
    }

    #[inline(always)]
    fn rows<const R: usize>(
        self,
        i0: usize,
    ) -> (
        impl Fn(usize, usize) -> [f32; 4],
        impl Fn(usize, usize) -> f32,
    ) {
        let rows: [&[f32]; R] =
            std::array::from_fn(|i| &self.a[(i0 + i) * self.depth..][..self.depth]);
        (move |i, q| *window(rows[i], 4 * q), move |i, k| rows[i][k])
    }
}

/// `a(i, k) = a[k · rows + i]`: a matrix read down its columns.
#[derive(Clone, Copy)]
struct ColMajor<'a> {
    a: &'a [f32],
    rows: usize,
}

impl Coefs for ColMajor<'_> {
    #[inline(always)]
    fn depth(self) -> usize {
        self.a.len() / self.rows
    }

    #[inline(always)]
    fn rows<const R: usize>(
        self,
        i0: usize,
    ) -> (
        impl Fn(usize, usize) -> [f32; 4],
        impl Fn(usize, usize) -> f32,
    ) {
        let (a, rows) = (self.a, self.rows);
        (
            move |i, q| quarters(&a[4 * q * rows..][..4 * rows]).map(|ak| window::<R>(ak, i0)[i]),
            move |i, k| window::<R>(&a[k * rows..][..rows], i0)[i],
        )
    }
}

/// One `R × L` register tile of [`accumulate_tiled`]: output rows
/// `i0..i0 + R`, lanes `l0..l0 + L`, of which the first `skip` are not
/// stored. The accumulators stay in registers from the first term to
/// the last and every `x` load is shared by the tile's `R` rows.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn accumulate_tile<C: Coefs, const R: usize, const L: usize, const SKIP_ZERO: bool>(
    out: &mut [f32],
    coefs: C,
    x: &[f32],
    width: usize,
    i0: usize,
    l0: usize,
    skip: usize,
) {
    let (quad, at) = coefs.rows::<R>(i0);
    let mut acc: [[f32; L]; R] =
        std::array::from_fn(|i| *window::<L>(&out[(i0 + i) * width..], l0));
    let quads = coefs.depth() / 4;
    let (x_quads, x_tail) = x.split_at(quads * 4 * width);
    for (q, x4) in x_quads.chunks_exact(4 * width).enumerate() {
        let [x0, x1, x2, x3] = quarters(x4).map(|xk| window::<L>(xk, l0));
        for i in 0..R {
            let a = quad(i, q);
            if SKIP_ZERO && all_zero(&a) {
                continue;
            }
            let [a0, a1, a2, a3] = a;
            for l in 0..L {
                acc[i][l] += a0 * x0[l] + a1 * x1[l] + a2 * x2[l] + a3 * x3[l];
            }
        }
    }
    for (k, xk) in (4 * quads..).zip(x_tail.chunks_exact(width)) {
        let xk = window::<L>(xk, l0);
        for i in 0..R {
            let a = at(i, k);
            if SKIP_ZERO && all_zero(&[a]) {
                continue;
            }
            for l in 0..L {
                acc[i][l] += a * xk[l];
            }
        }
    }
    for i in 0..R {
        let row = &mut out[(i0 + i) * width + l0..][..L];
        if skip == 0 {
            row.copy_from_slice(&acc[i]);
        } else {
            // Through a copy: slicing `acc` at a runtime index would
            // force the accumulators out of registers.
            let lanes = acc[i];
            row[skip..].copy_from_slice(&lanes[skip..]);
        }
    }
}

/// [`accumulate_tiled`] at `L` lanes per tile, for `width >= L`.
#[inline(always)]
fn accumulate_blocks<C: Coefs, const L: usize, const SKIP_ZERO: bool>(
    out: &mut [f32],
    out_rows: usize,
    coefs: C,
    x: &[f32],
    width: usize,
) {
    let mut done = 0;
    while done < width {
        // The last block of a ragged width slides back over lanes that
        // are already final: the tile recomputes them from their stored
        // sums, which is wasted but harmless, and stores only the rest.
        let l0 = done.min(width - L);
        let skip = done - l0;
        let mut i0 = 0;
        while i0 + TILE_ROWS <= out_rows {
            accumulate_tile::<C, TILE_ROWS, L, SKIP_ZERO>(out, coefs, x, width, i0, l0, skip);
            i0 += TILE_ROWS;
        }
        while i0 < out_rows {
            accumulate_tile::<C, 1, L, SKIP_ZERO>(out, coefs, x, width, i0, l0, skip);
            i0 += 1;
        }
        done = l0 + L;
    }
}

/// The register-tiled core of the three batched kernels:
///
/// `out[i][l] += Σ_k a(i, k) · x[k][l]`
///
/// for `out` of `out_rows × width` and `x` of `depth × width`, both
/// row-major, so the lanes `l` of one output row are independent sums,
/// each taken in the module's operation order. With `SKIP_ZERO`, a
/// group of four (or a leftover term) whose coefficients are all `±0.0`
/// is skipped, not added.
///
/// The body is [`TILE_ROWS`]` × LANES` tiles. Leftover rows run through
/// the same tile one row at a time, a ragged last lane block through the
/// same tile slid back to end at `width`, and a `width` below `LANES`
/// through the same tile at the widest of 16, 8, 4 or 1 lanes that fits
/// (an 18-wide input layer's weight gradient runs 16-lane tiles, not
/// 4-lane ones).
fn accumulate_tiled<C: Coefs, const LANES: usize, const SKIP_ZERO: bool>(
    out: &mut [f32],
    out_rows: usize,
    coefs: C,
    x: &[f32],
    width: usize,
) {
    assert_eq!(out.len(), out_rows * width);
    if width >= LANES {
        accumulate_blocks::<C, LANES, SKIP_ZERO>(out, out_rows, coefs, x, width);
    } else if width >= 16 {
        accumulate_blocks::<C, 16, SKIP_ZERO>(out, out_rows, coefs, x, width);
    } else if width >= 8 {
        accumulate_blocks::<C, 8, SKIP_ZERO>(out, out_rows, coefs, x, width);
    } else if width >= 4 {
        accumulate_blocks::<C, 4, SKIP_ZERO>(out, out_rows, coefs, x, width);
    } else {
        accumulate_blocks::<C, 1, SKIP_ZERO>(out, out_rows, coefs, x, width);
    }
}

/// Batched affine map in batch-minor layout: `xt` is `cols × batch`
/// (transposed input), `yt` becomes `rows × batch`, `W` is
/// `rows × cols` row-major.
///
/// Per output element: the bias first, then the `cols` products in the
/// module's [operation order](self#operation-order).
#[inline]
pub fn matmul_bias_tn(
    w: &[f32],
    b: &[f32],
    xt: &[f32],
    yt: &mut Vec<f32>,
    batch: usize,
    rows: usize,
    cols: usize,
) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(b.len(), rows);
    debug_assert_eq!(xt.len(), batch * cols);
    yt.clear();
    yt.resize(batch * rows, 0.0);
    for (r, &br) in b.iter().enumerate() {
        yt[r * batch..(r + 1) * batch].fill(br);
    }
    let w = RowMajor { a: w, depth: cols };
    accumulate_tiled::<_, TILE_LANES, false>(yt, rows, w, xt, batch);
}

/// Batched input gradient in batch-minor layout: `dyt` is
/// `rows × batch`, `dxt` becomes `cols × batch`.
///
/// Per output element: `+0.0` first, then the `rows` products in the
/// module's [operation order](self#operation-order).
#[inline]
pub fn matmul_dx_tn(
    w: &[f32],
    dyt: &[f32],
    dxt: &mut Vec<f32>,
    batch: usize,
    rows: usize,
    cols: usize,
) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(dyt.len(), batch * rows);
    dxt.clear();
    dxt.resize(batch * cols, 0.0);
    let w = ColMajor { a: w, rows: cols };
    accumulate_tiled::<_, TILE_LANES, false>(dxt, cols, w, dyt, batch);
}

/// Batched weight-gradient update `GW += dYᵀ·X`, `Gb += Σ_b dY_b`:
/// `dyt` is the batch-minor output gradient (`rows × batch`), as the
/// backward pass holds it, and `x` the batch-major input
/// (`batch × cols`). Any stretch of a layer's rows is a `rows × batch`
/// gradient of its own, so the backward pass runs this a block of rows
/// at a time.
///
/// Per `GW` element: the `batch` products in the module's
/// [operation order](self#operation-order), except that a group of
/// four (or a leftover product) whose `dy` are all `±0.0` is skipped —
/// a ReLU-gated unit contributes nothing, not even `+0.0`.
/// Per `Gb` element: `gb += ((d0 + d1) + d2) + d3` per group of four
/// samples, then the leftover samples one at a time.
#[inline]
pub fn matmul_dw_tn(
    gw: &mut [f32],
    gb: &mut [f32],
    dyt: &[f32],
    x: &[f32],
    batch: usize,
    rows: usize,
    cols: usize,
) {
    debug_assert_eq!(gw.len(), rows * cols);
    debug_assert_eq!(gb.len(), rows);
    debug_assert_eq!(dyt.len(), rows * batch);
    debug_assert_eq!(x.len(), batch * cols);
    let dy = RowMajor {
        a: dyt,
        depth: batch,
    };
    accumulate_tiled::<_, DW_TILE_LANES, true>(gw, rows, dy, x, cols);
    for (g, d) in gb.iter_mut().zip(dyt.chunks_exact(batch)) {
        let quads = d.chunks_exact(4);
        let tail = quads.remainder();
        for d4 in quads {
            *g += d4[0] + d4[1] + d4[2] + d4[3];
        }
        for d in tail {
            *g += d;
        }
    }
}

/// In-place batched ReLU of a learning step: a lane is kept iff it is
/// `> 0.0`, so `-0.0` and NaN become `+0.0`, and a kept output is `> 0.0`
/// exactly where its input was.
#[inline]
pub fn relu_forward(x: &mut [f32]) {
    for v in x {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// In-place ReLU backward: `dy[i]` is zeroed wherever the forward's
/// output `y[i]` is not `> 0.0` — exactly the lanes [`relu_forward`]
/// zeroed.
#[inline]
pub fn relu_backward(dy: &mut [f32], y: &[f32]) {
    debug_assert_eq!(dy.len(), y.len());
    for (d, &v) in dy.iter_mut().zip(y) {
        *d = if v > 0.0 { *d } else { 0.0 };
    }
}

/// Index of the maximum value among `allowed` entries (ties → lowest
/// index). Returns `None` when no entry is allowed.
///
/// Generic over the value type so that every masked "pick the best
/// action" loop in the workspace — `f32` Q-values here, `f64` predicted
/// time savings in the scheduling policies — goes through this one
/// implementation instead of hand-rolling the scan.
#[must_use]
pub fn masked_argmax<T: PartialOrd + Copy>(
    values: &[T],
    allowed: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best: Option<(usize, T)> = None;
    for (i, &v) in values.iter().enumerate() {
        if !allowed(i) {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Uniform draw over the set bits of `mask` below `n`, consuming exactly
/// one `gen_range` from `rng`. Returns `None` for an empty mask.
///
/// This is the exploration half of the ε-greedy behaviour policy,
/// factored out so every masked uniform draw shares one implementation
/// (and therefore one RNG-consumption pattern — callers stay bit-for-bit
/// reproducible when they swap hand-rolled loops for this helper).
#[must_use]
pub fn masked_uniform<R: rand::Rng>(mask: u64, n: usize, rng: &mut R) -> Option<usize> {
    let count = (0..n).filter(|&a| mask & (1 << a) != 0).count();
    if count == 0 {
        return None;
    }
    let pick = rng.gen_range(0..count);
    (0..n).filter(|&a| mask & (1 << a) != 0).nth(pick)
}

/// Like [`masked_argmax`], but exact-value ties are broken uniformly at
/// random from `rng` (reservoir sampling over the tied set) instead of
/// by iteration order.
///
/// Lowest-index tie-breaking systematically biases exploration toward
/// low-numbered actions — with several rollout workers sharing one
/// freshly-initialised network, every worker would break the same ties
/// the same way. Training action selection uses this variant with the
/// per-episode RNG stream; deployment-time greedy rollouts keep the
/// deterministic [`masked_argmax`].
#[must_use]
pub fn masked_argmax_tiebreak<T: PartialOrd + Copy, R: rand::Rng>(
    values: &[T],
    allowed: impl Fn(usize) -> bool,
    rng: &mut R,
) -> Option<usize> {
    let mut best: Option<(usize, T)> = None;
    let mut ties = 0u32;
    for (i, &v) in values.iter().enumerate() {
        if !allowed(i) {
            continue;
        }
        match best {
            Some((_, bv)) if v > bv => {
                best = Some((i, v));
                ties = 1;
            }
            Some((_, bv)) if v == bv => {
                ties += 1;
                if rng.gen_range(0u32..ties) == 0 {
                    best = Some((i, v));
                }
            }
            None => {
                best = Some((i, v));
                ties = 1;
            }
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Rank-1 update `GW += dy ⊗ x`: the per-sample weight gradient
    /// [`matmul_dw_tn`] is checked against.
    fn outer_accumulate(gw: &mut [f32], dy: &[f32], x: &[f32], rows: usize, cols: usize) {
        assert_eq!((gw.len(), dy.len(), x.len()), (rows * cols, rows, cols));
        for (r, &d) in dy.iter().enumerate() {
            let row = &mut gw[r * cols..(r + 1) * cols];
            for (g, xi) in row.iter_mut().zip(x.iter()) {
                *g += d * xi;
            }
        }
    }

    #[test]
    fn outer_accumulates() {
        let mut gw = [1.0; 6]; // 3×2 pre-filled
        outer_accumulate(&mut gw, &[1.0, 2.0, 0.0], &[10.0, -1.0], 3, 2);
        assert_eq!(gw, [11.0, 0.0, 21.0, -1.0, 1.0, 1.0]);
    }

    fn randn(n: usize, rng: &mut SmallRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = SmallRng::seed_from_u64(10);
        let src = randn(3 * 5, &mut rng);
        let mut t = Vec::new();
        transpose_into(&src, &mut t, 3, 5);
        // t[c][r] = src[r][c]: element (c = 0, r = 1) ← (r = 1, c = 0).
        assert_eq!(t[1], src[5], "t[c][r] = src[r][c]");
        let mut back = Vec::new();
        transpose_into(&t, &mut back, 5, 3);
        assert_eq!(back, src);
    }

    #[test]
    fn transpose_equals_the_naive_one_on_ragged_shapes() {
        let mut rng = SmallRng::seed_from_u64(14);
        // Below, at and past one strip; the power-of-two case that used
        // to be ten times slower.
        for (rows, cols) in [(1, 9), (9, 1), (7, 13), (16, 3), (35, 18), (512, 32)] {
            let src = randn(rows * cols, &mut rng);
            let mut naive = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    naive[c * rows + r] = src[r * cols + c];
                }
            }
            // A dirty, differently-sized destination must not leak through.
            let mut t = vec![7.0f32; 5];
            transpose_into(&src, &mut t, rows, cols);
            assert_eq!(t, naive, "{rows}×{cols}");
        }
    }

    #[test]
    fn matmul_dw_matches_per_sample_outer() {
        let (batch, rows, cols) = (6, 3, 4);
        let mut rng = SmallRng::seed_from_u64(13);
        let dy = randn(batch * rows, &mut rng);
        let x = randn(batch * cols, &mut rng);
        let mut dyt = Vec::new();
        transpose_into(&dy, &mut dyt, batch, rows);
        let mut gw_batched = vec![0.5f32; rows * cols];
        let mut gb_batched = vec![0.25f32; rows];
        matmul_dw_tn(
            &mut gw_batched,
            &mut gb_batched,
            &dyt,
            &x,
            batch,
            rows,
            cols,
        );
        let mut gw_serial = vec![0.5f32; rows * cols];
        let mut gb_serial = vec![0.25f32; rows];
        for bi in 0..batch {
            let dyb = &dy[bi * rows..(bi + 1) * rows];
            outer_accumulate(
                &mut gw_serial,
                dyb,
                &x[bi * cols..(bi + 1) * cols],
                rows,
                cols,
            );
            for (g, &d) in gb_serial.iter_mut().zip(dyb.iter()) {
                *g += d;
            }
        }
        for (a, e) in gw_batched.iter().zip(gw_serial.iter()) {
            assert!((a - e).abs() < 1e-6);
        }
        for (a, e) in gb_batched.iter().zip(gb_serial.iter()) {
            assert!((a - e).abs() < 1e-6);
        }
    }

    #[test]
    fn relu_kernels_mask_and_gate() {
        let mut x = vec![1.0, -2.0, 0.0, 3.0];
        relu_forward(&mut x);
        assert_eq!(x, vec![1.0, 0.0, 0.0, 3.0]);
        let mut dy = vec![10.0; 4];
        relu_backward(&mut dy, &x);
        assert_eq!(dy, vec![10.0, 0.0, 0.0, 10.0]);
        // -0.0 and NaN become +0.0, and stop their gradient.
        let mut x = [-0.0, f32::NAN, f32::MIN_POSITIVE];
        relu_forward(&mut x);
        assert_eq!(x.map(f32::to_bits), [0, 0, f32::MIN_POSITIVE.to_bits()]);
        let mut dy = vec![10.0; 3];
        relu_backward(&mut dy, &x);
        assert_eq!(dy, vec![0.0, 0.0, 10.0]);
    }

    #[test]
    fn masked_argmax_respects_mask() {
        let v = [1.0, 5.0, 3.0];
        assert_eq!(masked_argmax(&v, |_| true), Some(1));
        assert_eq!(masked_argmax(&v, |i| i != 1), Some(2));
        assert_eq!(masked_argmax(&v, |_| false), None);
    }

    #[test]
    fn masked_argmax_tie_breaks_low() {
        let v = [2.0, 2.0, 1.0];
        assert_eq!(masked_argmax(&v, |_| true), Some(0));
    }

    #[test]
    fn tiebreak_argmax_is_uniform_over_ties() {
        let v = [4.0, 4.0, 1.0, 4.0];
        let mut rng = SmallRng::seed_from_u64(77);
        let mut counts = [0usize; 4];
        for _ in 0..6000 {
            let i = masked_argmax_tiebreak(&v, |_| true, &mut rng).unwrap();
            counts[i] += 1;
        }
        assert_eq!(counts[2], 0, "non-maximal index must never win");
        for &i in &[0usize, 1, 3] {
            assert!(
                (1700..2300).contains(&counts[i]),
                "tie index {i} won {} of 6000",
                counts[i]
            );
        }
    }

    #[test]
    fn tiebreak_argmax_respects_mask_and_empty() {
        let v = [2.0, 2.0, 5.0];
        let mut rng = SmallRng::seed_from_u64(1);
        let picked = masked_argmax_tiebreak(&v, |i| i < 2, &mut rng);
        assert!(picked == Some(0) || picked == Some(1), "picked {picked:?}");
        assert_eq!(masked_argmax_tiebreak(&v, |_| false, &mut rng), None);
    }

    #[test]
    fn masked_argmax_works_on_f64_scores() {
        // The policies score actions in f64 (predicted seconds saved);
        // the generic argmax must behave identically there.
        let v = [1.25f64, f64::NEG_INFINITY, 7.5, 7.5];
        assert_eq!(masked_argmax(&v, |_| true), Some(2));
        assert_eq!(masked_argmax(&v, |i| i != 2), Some(3));
        assert_eq!(masked_argmax(&v, |i| i == 1), Some(1));
    }

    #[test]
    fn masked_uniform_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(9);
        // All-invalid mask: no draw possible.
        assert_eq!(masked_uniform(0, 8, &mut rng), None);
        // Bits at or above `n` do not count as valid.
        assert_eq!(masked_uniform(0b1_0000, 4, &mut rng), None);
        // Single-valid mask: always that action, for any RNG state.
        for _ in 0..20 {
            assert_eq!(masked_uniform(0b100, 8, &mut rng), Some(2));
        }
    }

    #[test]
    fn masked_uniform_covers_all_valid_bits_uniformly() {
        let mut rng = SmallRng::seed_from_u64(123);
        let mask = 0b1011u64; // actions 0, 1, 3
        let mut counts = [0usize; 4];
        for _ in 0..6000 {
            counts[masked_uniform(mask, 4, &mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[2], 0, "invalid action must never be drawn");
        for &i in &[0usize, 1, 3] {
            assert!(
                (1700..2300).contains(&counts[i]),
                "action {i} drawn {} of 6000",
                counts[i]
            );
        }
    }

    #[test]
    fn masked_uniform_matches_the_legacy_index_list_draw() {
        // The pre-refactor exploration branch collected the valid
        // indices into a Vec and indexed it with one `gen_range`; the
        // helper must consume the RNG stream identically so ε-greedy
        // rollouts stay bit-for-bit reproducible across the refactor.
        for seed in 0..20u64 {
            let mask = 0b1_1010_0110u64;
            let n = 9;
            let mut legacy_rng = SmallRng::seed_from_u64(seed);
            let valid: Vec<usize> = (0..n).filter(|&a| mask & (1 << a) != 0).collect();
            let legacy = valid[legacy_rng.gen_range(0..valid.len())];
            let mut rng = SmallRng::seed_from_u64(seed);
            assert_eq!(masked_uniform(mask, n, &mut rng), Some(legacy));
        }
    }
}
