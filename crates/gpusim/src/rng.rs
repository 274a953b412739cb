//! A tiny deterministic pseudo-random generator (SplitMix64).
//!
//! The simulator core stays dependency-free; measurement noise and
//! benchmark parameter jitter only need a fast, well-distributed, *seeded*
//! stream, for which SplitMix64 (Steele et al., "Fast Splittable
//! Pseudorandom Number Generators", OOPSLA'14) is the standard choice.

/// SplitMix64's increment: 2⁶⁴ / φ, rounded to odd.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The seed of stream `i` split off `base` (`base ^ φ·(i + 1)`): the
/// training pipeline's per-episode RNGs and the placement trainer's
/// traces, each independent of the others and reproducible from `base`
/// alone.
#[must_use]
pub fn split_seed(base: u64, i: usize) -> u64 {
    base ^ GOLDEN_GAMMA.wrapping_mul(i as u64 + 1)
}

/// The FNV-1a offset basis: the state [`fnv1a`] starts a hash from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a state `h` (start from
/// [`FNV_OFFSET`]): the one byte hash behind key-derived seeds, schedule
/// digests and the admission digest.
#[must_use]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 pseudo-random number generator.
///
/// Deterministic for a given seed; passes BigCrush when used as a 64-bit
/// stream. Not cryptographically secure (and does not need to be).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derive a generator from a string key (e.g. a benchmark name), so
    /// per-application noise is stable across runs and independent of
    /// iteration order.
    #[must_use]
    pub fn from_key(seed: u64, key: &str) -> Self {
        Self::new(seed ^ fnv1a(FNV_OFFSET, key.as_bytes()))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Multiply-shift rejection-free mapping (Lemire); bias is
        // negligible for the small `n` used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A multiplicative noise factor `1 + level * u`, `u ~ U(-1, 1)`,
    /// clamped to stay strictly positive.
    pub fn noise_factor(&mut self, level: f64) -> f64 {
        let u = self.uniform(-1.0, 1.0);
        (1.0 + level * u).max(1e-3)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn from_key_is_stable_and_key_sensitive() {
        let a = SplitMix64::from_key(7, "lavaMD").next_u64();
        let b = SplitMix64::from_key(7, "lavaMD").next_u64();
        let c = SplitMix64::from_key(7, "stream").next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SplitMix64::new(4);
        for _ in 0..10_000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.next_below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut r = SplitMix64::new(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn noise_factor_positive_and_centered() {
        let mut r = SplitMix64::new(7);
        let mut acc = 0.0;
        for _ in 0..10_000 {
            let f = r.noise_factor(0.05);
            assert!(f > 0.0);
            assert!((0.94..=1.06).contains(&f));
            acc += f;
        }
        assert!((acc / 10_000.0 - 1.0).abs() < 0.005);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
