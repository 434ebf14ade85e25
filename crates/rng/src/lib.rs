//! # pim-rng
//!
//! A tiny, dependency-free, seeded PRNG used everywhere the framework
//! needs randomness: the PrIM dataset generators (DESIGN.md §5.12 requires
//! bit-reproducible figures, so all data is seeded) and the randomized
//! property tests.
//!
//! The container this reproduction builds in has no network access to
//! crates.io, so the usual `rand`/`proptest` crates cannot be fetched;
//! this crate supplies the small slice of their APIs the repository
//! actually uses. The generator is **xoshiro256\*\*** seeded through
//! SplitMix64 — statistically strong for simulation inputs, trivially
//! portable, and stable across platforms and releases (the datasets it
//! produces are part of the repo's reproducibility contract).
//!
//! # Example
//!
//! ```
//! use pim_rng::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let v: Vec<i32> = (0..8).map(|_| rng.gen_range(-100..100)).collect();
//! let again: Vec<i32> = {
//!     let mut rng = StdRng::seed_from_u64(42);
//!     (0..8).map(|_| rng.gen_range(-100..100)).collect()
//! };
//! assert_eq!(v, again);
//! assert!(v.iter().all(|&x| (-100..100).contains(&x)));
//! ```

use std::ops::Range;

/// A seeded xoshiro256\*\* generator with the subset of `rand::rngs::StdRng`
/// API this repository uses.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Expands `seed` into the full 256-bit state via SplitMix64.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        StdRng { s: [next(), next(), next(), next()] }
    }

    /// The full 256-bit generator state, for checkpointing: a generator
    /// rebuilt with [`StdRng::from_state`] continues the exact stream.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`StdRng::state`] snapshot.
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Self {
        StdRng { s }
    }

    /// The raw xoshiro256\*\* output step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// The high 32 bits of [`StdRng::next_u64`].
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `range` (`range` must be non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `range.start >= range.end`.
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// `true` with probability `numerator / denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero or smaller than `numerator`.
    pub fn gen_bool_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        self.below(u64::from(denominator)) < u64::from(numerator)
    }

    /// `rand`-compatible spelling of [`StdRng::gen_bool_ratio`].
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero or smaller than `numerator`.
    pub fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        self.gen_bool_ratio(numerator, denominator)
    }

    /// A fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Debiased uniform value in `0..bound`: a one-shot [`Below`]. A
    /// one-off draw pays for the threshold's division either way, so it
    /// skips [`Below::sample`]'s mask test and runs the rejection loop
    /// directly — the same values and draws for every bound.
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        Below::new(bound).reject(self)
    }
}

/// A precomputed debiased sampler over `0..bound` (rejection on the
/// modulo threshold), for callers that draw from the same bound many
/// times: the threshold's division is paid once in [`Below::new`], and a
/// power-of-two bound — whose threshold is zero, so nothing is ever
/// rejected — samples with a mask instead of a modulo.
///
/// It is the one implementation behind [`StdRng::gen_range`],
/// [`StdRng::gen_bool_ratio`] and [`StdRng::choose`], so a `Below` is
/// value-for-value *and* draw-for-draw identical to them: swapping one in
/// never moves a seeded stream. A bound of 1 still consumes one draw.
///
/// ```
/// use pim_rng::{Below, StdRng};
///
/// let die = Below::new(6);
/// let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
/// for _ in 0..100 {
///     assert_eq!(die.sample(&mut a), b.gen_range(0u64..6));
/// }
/// assert_eq!(a.state(), b.state());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Below {
    bound: u64,
    /// `2^64 mod bound`: raw draws below it are rejected. Zero exactly
    /// when `bound` is a power of two.
    threshold: u64,
}

impl Below {
    /// A sampler over `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    #[inline]
    pub fn new(bound: u64) -> Self {
        assert!(bound > 0, "cannot sample below zero");
        Below { bound, threshold: bound.wrapping_neg() % bound }
    }

    /// One uniform value in `0..bound`.
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        if self.threshold == 0 {
            return rng.next_u64() & (self.bound - 1);
        }
        self.reject(rng)
    }

    /// The rejection loop itself; correct for every bound (a zero
    /// threshold accepts the first draw).
    #[inline]
    fn reject(&self, rng: &mut StdRng) -> u64 {
        loop {
            let v = rng.next_u64();
            if v >= self.threshold {
                return v % self.bound;
            }
        }
    }
}

/// Types [`StdRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// A uniform value in `lo..hi`.
    fn sample(rng: &mut StdRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_signed {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample(rng: &mut StdRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range requires a non-empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                (lo as $wide).wrapping_add(rng.below(span) as $wide) as $t
            }
        }
    )*};
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample(rng: &mut StdRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range requires a non-empty range");
                let span = (hi - lo) as u64;
                lo + rng.below(span) as $t
            }
        }
    )*};
}

impl_sample_signed!(i32 => i64, i64 => i64, i16 => i64, i8 => i64);
impl_sample_unsigned!(u32, usize, u16, u8);

impl SampleUniform for u64 {
    #[inline]
    fn sample(rng: &mut StdRng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range requires a non-empty range");
        lo + rng.below(hi - lo)
    }
}

/// FNV-1a, 64-bit: the repository's one content hash, for corpus file
/// names and the digests tests pin. Stable across platforms and releases,
/// like the generator.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_the_published_fnv_1a_64() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut a = StdRng::seed_from_u64(11);
        for _ in 0..37 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(-50i32..50);
            assert!((-50..50).contains(&v));
            let u = rng.gen_range(0usize..17);
            assert!(u < 17);
            let w = rng.gen_range(10u64..11);
            assert_eq!(w, 10);
        }
    }

    #[test]
    fn range_covers_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 values should appear in 1000 draws");
    }

    #[test]
    fn ratio_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_ratio(1, 4)).count();
        assert!((2000..3000).contains(&hits), "1/4 ratio produced {hits}/10000");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn signed_full_domain_range_does_not_overflow() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..1000 {
            let _ = rng.gen_range(i32::MIN..i32::MAX);
        }
    }

    /// The rejection loop as `StdRng::below` spelled it before [`Below`]
    /// existed — the stream every seeded dataset and golden was drawn from.
    fn reference_below(rng: &mut StdRng, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let v = rng.next_u64();
            if v >= threshold {
                return v % bound;
            }
        }
    }

    #[test]
    fn below_matches_gen_range_value_for_value_and_draw_for_draw() {
        // u64::MAX / 2 + 2 rejects nearly half of all raw draws, so the
        // loop (not just the power-of-two fast path) is exercised.
        let bounds = (1..=1024u64).chain((0..64).map(|k| 1u64 << k)).chain([
            u64::MAX,
            u64::MAX / 2 + 1,
            u64::MAX / 2 + 2,
            (1 << 40) + 1,
        ]);
        for n in bounds {
            let sampler = Below::new(n);
            let mut a = StdRng::seed_from_u64(n ^ 0x5eed);
            let (mut b, mut c) = (a.clone(), a.clone());
            for _ in 0..64 {
                let v = sampler.sample(&mut a);
                assert!(v < n);
                assert_eq!(v, b.gen_range(0..n), "bound {n}");
                assert_eq!(v, reference_below(&mut c, n), "bound {n}");
            }
            // Same number of raw draws consumed, rejections included.
            assert_eq!(a.state(), b.state(), "bound {n}");
            assert_eq!(a.state(), c.state(), "bound {n}");
        }
    }

    #[test]
    fn below_one_still_consumes_its_draw() {
        let mut a = StdRng::seed_from_u64(12);
        let mut b = a.clone();
        assert_eq!(Below::new(1).sample(&mut a), 0);
        b.next_u64();
        assert_eq!(a.state(), b.state());
    }

    #[test]
    #[should_panic(expected = "cannot sample below zero")]
    fn below_zero_is_refused() {
        let _ = Below::new(0);
    }

    #[test]
    fn choose_picks_every_element_eventually() {
        let mut rng = StdRng::seed_from_u64(9);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..300 {
            let v = *rng.choose(&items);
            seen[items.iter().position(|&x| x == v).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
