//! Deterministic, dependency-free pseudo-random number generation.
//!
//! Every stochastic input in this workspace — workload data, synthetic
//! kernel structure, adversarial schedules, property-test cases — flows
//! through [`SplitMix64`], so a seed fully determines a run with no
//! external crates involved. The generator is Steele, Lea & Flood's
//! SplitMix64 (the stream used to seed xoshiro/xoroshiro generators):
//! one 64-bit add per step plus a finalizer, passes BigCrush, and is
//! trivially seedable from *any* `u64` including zero.
//!
//! **Stability guarantee:** the output sequence for a given seed is pinned
//! by a golden-value test ([`GOLDEN_SEED`]) and must never change — cycle
//! counts, workload inputs and reproduced figures all depend on it.
//! Treat any edit that moves the golden values as a breaking change to
//! every recorded experiment.

use std::ops::Range;

/// The seed whose output sequence is pinned by the golden-value test
/// (the SplitMix64 gamma constant itself).
pub const GOLDEN_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A seedable SplitMix64 PRNG.
///
/// Same seed → same sequence, forever. Construction is free; the state is
/// a single `u64`, so cloning snapshots the stream.
///
/// ```
/// use pro_core::rng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded construction. All seeds, including 0, are valid and produce
    /// full-quality streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit output (the high half of [`next_u64`](Self::next_u64),
    /// which has the better-mixed bits).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        f64_from_bits(self.next_u64())
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `0..=1`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform value in the half-open range `lo..hi`.
    ///
    /// Integer ranges use a widening multiply of a fresh 64-bit draw, so
    /// the bias for any practical span is below 2⁻³². Panics if the range
    /// is empty.
    ///
    /// ```
    /// use pro_core::rng::SplitMix64;
    /// let mut r = SplitMix64::new(1);
    /// let x = r.gen_range(10u32..20);
    /// assert!((10..20).contains(&x));
    /// let f = r.gen_range(0.5f32..1.0);
    /// assert!((0.5..1.0).contains(&f));
    /// ```
    #[inline]
    pub fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample_from(range, self.next_u64())
    }
}

/// `[0, 1)` with 24 bits of precision from one raw 64-bit draw.
#[inline]
pub(crate) fn f32_from_bits(bits: u64) -> f32 {
    ((bits >> 32) as u32 >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// `[0, 1)` with 53 bits of precision from one raw 64-bit draw.
#[inline]
pub(crate) fn f64_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types [`SplitMix64::gen_range`] can sample uniformly.
///
/// Sampling is a pure function of a single raw 64-bit draw, which is what
/// lets the property-test harness ([`crate::prop`]) replay and shrink
/// recorded choice sequences.
pub trait UniformRange: Copy + PartialOrd {
    /// Map one uniform 64-bit draw onto `range`. Implementations panic on
    /// an empty range.
    fn sample_from(range: Range<Self>, bits: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            fn sample_from(range: Range<Self>, bits: u64) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Widening multiply maps the 64-bit draw onto the span.
                let off = ((bits as u128 * span) >> 64) as i128;
                (range.start as i128 + off) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformRange for f32 {
    #[inline]
    fn sample_from(range: Range<Self>, bits: u64) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + f32_from_bits(bits) * (range.end - range.start)
    }
}

impl UniformRange for f64 {
    #[inline]
    fn sample_from(range: Range<Self>, bits: u64) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + f64_from_bits(bits) * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the output sequence forever. These are the reference SplitMix64
    /// values for [`GOLDEN_SEED`]; if this test moves, every recorded
    /// experiment and workload input in the repository silently changes.
    #[test]
    fn golden_sequence_for_pinned_seed() {
        let mut r = SplitMix64::new(GOLDEN_SEED);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
                0x1B39_896A_51A8_749B,
                0x53CB_9F0C_747E_A2EA,
                0x2C82_9ABE_1F45_32E1,
                0xC584_133A_C916_AB3C,
                0x3EE5_7890_41C9_8AC3,
            ]
        );
    }

    #[test]
    fn seed_zero_matches_reference_vector() {
        // The canonical SplitMix64 test vector from the reference
        // implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn next_u32_is_high_half() {
        let mut a = SplitMix64::new(GOLDEN_SEED);
        let mut b = SplitMix64::new(GOLDEN_SEED);
        assert_eq!(a.next_u32(), (b.next_u64() >> 32) as u32);
    }

    #[test]
    fn ranges_stay_in_bounds_across_types() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!((5..17u32).contains(&r.gen_range(5u32..17)));
            assert!((-8..8i32).contains(&r.gen_range(-8i32..8)));
            let f = r.gen_range(0.001f32..1.0);
            assert!((0.001..1.0f32).contains(&f));
            let g = r.gen_f64();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn small_ranges_hit_every_value() {
        let mut r = SplitMix64::new(11);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..4)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SplitMix64::new(5);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "p=0.25 gave {hits}/100000");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
