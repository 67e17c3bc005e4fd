//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! this workspace ships a tiny, dependency-free re-implementation of the
//! slice of `rand` 0.8 that the Magellan crates actually use:
//!
//! * [`rngs::StdRng`] — a xoshiro256\*\* generator (not ChaCha12 like the
//!   real crate; streams differ from upstream `rand`, which is fine because
//!   every consumer in this workspace only relies on *determinism under a
//!   fixed seed*, never on a specific stream),
//! * [`SeedableRng::seed_from_u64`],
//! * [`Rng::gen_range`] over half-open integer and float ranges,
//! * [`Rng::gen_bool`],
//! * [`seq::SliceRandom::shuffle`] (Fisher–Yates).
//!
//! Everything is `#![forbid(unsafe_code)]` and deterministic.

#![forbid(unsafe_code)]

/// Low-level source of 64-bit randomness.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Deterministically build a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

const F64_SCALE: f64 = 1.0 / ((1u64 << 53) as f64);

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a half-open range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        ((self.next_u64() >> 11) as f64 * F64_SCALE) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// A half-open range a value can be sampled from.
pub trait SampleRange<T> {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types uniformly samplable from a range. The *generic* [`SampleRange`]
/// impls below mirror real `rand`'s shape: `Range<T>: SampleRange<T>`
/// unifies `T` with the range's element type during inference, so literal
/// expressions like `rng.gen_range(-0.02..0.02)` resolve through the
/// default float fallback exactly as they do with the real crate.
pub trait SampleUniform: Sized + PartialOrd {
    /// Sample from `lo..hi`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Sample from `lo..=hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128;
                // Modulo of 128-bit state: bias is < 2^-64, irrelevant here.
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                let off = (wide % span) as i128;
                (lo as i128 + off) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                let off = (wide % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

int_sample_uniform!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! float_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo < hi, "cannot sample empty range");
                let f = (rng.next_u64() >> 11) as f64 * F64_SCALE;
                lo + (f as $t) * (hi - lo)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo <= hi, "cannot sample empty range");
                let f = (rng.next_u64() >> 11) as f64 * F64_SCALE;
                lo + (f as $t) * (hi - lo)
            }
        }
    )*};
}

float_sample_uniform!(f32, f64);

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256\*\* — small, fast, and statistically solid; deterministic
    /// under [`SeedableRng::seed_from_u64`].
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// In-place slice shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
        let mut c = StdRng::seed_from_u64(43);
        let same = (0..64)
            .filter(|_| a.gen_range(0u64..1 << 60) == c.gen_range(0u64..1 << 60))
            .count();
        assert!(same < 4, "independent seeds should diverge");
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = rng.gen_range(-5i64..17);
            assert!((-5..17).contains(&v));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.gen_range(3u8..9);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left slice untouched");
    }
}
