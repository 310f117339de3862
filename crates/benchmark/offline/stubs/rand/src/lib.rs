//! Stand-in for `rand` 0.8: the `Rng`/`SeedableRng`/`StdRng` surface the
//! SSTD crates use, over SplitMix64. Streams differ from the published
//! crate's ChaCha `StdRng`; the benchmark draws its own inputs and never
//! samples through this crate on a measured path.

use std::ops::{Range, RangeInclusive};

/// Source of raw 64-bit words.
pub trait RngCore {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// A value that can be drawn uniformly (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// A range a value can be drawn from (`rng.gen_range(a..b)`).
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = self.end.abs_diff(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                match (hi.abs_diff(lo) as u64).checked_add(1) {
                    Some(span) => lo.wrapping_add((rng.next_u64() % span) as $t),
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * f64::draw(rng)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        lo + (hi - lo) * f64::draw(rng)
    }
}

/// The user-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws a value inside `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.draw(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64 under the published crate's default-generator name.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(u64);

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self(seed)
        }
    }
}
