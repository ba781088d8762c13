//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the small part of `rand` 0.8 it actually uses: a deterministic seeded
//! generator ([`rngs::StdRng`]) plus [`Rng::gen_range`] over integer and
//! float ranges. The generator is xoshiro256++ seeded through SplitMix64 —
//! high-quality and fully reproducible, which is all the simulation
//! harnesses need. It is **not** the upstream `StdRng` stream, and none of
//! it is cryptographically secure.

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A type that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

/// One 64-bit draw reduced modulo `span` (1 ≤ `span` ≤ 2^64): the
/// remainder `u128::from(draw) % span`, taken in `u64` whenever `span`
/// fits, which is the same value and lets a constant span fold. A span
/// of 2^64 keeps the draw as it is.
#[inline]
fn reduce<G: RngCore + ?Sized>(rng: &mut G, span: u128) -> i128 {
    let draw = rng.next_u64();
    match u64::try_from(span) {
        Ok(span) => i128::from(draw % span),
        Err(_) => i128::from(draw),
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + reduce(rng, span)) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + reduce(rng, span)) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // 53 uniform mantissa bits in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let v = self.start as f64 + unit * (self.end as f64 - self.start as f64);
                // Guard the half-open invariant against rounding.
                if v as $t >= self.end { self.start } else { v as $t }
            }
        }
    )*};
}

impl_float_sample_range!(f32, f64);

/// User-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a uniform value from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen_range(0.0..1.0f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..20usize);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-2i32..=2);
            assert!((-2..=2).contains(&w));
            let f = rng.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
        }
    }

    /// The value the shim's integer draw must equal: the generator's
    /// next word reduced modulo the span in `u128`, offset from the
    /// start.
    fn u128_formula(start: i128, end_inclusive: i128, word: u64) -> i128 {
        let span = (end_inclusive - start) as u128 + 1;
        start + (u128::from(word) % span) as i128
    }

    /// A bound drawn from `cases`: an extreme of the type or a value
    /// near it half the time, any value otherwise.
    fn bound(cases: &mut StdRng, edges: &[u64]) -> u64 {
        if cases.next_u64().is_multiple_of(2) {
            let edge = edges[(cases.next_u64() % edges.len() as u64) as usize];
            edge.wrapping_add(cases.next_u64() % 3).wrapping_sub(1)
        } else {
            cases.next_u64()
        }
    }

    #[test]
    fn integer_draws_equal_the_u128_remainder() {
        let mut cases = StdRng::seed_from_u64(11);
        let edges = [0, 1, u64::MAX, i64::MAX as u64, i64::MIN as u64, 1 << 32];
        for case in 0..20_000u64 {
            let (a, b) = (bound(&mut cases, &edges), bound(&mut cases, &edges));
            let mut rng = StdRng::seed_from_u64(case);
            // Unsigned bounds.
            let (lo, hi) = (a.min(b), a.max(b));
            let mut twin = rng.clone();
            let got = rng.gen_range(lo..=hi);
            let want = u128_formula(lo.into(), hi.into(), twin.next_u64());
            assert_eq!(i128::from(got), want, "{lo}..={hi}");
            if lo < hi {
                let got = rng.gen_range(lo..hi);
                let want = u128_formula(lo.into(), i128::from(hi) - 1, twin.next_u64());
                assert_eq!(i128::from(got), want, "{lo}..{hi}");
            }
            // The same bits as signed bounds.
            let (a, b) = (a as i64, b as i64);
            let (lo, hi) = (a.min(b), a.max(b));
            let got = rng.gen_range(lo..=hi);
            let want = u128_formula(lo.into(), hi.into(), twin.next_u64());
            assert_eq!(i128::from(got), want, "{lo}..={hi}");
            if lo < hi {
                let got = rng.gen_range(lo..hi);
                let want = u128_formula(lo.into(), i128::from(hi) - 1, twin.next_u64());
                assert_eq!(i128::from(got), want, "{lo}..{hi}");
            }
            // A narrow type, whose span always fits.
            let (lo, hi) = ((a >> 56) as i8, (b >> 56) as i8);
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let got = rng.gen_range(lo..=hi);
            let want = u128_formula(lo.into(), hi.into(), twin.next_u64());
            assert_eq!(i128::from(got), want, "{lo}..={hi}");
        }
        // The two spans of 2^64, whose draw is the word itself, and the
        // widest spans that still fit a u64.
        for seed in 0..1_000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut twin = rng.clone();
            assert_eq!(rng.gen_range(0..=u64::MAX), twin.next_u64());
            let word = twin.next_u64();
            let want = u128_formula(i64::MIN.into(), i64::MAX.into(), word);
            assert_eq!(i128::from(rng.gen_range(i64::MIN..=i64::MAX)), want);
            assert_eq!(want, i128::from(i64::MIN) + i128::from(word));
            let word = twin.next_u64();
            assert_eq!(rng.gen_range(0..u64::MAX), word % u64::MAX);
            let word = twin.next_u64();
            let want = u128_formula(i64::MIN.into(), i128::from(i64::MAX) - 1, word);
            assert_eq!(i128::from(rng.gen_range(i64::MIN..i64::MAX)), want);
        }
    }

    #[test]
    fn full_int_range_is_covered() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
