//! Deterministic pseudo-random number generation.
//!
//! Experiments must be byte-for-byte reproducible from a seed, so the kernel
//! ships its own generators instead of depending on `rand` (whose stream is
//! not guaranteed stable across versions):
//!
//! * [`SplitMix64`] — used for seeding and for cheap splitting of one master
//!   seed into independent per-component streams.
//! * [`Pcg32`] — PCG-XSH-RR 64/32, the workhorse generator.
//!
//! Distribution samplers (normal, exponential, beta, …) live in
//! `gm-numeric::samplers` and are generic over the [`Rng64`] trait.

/// A source of uniformly distributed 64-bit values.
///
/// The contract: `next_u64` returns the next value of a deterministic stream
/// fully determined by the generator's seed.
pub trait Rng64 {
    /// Next uniformly distributed `u64`.
    fn next_u64(&mut self) -> u64;

    /// Next uniformly distributed `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the top 53 bits so every representable value is equally likely.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the open interval `(0, 1)` — safe for `ln()`.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        loop {
            let x = self.next_f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Uniform integer in `[0, bound)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_bounded(0)");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// SplitMix64 (Steele, Lea, Flood 2014). Passes BigCrush; ideal for seeding.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed. Any seed, including 0, is fine.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent child seed (hash of the current state and a
    /// stream index). Used to split one master seed across components.
    pub fn child_seed(&self, stream: u64) -> u64 {
        let mut s = SplitMix64::new(self.state ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64()
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seeded back-off jitter: a factor uniform in `[1 − w/2, 1 + w/2)` for
/// `w = jitter.min(1)`, hashed from `(salt, attempt)`. A pure function, so
/// same-seed runs stay byte-identical while distinct salts (clients)
/// de-synchronise their retries instead of thundering back together.
pub fn jitter_factor(jitter: f64, salt: u64, attempt: u32) -> f64 {
    let mut rng = SplitMix64::new(salt ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    1.0 + jitter.min(1.0) * (rng.next_f64() - 0.5)
}

/// PCG-XSH-RR 64/32 (O'Neill 2014). Small state, excellent quality.
#[derive(Clone, Debug)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg32 {
    /// Create from a seed and stream id. Different stream ids give
    /// statistically independent sequences for the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let inc = (stream << 1) | 1;
        let mut pcg = Pcg32 { state: 0, inc };
        pcg.step();
        pcg.state = pcg.state.wrapping_add(seed);
        pcg.step();
        pcg
    }

    /// Create from a single seed (stream 0), convenient for tests.
    pub fn seed_from_u64(seed: u64) -> Self {
        Pcg32::new(seed, 0x0A02_BDBF_7BB3_C0A7)
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    #[inline]
    fn output(state: u64) -> u32 {
        let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
        let rot = (state >> 59) as u32;
        xorshifted.rotate_right(rot)
    }
}

impl Rng64 for Pcg32 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        Self::output(old)
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // implementation by Sebastiano Vigna.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn pcg_is_deterministic_and_stream_dependent() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 1);
        let mut c = Pcg32::new(42, 2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Pcg32::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut r = Pcg32::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(r.next_f64_open() > 0.0);
        }
    }

    #[test]
    fn bounded_is_unbiased_roughly() {
        let mut r = Pcg32::seed_from_u64(99);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[r.next_bounded(7) as usize] += 1;
        }
        let expected = n / 7;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "bucket {i} deviates {dev:.3}");
        }
    }

    #[test]
    fn bounded_upper_limit_respected() {
        let mut r = Pcg32::seed_from_u64(3);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(r.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "next_bounded(0)")]
    fn bounded_zero_panics() {
        Pcg32::seed_from_u64(0).next_bounded(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Pcg32::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left identity");
    }

    #[test]
    fn child_seeds_differ() {
        let master = SplitMix64::new(2024);
        let s1 = master.child_seed(1);
        let s2 = master.child_seed(2);
        assert_ne!(s1, s2);
        // and are stable
        assert_eq!(s1, SplitMix64::new(2024).child_seed(1));
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut r = Pcg32::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
