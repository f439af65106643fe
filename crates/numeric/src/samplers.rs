//! Random-variate samplers over any [`Rng64`].
//!
//! The window-approximation experiment (paper Fig. 7) draws prices from
//! Normal(0.5, 0.15), Exp(2) and Beta(5, 1); the portfolio simulation
//! (Fig. 5) draws host performance from normal distributions. All samplers
//! are implemented from standard algorithms:
//!
//! * normal — Marsaglia polar method;
//! * exponential — inversion;
//! * gamma — Marsaglia & Tsang (2000), with the Ahrens-Dieter boost for
//!   shape < 1;
//! * beta — ratio of gammas.

use gm_des::Rng64;

/// A distribution that can produce `f64` variates from an [`Rng64`].
pub trait Sampler {
    /// Draw one variate.
    fn sample<R: Rng64>(&self, rng: &mut R) -> f64;

    /// Draw `n` variates into a fresh vector.
    fn sample_n<R: Rng64>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Theoretical mean, if finite and known.
    fn mean(&self) -> f64;

    /// Theoretical variance, if finite and known.
    fn variance(&self) -> f64;
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// New uniform distribution.
    ///
    /// # Panics
    /// Panics unless `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "Uniform requires lo < hi");
        Uniform { lo, hi }
    }
}

impl Sampler for Uniform {
    #[inline]
    fn sample<R: Rng64>(&self, rng: &mut R) -> f64 {
        rng.next_range_f64(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
}

/// Normal distribution `N(μ, σ²)` via the Marsaglia polar method.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// New normal distribution with mean `mu` and standard deviation `sigma`.
    ///
    /// # Panics
    /// Panics if `sigma < 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "Normal requires sigma >= 0");
        Normal { mu, sigma }
    }

    /// One standard normal variate.
    pub fn standard_sample<R: Rng64>(rng: &mut R) -> f64 {
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Sampler for Normal {
    #[inline]
    fn sample<R: Rng64>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * Self::standard_sample(rng)
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`), via inversion.
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// New exponential distribution with rate `λ`.
    ///
    /// # Panics
    /// Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "Exponential requires rate > 0");
        Exponential { rate }
    }
}

impl Sampler for Exponential {
    #[inline]
    fn sample<R: Rng64>(&self, rng: &mut R) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

/// Gamma distribution with shape `k` and scale `θ` (Marsaglia & Tsang).
#[derive(Clone, Copy, Debug)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// New gamma distribution.
    ///
    /// # Panics
    /// Panics unless `shape > 0` and `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "Gamma requires positive params");
        Gamma { shape, scale }
    }

    fn sample_shape_ge1<R: Rng64>(shape: f64, rng: &mut R) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::standard_sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.next_f64_open();
            if u < 1.0 - 0.0331 * x * x * x * x {
                return d * v3;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Sampler for Gamma {
    fn sample<R: Rng64>(&self, rng: &mut R) -> f64 {
        let raw = if self.shape >= 1.0 {
            Self::sample_shape_ge1(self.shape, rng)
        } else {
            // Ahrens-Dieter boost: Gamma(k) = Gamma(k+1) · U^(1/k).
            let g = Self::sample_shape_ge1(self.shape + 1.0, rng);
            g * rng.next_f64_open().powf(1.0 / self.shape)
        };
        raw * self.scale
    }
    fn mean(&self) -> f64 {
        self.shape * self.scale
    }
    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

/// Beta distribution `Beta(α, β)` via the ratio of gammas.
#[derive(Clone, Copy, Debug)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// New beta distribution.
    ///
    /// # Panics
    /// Panics unless both parameters are positive.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && beta > 0.0, "Beta requires positive params");
        Beta { alpha, beta }
    }
}

impl Sampler for Beta {
    fn sample<R: Rng64>(&self, rng: &mut R) -> f64 {
        let x = Gamma::new(self.alpha, 1.0).sample(rng);
        let y = Gamma::new(self.beta, 1.0).sample(rng);
        x / (x + y)
    }
    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }
    fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::Pcg32;

    const N: usize = 200_000;

    fn check_moments<S: Sampler>(s: &S, seed: u64, mean_tol: f64, var_tol: f64) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let xs = s.sample_n(&mut rng, N);
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (N - 1) as f64;
        assert!(
            (mean - s.mean()).abs() < mean_tol,
            "mean {mean} vs {}",
            s.mean()
        );
        assert!(
            (var - s.variance()).abs() < var_tol,
            "var {var} vs {}",
            s.variance()
        );
    }

    #[test]
    fn uniform_moments() {
        check_moments(&Uniform::new(2.0, 6.0), 1, 0.02, 0.03);
    }

    #[test]
    fn normal_moments() {
        check_moments(&Normal::new(0.5, 0.15), 2, 0.002, 0.001);
        check_moments(&Normal::new(-3.0, 2.0), 3, 0.03, 0.06);
    }

    #[test]
    fn exponential_moments() {
        check_moments(&Exponential::new(2.0), 4, 0.01, 0.01);
    }

    #[test]
    fn gamma_moments() {
        check_moments(&Gamma::new(5.0, 2.0), 5, 0.05, 0.5);
        check_moments(&Gamma::new(0.5, 1.0), 6, 0.01, 0.02);
    }

    #[test]
    fn beta_moments() {
        check_moments(&Beta::new(5.0, 1.0), 7, 0.002, 0.001);
        check_moments(&Beta::new(2.0, 2.0), 8, 0.002, 0.001);
    }

    #[test]
    fn beta_stays_in_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(10);
        let b = Beta::new(5.0, 1.0);
        for _ in 0..10_000 {
            let x = b.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_is_positive() {
        let mut rng = Pcg32::seed_from_u64(11);
        let e = Exponential::new(0.1);
        for _ in 0..10_000 {
            assert!(e.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn zero_sigma_normal_is_constant() {
        let mut rng = Pcg32::seed_from_u64(12);
        let n = Normal::new(4.2, 0.0);
        for _ in 0..100 {
            assert_eq!(n.sample(&mut rng), 4.2);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let n = Normal::new(0.0, 1.0);
        let a = n.sample_n(&mut Pcg32::seed_from_u64(42), 32);
        let b = n.sample_n(&mut Pcg32::seed_from_u64(42), 32);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_skewness_near_zero() {
        let mut rng = Pcg32::seed_from_u64(13);
        let xs = Normal::new(0.0, 1.0).sample_n(&mut rng, N);
        let mean = xs.iter().sum::<f64>() / N as f64;
        let sd = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64).sqrt();
        let skew = xs.iter().map(|x| ((x - mean) / sd).powi(3)).sum::<f64>() / N as f64;
        assert!(skew.abs() < 0.03, "skew {skew}");
    }

    #[test]
    #[should_panic(expected = "positive params")]
    fn beta_rejects_bad_params() {
        Beta::new(0.0, 1.0);
    }
}
