//! Autocorrelation and the Levinson-Durbin solver for Yule-Walker systems.
//!
//! The paper's AR(k) price model (§4.3) is fit in three steps: compute the
//! unbiased sample autocorrelation `R(k)`, assemble the Yule-Walker
//! equations `L·α = r` with the Toeplitz matrix `L[i][j] = R(i−j)`, and
//! solve by the Levinson reformulation — exactly what
//! [`levinson_durbin`]/[`yule_walker`] implement.

/// Biased (`1/N`) autocovariances. Unlike the unbiased estimator, this
/// sequence is always positive semi-definite, so Levinson-Durbin yields a
/// *stationary* AR model (all reflection coefficients in (−1, 1)) — which
/// is why [`yule_walker`] fits on it.
pub fn autocorrelations_biased(x: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(max_lag < x.len(), "max_lag >= series length");
    let n = x.len();
    let mu = x.iter().sum::<f64>() / n as f64;
    let dev: Vec<f64> = x.iter().map(|v| v - mu).collect();
    (0..=max_lag)
        .map(|k| {
            let mut acc = 0.0;
            for i in 0..(n - k) {
                acc += dev[i + k] * dev[i];
            }
            acc / n as f64
        })
        .collect()
}

/// Solve the Yule-Walker equations for AR coefficients given autocovariances
/// `r[0..=k]` (so `r.len() = order + 1`). Returns `(coefficients, final
/// prediction error variance)`, or `None` when the recursion breaks down
/// (`r[0] ≈ 0` or a prediction error hits zero — a perfectly predictable or
/// constant series).
///
/// The forecast convention matches the paper:
/// `x̂[t] = μ + Σ_{j=1..k} α[j−1]·(x[t−j] − μ)`.
pub fn levinson_durbin(r: &[f64]) -> Option<(Vec<f64>, f64)> {
    assert!(r.len() >= 2, "need at least r[0], r[1]");
    let order = r.len() - 1;
    if r[0].abs() < 1e-300 {
        return None;
    }
    let mut a = vec![0.0f64; order];
    let mut e = r[0];

    for m in 1..=order {
        let mut acc = r[m];
        for j in 1..m {
            acc -= a[j - 1] * r[m - j];
        }
        // Clamp the reflection coefficient for numerical safety; with a
        // PSD autocovariance |κ| < 1 holds mathematically, but round-off
        // (or a caller passing unbiased estimates) can nudge it out.
        let kappa = (acc / e).clamp(-0.9999, 0.9999);
        // Update coefficients: a'_j = a_j − κ·a_{m−j}
        let prev = a.clone();
        a[m - 1] = kappa;
        for j in 1..m {
            a[j - 1] = prev[j - 1] - kappa * prev[m - j - 1];
        }
        e *= 1.0 - kappa * kappa;
        if e <= 0.0 {
            // Perfectly predictable at order m: the recursion cannot
            // continue, but the coefficients found so far form a valid
            // (truncated) model — remaining lags stay zero.
            return Some((a, 0.0));
        }
    }
    Some((a, e))
}

/// Fit an AR(`order`) model to `x` by Yule-Walker / Levinson-Durbin.
/// Returns `(coefficients, noise variance, series mean)`.
///
/// # Panics
/// Panics unless `order >= 1` and `x.len() > order`.
pub fn yule_walker(x: &[f64], order: usize) -> Option<(Vec<f64>, f64, f64)> {
    assert!(order >= 1, "AR order must be >= 1");
    assert!(x.len() > order, "series shorter than AR order");
    let r = autocorrelations_biased(x, order);
    let mu = x.iter().sum::<f64>() / x.len() as f64;
    levinson_durbin(&r).map(|(a, e)| (a, e, mu))
}

/// One-step-ahead AR forecast given the model `(coeffs, mean)` and the most
/// recent history (oldest first). Uses as many coefficients as history allows.
pub fn ar_forecast(coeffs: &[f64], mean: f64, history: &[f64]) -> f64 {
    let mut acc = mean;
    for (j, &a) in coeffs.iter().enumerate() {
        // coefficient j applies to x[t-(j+1)]
        if j + 1 > history.len() {
            break;
        }
        let x = history[history.len() - 1 - j];
        acc += a * (x - mean);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::{Pcg32, Rng64};

    #[test]
    fn autocovariance_of_constant_is_zero() {
        let x = vec![3.0; 50];
        assert!(autocorrelations_biased(&x, 5).iter().all(|&r| r == 0.0));
    }

    #[test]
    fn lag_zero_is_variance() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mu = 3.0;
        let var: f64 = x.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / 5.0;
        assert!((autocorrelations_biased(&x, 0)[0] - var).abs() < 1e-12);
    }

    /// Generate an AR(2) process with known coefficients and check recovery.
    #[test]
    fn recovers_ar2_coefficients() {
        let (a1, a2) = (0.6, -0.3);
        let mut rng = Pcg32::seed_from_u64(77);
        let n = 50_000;
        let mut x = vec![0.0f64; n];
        for i in 2..n {
            let noise = {
                // Box-Muller-free: sum of uniforms is close enough to normal
                // for coefficient recovery; use 12-sum method.
                let s: f64 = (0..12).map(|_| rng.next_f64()).sum();
                s - 6.0
            };
            x[i] = a1 * x[i - 1] + a2 * x[i - 2] + noise;
        }
        let (coeffs, e, mu) = yule_walker(&x, 2).unwrap();
        assert!((coeffs[0] - a1).abs() < 0.02, "a1 {}", coeffs[0]);
        assert!((coeffs[1] - a2).abs() < 0.02, "a2 {}", coeffs[1]);
        assert!(e > 0.0);
        assert!(mu.abs() < 0.2);
    }

    #[test]
    fn ar1_of_white_noise_is_near_zero() {
        let mut rng = Pcg32::seed_from_u64(5);
        let x: Vec<f64> = (0..20_000).map(|_| rng.next_f64()).collect();
        let (coeffs, _, _) = yule_walker(&x, 1).unwrap();
        assert!(coeffs[0].abs() < 0.03, "white noise a1 = {}", coeffs[0]);
    }

    #[test]
    fn constant_series_returns_none() {
        let x = vec![2.5; 100];
        assert!(yule_walker(&x, 3).is_none());
    }

    #[test]
    fn forecast_uses_coefficients() {
        // Pure AR(1) with a1 = 0.5, mean 10: x̂ = 10 + 0.5(x_last − 10)
        let f = ar_forecast(&[0.5], 10.0, &[8.0, 12.0]);
        assert!((f - 11.0).abs() < 1e-12);
    }

    #[test]
    fn forecast_with_short_history_degrades_gracefully() {
        let f = ar_forecast(&[0.5, 0.2, 0.1], 0.0, &[4.0]);
        assert!((f - 2.0).abs() < 1e-12); // only the lag-1 term applies
    }

    #[test]
    fn forecast_of_mean_reverting_series() {
        // History exactly at mean ⇒ forecast is mean.
        let f = ar_forecast(&[0.9, -0.2], 5.0, &[5.0, 5.0, 5.0]);
        assert_eq!(f, 5.0);
    }

    #[test]
    fn levinson_agrees_with_direct_solve() {
        // Small SPD Toeplitz system solved both ways.
        let r = vec![4.0, 2.0, 1.0, 0.5];
        let (a, _e) = levinson_durbin(&r).unwrap();
        // Direct check: L·a = r[1..] with L[i][j] = r[|i−j|]
        let k = 3;
        for i in 0..k {
            let mut acc = 0.0;
            for j in 0..k {
                acc += r[(i as isize - j as isize).unsigned_abs()] * a[j];
            }
            assert!((acc - r[i + 1]).abs() < 1e-10, "row {i}: {acc} vs {}", r[i + 1]);
        }
    }

    #[test]
    #[should_panic(expected = "AR order must be >= 1")]
    fn order_zero_rejected() {
        yule_walker(&[1.0, 2.0, 3.0], 0);
    }
}
