//! Risk management via Markowitz mean-variance portfolios (§4.4, Fig. 5).
//!
//! "As return we select the performance of the resource calculated as
//! number of CPU cycles per second that are delivered per amount of money
//! paid per second (inverse of spot market price)." Given per-host return
//! series, we estimate the mean vector `µ` and covariance `Σ`, then
//!
//! * the **minimum-variance ("risk-free") portfolio** `w = Σ⁻¹1/(1ᵀΣ⁻¹1)`,
//! * the **efficient frontier** via the two-fund theorem with
//!   `A = 1ᵀΣ⁻¹1`, `B = 1ᵀΣ⁻¹µ`, `C = µᵀΣ⁻¹µ`, `D = AC − B²`.

use gm_numeric::linalg::{dot, Matrix};

/// Estimated return statistics of a set of assets (hosts).
#[derive(Clone, Debug)]
pub struct ReturnStats {
    /// Mean return per asset.
    pub mean: Vec<f64>,
    /// Covariance matrix (n × n).
    pub cov: Matrix,
}

impl ReturnStats {
    /// Estimate from per-asset return series (`returns[i]` = series of
    /// asset i; all series must be equally long, length ≥ 2).
    ///
    /// # Panics
    /// Panics on ragged input or fewer than 2 observations.
    pub fn estimate(returns: &[Vec<f64>]) -> ReturnStats {
        let n = returns.len();
        assert!(n > 0, "no assets");
        let t = returns[0].len();
        assert!(t >= 2, "need at least two observations");
        for r in returns {
            assert_eq!(r.len(), t, "ragged return series");
        }
        let mean: Vec<f64> = returns.iter().map(|r| r.iter().sum::<f64>() / t as f64).collect();
        let mut cov = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut acc = 0.0;
                for (ri, rj) in returns[i].iter().zip(&returns[j]) {
                    acc += (ri - mean[i]) * (rj - mean[j]);
                }
                let c = acc / (t - 1) as f64;
                cov[(i, j)] = c;
                cov[(j, i)] = c;
            }
        }
        ReturnStats { mean, cov }
    }

    /// Number of assets.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// True when no assets.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Portfolio variance `wᵀΣw`.
    pub fn variance_of(&self, weights: &[f64]) -> f64 {
        dot(weights, &self.cov.mul_vec(weights))
    }
}

/// A point on the efficient frontier.
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// Target expected return.
    pub expected_return: f64,
    /// Portfolio standard deviation at that return.
    pub risk: f64,
    /// Asset weights (sum to 1; may be negative = short).
    pub weights: Vec<f64>,
}

/// The minimum-variance portfolio `Σ⁻¹1/(1ᵀΣ⁻¹1)`. `None` if `Σ` is
/// singular (e.g. a riskless or duplicated asset).
pub fn min_variance_portfolio(stats: &ReturnStats) -> Option<Vec<f64>> {
    let n = stats.len();
    let ones = vec![1.0; n];
    let si = stats.cov.solve(&ones)?; // Σ⁻¹·1
    let a: f64 = si.iter().sum(); // 1ᵀΣ⁻¹1
    if a.abs() < 1e-300 {
        return None;
    }
    Some(si.iter().map(|v| v / a).collect())
}

/// Efficient frontier between `r_min` and `r_max` (inclusive) in `points`
/// steps. `None` when `Σ` is singular or the frontier is degenerate (all
/// assets share one mean).
pub fn efficient_frontier(
    stats: &ReturnStats,
    r_min: f64,
    r_max: f64,
    points: usize,
) -> Option<Vec<FrontierPoint>> {
    assert!(points >= 2, "need at least two frontier points");
    assert!(r_min <= r_max, "r_min > r_max");
    let n = stats.len();
    let ones = vec![1.0; n];
    let si_one = stats.cov.solve(&ones)?; // Σ⁻¹1
    let si_mu = stats.cov.solve(&stats.mean)?; // Σ⁻¹µ
    let a: f64 = si_one.iter().sum();
    let b: f64 = dot(&stats.mean, &si_one);
    let c: f64 = dot(&stats.mean, &si_mu);
    let d = a * c - b * b;
    if d.abs() < 1e-12 {
        return None; // degenerate: all means equal
    }

    let mut out = Vec::with_capacity(points);
    for k in 0..points {
        let r = r_min + (r_max - r_min) * k as f64 / (points - 1) as f64;
        let lambda = (c - r * b) / d;
        let gamma = (r * a - b) / d;
        let weights: Vec<f64> = si_one
            .iter()
            .zip(&si_mu)
            .map(|(o, m)| lambda * o + gamma * m)
            .collect();
        let risk = stats.variance_of(&weights).max(0.0).sqrt();
        out.push(FrontierPoint {
            expected_return: r,
            risk,
            weights,
        });
    }
    Some(out)
}

/// Equal-share benchmark weights (`1/n` each).
pub fn equal_share(n: usize) -> Vec<f64> {
    assert!(n > 0);
    vec![1.0 / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::Pcg32;
    use gm_numeric::samplers::{Normal, Sampler};

    /// Independent assets with distinct variances.
    fn synthetic_stats(vars: &[f64], means: &[f64], t: usize, seed: u64) -> ReturnStats {
        let mut rng = Pcg32::seed_from_u64(seed);
        let returns: Vec<Vec<f64>> = vars
            .iter()
            .zip(means)
            .map(|(&v, &m)| Normal::new(m, v.sqrt()).sample_n(&mut rng, t))
            .collect();
        ReturnStats::estimate(&returns)
    }

    #[test]
    fn estimate_recovers_moments() {
        let stats = synthetic_stats(&[1.0, 4.0], &[10.0, 20.0], 100_000, 1);
        assert!((stats.mean[0] - 10.0).abs() < 0.05);
        assert!((stats.mean[1] - 20.0).abs() < 0.05);
        assert!((stats.cov[(0, 0)] - 1.0).abs() < 0.05);
        assert!((stats.cov[(1, 1)] - 4.0).abs() < 0.1);
        assert!(stats.cov[(0, 1)].abs() < 0.05, "independent assets");
    }

    #[test]
    fn min_variance_weights_favor_low_variance_assets() {
        let stats = synthetic_stats(&[0.25, 4.0], &[1.0, 1.0], 50_000, 2);
        let w = min_variance_portfolio(&stats).unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w[0] > w[1], "low-variance asset should dominate: {w:?}");
        // Analytic check for independent assets: w_i ∝ 1/σ_i².
        let expect0 = (1.0 / 0.25) / (1.0 / 0.25 + 1.0 / 4.0);
        assert!((w[0] - expect0).abs() < 0.05, "{} vs {expect0}", w[0]);
    }

    #[test]
    fn min_variance_beats_equal_share_variance() {
        let stats = synthetic_stats(&[0.1, 1.0, 2.0, 4.0], &[1.0, 1.0, 1.0, 1.0], 50_000, 3);
        let w_min = min_variance_portfolio(&stats).unwrap();
        let w_eq = equal_share(4);
        assert!(
            stats.variance_of(&w_min) < stats.variance_of(&w_eq),
            "min-variance must not lose to equal share"
        );
    }

    #[test]
    fn frontier_is_risk_monotone_away_from_mvp() {
        let stats = synthetic_stats(&[1.0, 2.0, 0.5], &[1.0, 2.0, 0.8], 50_000, 4);
        let frontier = efficient_frontier(&stats, 0.8, 2.0, 20).unwrap();
        // Risk should be minimized somewhere in the middle (at the MVP
        // return) and increase monotonically on each side.
        let min_idx = frontier
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.risk.partial_cmp(&b.1.risk).unwrap())
            .unwrap()
            .0;
        for i in 1..=min_idx {
            assert!(frontier[i - 1].risk >= frontier[i].risk - 1e-9);
        }
        for i in min_idx..frontier.len() - 1 {
            assert!(frontier[i + 1].risk >= frontier[i].risk - 1e-9);
        }
        // All weights sum to 1.
        for p in &frontier {
            assert!((p.weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn frontier_points_hit_target_returns() {
        let stats = synthetic_stats(&[1.0, 2.0], &[1.0, 3.0], 50_000, 5);
        let frontier = efficient_frontier(&stats, 1.0, 3.0, 5).unwrap();
        for p in &frontier {
            let r = dot(&p.weights, &stats.mean);
            assert!((r - p.expected_return).abs() < 1e-6, "{r} vs {}", p.expected_return);
        }
    }

    #[test]
    fn degenerate_equal_means_yields_none() {
        // Identical means make D = 0.
        let mut cov = Matrix::identity(2);
        cov[(0, 0)] = 1.0;
        cov[(1, 1)] = 2.0;
        let stats = ReturnStats {
            mean: vec![1.0, 1.0],
            cov,
        };
        assert!(efficient_frontier(&stats, 0.5, 1.5, 3).is_none());
        // But the MVP still exists.
        assert!(min_variance_portfolio(&stats).is_some());
    }

    #[test]
    fn singular_covariance_yields_none() {
        // Two perfectly correlated assets.
        let mut cov = Matrix::zeros(2, 2);
        cov[(0, 0)] = 1.0;
        cov[(0, 1)] = 1.0;
        cov[(1, 0)] = 1.0;
        cov[(1, 1)] = 1.0;
        let stats = ReturnStats {
            mean: vec![1.0, 2.0],
            cov,
        };
        assert!(min_variance_portfolio(&stats).is_none());
        assert!(efficient_frontier(&stats, 1.0, 2.0, 3).is_none());
    }

    #[test]
    fn mvp_is_on_the_frontier_at_its_return() {
        let stats = synthetic_stats(&[1.0, 0.5, 2.0], &[1.0, 1.5, 2.5], 50_000, 6);
        let w_mvp = min_variance_portfolio(&stats).unwrap();
        let r_mvp = dot(&w_mvp, &stats.mean);
        let frontier = efficient_frontier(&stats, r_mvp, r_mvp, 2).unwrap();
        let v_frontier = frontier[0].risk.powi(2);
        let v_mvp = stats.variance_of(&w_mvp);
        assert!((v_frontier - v_mvp).abs() < 1e-9, "{v_frontier} vs {v_mvp}");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_input_rejected() {
        ReturnStats::estimate(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
