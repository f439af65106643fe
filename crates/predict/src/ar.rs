//! AR(k) price prediction on time-series history (§4.3, Fig. 4).
//!
//! Pipeline exactly as the paper describes: (1) optionally smooth the raw
//! price snapshots with a smoothing spline — "the basic AR model … had
//! problems predicting future prices due to sharp price drops when batch
//! jobs completed. To overcome this issue we applied a smoothing function
//! … before calculating the AR model" (§5.4) — then (2) compute unbiased
//! autocorrelations, (3) solve Yule-Walker by the Levinson reformulation,
//! and (4) forecast `x̂_{t+h} = μ + Σ α_j (x_{t+h−j} − μ)` iteratively.
//!
//! Validation uses the paper's ε metric: `ε = (1/n)·Σ σ_i / μ_d`, the mean
//! standard deviation of (prediction, measurement) pairs normalized by the
//! mean measured price in the validation interval.

use gm_numeric::spline::smoothing_spline;
use gm_numeric::toeplitz::{ar_forecast, yule_walker};

/// How the forecast anchors its mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeanMode {
    /// The paper's Eq. in §4.3: deviations from the global training mean.
    Global,
    /// Deviations from the mean of the most recent `n` samples — robust to
    /// the regime shifts of a live market (price levels drift as batches
    /// arrive and leave, so the 20-hour-old mean is a poor anchor).
    Local(usize),
}

/// A fitted autoregressive price model.
#[derive(Clone, Debug)]
pub struct ArModel {
    coeffs: Vec<f64>,
    mean: f64,
    smoothing_lambda: f64,
    mean_mode: MeanMode,
}

impl ArModel {
    /// Fit an AR(`order`) model to `prices`, optionally pre-smoothing with
    /// penalty `smoothing_lambda` (0 disables smoothing).
    ///
    /// Returns `None` for degenerate series (constant prices), matching
    /// `yule_walker`.
    ///
    /// # Panics
    /// Panics unless `order >= 1` and `prices.len() > order`.
    pub fn fit(prices: &[f64], order: usize, smoothing_lambda: f64) -> Option<ArModel> {
        let series: Vec<f64> = if smoothing_lambda > 0.0 {
            smoothing_spline(prices, smoothing_lambda)
        } else {
            prices.to_vec()
        };
        let (coeffs, _, mean) = yule_walker(&series, order)?;
        Some(ArModel {
            coeffs,
            mean,
            smoothing_lambda,
            mean_mode: MeanMode::Global,
        })
    }

    /// Switch the forecast anchor (see [`MeanMode`]). Returns `self` for
    /// builder-style chaining.
    pub fn with_mean_mode(mut self, mode: MeanMode) -> ArModel {
        if let MeanMode::Local(n) = mode {
            assert!(n >= 1, "local mean window must be >= 1");
        }
        self.mean_mode = mode;
        self
    }

    /// Model order `k`.
    pub fn order(&self) -> usize {
        self.coeffs.len()
    }

    /// Series mean `μ`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    fn anchor(&self, history: &[f64]) -> f64 {
        match self.mean_mode {
            MeanMode::Global => self.mean,
            MeanMode::Local(n) => {
                let tail = &history[history.len().saturating_sub(n)..];
                if tail.is_empty() {
                    self.mean
                } else {
                    tail.iter().sum::<f64>() / tail.len() as f64
                }
            }
        }
    }

    /// `steps`-ahead forecast by iterating the model on its own output.
    /// Returns the full forecast path of length `steps`.
    pub fn forecast_path(&self, history: &[f64], steps: usize) -> Vec<f64> {
        let mut h = self.smoothed(history);
        let anchor = self.anchor(&h);
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = ar_forecast(&self.coeffs, anchor, &h);
            out.push(next);
            h.push(next);
        }
        out
    }

    fn smoothed(&self, history: &[f64]) -> Vec<f64> {
        if self.smoothing_lambda > 0.0 {
            smoothing_spline(history, self.smoothing_lambda)
        } else {
            history.to_vec()
        }
    }
}

/// The paper's ε error: mean σ of (prediction, measurement) pairs over the
/// mean measured price. The σ of a 2-element sample `{p, m}` is `|p−m|/√2`.
///
/// # Panics
/// Panics if lengths differ or the inputs are empty.
pub fn epsilon(predictions: &[f64], measurements: &[f64]) -> f64 {
    assert_eq!(predictions.len(), measurements.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty validation interval");
    let n = measurements.len() as f64;
    let mu_d = measurements.iter().sum::<f64>() / n;
    assert!(mu_d.abs() > 0.0, "zero mean measurement");
    let sum_sigma: f64 = predictions
        .iter()
        .zip(measurements)
        .map(|(p, m)| (p - m).abs() / std::f64::consts::SQRT_2)
        .sum();
    sum_sigma / (n * mu_d)
}

/// ε of the naive benchmark that "always predict\[s\] the current price to
/// remain for the next hour": prediction at `t+h` is the value at `t`.
///
/// `horizon` is the forecast distance in samples.
///
/// # Panics
/// Panics if the series is shorter than `horizon + 1`.
pub fn naive_epsilon(series: &[f64], horizon: usize) -> f64 {
    assert!(series.len() > horizon, "series shorter than horizon");
    let preds: Vec<f64> = series[..series.len() - horizon].to_vec();
    let meas: Vec<f64> = series[horizon..].to_vec();
    epsilon(&preds, &meas)
}

/// Walk-forward AR validation: fit on `train`, then at every index of
/// `validate` produce an `horizon`-step forecast using all data up to that
/// point, and return `(predictions, measurements)` aligned at the forecast
/// target times.
pub fn walk_forward(
    model: &ArModel,
    train: &[f64],
    validate: &[f64],
    horizon: usize,
) -> (Vec<f64>, Vec<f64>) {
    assert!(horizon >= 1);
    let mut full: Vec<f64> = train.to_vec();
    let mut preds = Vec::new();
    let mut meas = Vec::new();
    for (i, &actual) in validate.iter().enumerate() {
        // Forecast `horizon` ahead from the data ending just before the
        // target index.
        if i >= horizon {
            // history = train + validate[..i−horizon+1]
            let hist_end = i - horizon + 1;
            let history: Vec<f64> = full[..train.len() + hist_end].to_vec();
            // Cap history length for O(n) spline cost: the model only needs
            // a window comfortably larger than its order.
            let window = 32 * (model.order() + 1);
            let h = if history.len() > window {
                &history[history.len() - window..]
            } else {
                &history[..]
            };
            let path = model.forecast_path(h, horizon);
            preds.push(*path.last().expect("nonempty path"));
            meas.push(actual);
        }
        full.push(actual);
    }
    (preds, meas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::{Pcg32, Rng64};

    fn ar2_series(n: usize, seed: u64, noise: f64) -> Vec<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut x = vec![10.0f64; n];
        for i in 2..n {
            let e: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            x[i] = 10.0 + 0.6 * (x[i - 1] - 10.0) - 0.2 * (x[i - 2] - 10.0) + noise * e;
        }
        x
    }

    #[test]
    fn fit_recovers_structure() {
        let series = ar2_series(20_000, 3, 0.5);
        let m = ArModel::fit(&series, 2, 0.0).unwrap();
        assert!((m.coeffs[0] - 0.6).abs() < 0.05, "{:?}", m.coeffs);
        assert!((m.coeffs[1] + 0.2).abs() < 0.05, "{:?}", m.coeffs);
        assert!((m.mean() - 10.0).abs() < 0.2);
        assert_eq!(m.order(), 2);
    }

    #[test]
    fn constant_series_returns_none() {
        assert!(ArModel::fit(&[5.0; 100], 3, 0.0).is_none());
    }

    #[test]
    fn forecast_beats_naive_on_ar_series() {
        let series = ar2_series(4000, 9, 0.5);
        let (train, validate) = series.split_at(2000);
        let m = ArModel::fit(train, 2, 0.0).unwrap();
        let horizon = 5;
        let (preds, meas) = walk_forward(&m, train, validate, horizon);
        let eps_ar = epsilon(&preds, &meas);
        let eps_naive = naive_epsilon(&series[2000..], horizon);
        assert!(
            eps_ar < eps_naive,
            "AR ε {eps_ar:.4} should beat naive ε {eps_naive:.4}"
        );
    }

    #[test]
    fn forecast_converges_to_mean() {
        let series = ar2_series(5000, 4, 0.5);
        let m = ArModel::fit(&series, 2, 0.0).unwrap();
        let path = m.forecast_path(&series[..100], 500);
        let last = *path.last().unwrap();
        // Stationary AR forecasts decay to the mean.
        assert!((last - m.mean()).abs() < 0.05, "{last} vs {}", m.mean());
    }

    #[test]
    fn epsilon_zero_for_perfect_prediction() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(epsilon(&xs, &xs), 0.0);
    }

    #[test]
    fn epsilon_known_value() {
        // One pair (3, 1): σ = 2/√2 = √2; μ_d = 1 → ε = √2.
        let e = epsilon(&[3.0], &[1.0]);
        assert!((e - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn naive_epsilon_of_constant_series_is_zero() {
        assert_eq!(naive_epsilon(&[2.0; 50], 6), 0.0);
    }

    #[test]
    fn smoothing_reduces_epsilon_on_spiky_series() {
        // Price series with sharp drops when "batch jobs complete" (§5.4):
        // slow sawtooth ramps with cliffs.
        let mut series = Vec::new();
        for cycle in 0..60 {
            for i in 0..50 {
                series.push(1.0 + i as f64 * 0.05 + (cycle % 3) as f64 * 0.1);
            }
        }
        let (train, validate) = series.split_at(1500);
        let horizon = 6;
        let raw = ArModel::fit(train, 6, 0.0).unwrap();
        let smooth = ArModel::fit(train, 6, 50.0).unwrap();
        let (p_raw, m_raw) = walk_forward(&raw, train, validate, horizon);
        let (p_s, m_s) = walk_forward(&smooth, train, validate, horizon);
        let e_raw = epsilon(&p_raw, &m_raw);
        let e_smooth = epsilon(&p_s, &m_s);
        assert!(
            e_smooth < e_raw * 1.2,
            "smoothing should not make things much worse: {e_smooth} vs {e_raw}"
        );
    }

    #[test]
    fn walk_forward_alignment() {
        // With horizon 1, predictions align with validate[1..].
        let series = ar2_series(300, 5, 0.2);
        let (train, validate) = series.split_at(200);
        let m = ArModel::fit(train, 2, 0.0).unwrap();
        let (preds, meas) = walk_forward(&m, train, validate, 1);
        assert_eq!(preds.len(), validate.len() - 1);
        assert_eq!(meas, validate[1..].to_vec());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn epsilon_rejects_mismatched_lengths() {
        epsilon(&[1.0], &[1.0, 2.0]);
    }
}
