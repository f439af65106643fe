//! Extension experiment: price predictability, Tycoon vs G-commerce.
//!
//! §6 recounts G-commerce's claim that commodity (posted-price) markets
//! "achieve better price predictability than auctions", and the paper's
//! rebuttal that the auctions simulated there were winner-takes-all, not
//! proportional share. This experiment measures it on our
//! implementations: the coefficient of variation of (a) Tycoon spot
//! prices, (b) a G-commerce posted price, and (c) winner-takes-all
//! clearing prices — all three markets running the *identical* job
//! stream through the one shared `PolicyDriver`, so the only difference
//! is the pricing mechanism itself.

use gm_baselines::{GCommercePolicy, Pricing, WtaPolicy};
use gm_des::SimTime;
use gm_numeric::stats::Moments;
use gm_tycoon::{HostSpec, UserId, DEFAULT_INTERVAL_SECS};
use gridmarket::grid::AgentConfig;
use gridmarket::sched::{AllocationPolicy, JobRequest, PolicyDriver, RunResult};
use gridmarket::tycoon_policy;

use crate::Scale;

/// Structured result.
#[derive(Clone, Debug)]
pub struct Volatility {
    /// CoV of Tycoon spot prices (host 0).
    pub tycoon_cov: f64,
    /// CoV of the G-commerce posted price.
    pub gcommerce_cov: f64,
    /// Mean one-step relative prediction error ("predictability"): Tycoon.
    pub tycoon_step_err: f64,
    /// Mean one-step relative prediction error: G-commerce posted price.
    pub gcommerce_step_err: f64,
    /// Rendered report.
    pub rendered: String,
}

fn cov(xs: &[f64]) -> Option<f64> {
    let m = Moments::of(xs)?;
    if m.mean.abs() < 1e-300 {
        return None;
    }
    Some(m.std_dev / m.mean)
}

/// Mean |x(t+1) − x(t)| / x(t): how wrong the naive "price stays" forecast
/// is one step out — the operational meaning of "price predictability".
fn step_error(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    let mut n = 0usize;
    for w in xs.windows(2) {
        if w[0].abs() > 1e-300 {
            acc += (w[1] - w[0]).abs() / w[0];
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

/// Run the comparison.
pub fn run(scale: Scale) -> Volatility {
    run_seeded(scale, 0xA11)
}

/// [`run`] with an explicit market seed (Monte-Carlo entry point). Only
/// the Tycoon market takes a key seed; the posted-price and WTA baselines
/// are deterministic given the (fixed) job stream.
pub fn run_seeded(scale: Scale, seed: u64) -> Volatility {
    let hours = match scale {
        Scale::Paper => 24.0,
        Scale::Quick => 3.0,
    };

    // The shared inventory and arrival stream every market runs under.
    let hosts: Vec<HostSpec> = (0..10).map(HostSpec::testbed).collect();
    let jobs: Vec<JobRequest> = (0..12)
        .map(|i| JobRequest {
            id: i,
            user: UserId(i % 4 + 1),
            subjobs: 4,
            work_per_subjob: 30.0 * 60.0 * 2910.0,
            arrival: SimTime::from_secs(i as u64 * 600),
            budget: 150.0 + 50.0 * (i % 3) as f64,
            deadline_secs: 3600.0,
        })
        .collect();
    let horizon = SimTime::from_secs((hours * 3600.0) as u64);

    let drive = |policy: &mut dyn AllocationPolicy| -> RunResult {
        PolicyDriver::new(hosts.clone(), DEFAULT_INTERVAL_SECS)
            .horizon(horizon)
            .run(policy, &jobs)
            .expect("valid jobs")
    };

    // (a) Tycoon spot prices (host 0) through the shared driver.
    let mut ty = tycoon_policy(seed, &hosts, AgentConfig::default(), None, |_| {});
    drive(&mut ty);
    let tycoon_prices: Vec<f64> = ty
        .market()
        .price_trace()
        .get("host000")
        .map(|s| s.values().to_vec())
        .unwrap_or_default();
    let tycoon_cov = cov(&tycoon_prices).unwrap_or(f64::NAN);

    let gc = drive(&mut GCommercePolicy::default());
    let gc_prices: Vec<f64> = gc.price_history.iter().map(|(_, p)| *p).collect();
    let gcommerce_cov = cov(&gc_prices).unwrap_or(f64::NAN);

    let wta = drive(&mut WtaPolicy::new(Pricing::FirstPrice));
    let wta_prices: Vec<f64> = wta.price_history.iter().map(|(_, p)| *p).collect();
    let wta_cov = cov(&wta_prices);

    let tycoon_step_err = step_error(&tycoon_prices);
    let gcommerce_step_err = step_error(&gc_prices);

    let mut rendered = String::from("Extension: price predictability\n");
    rendered.push_str("                                  CoV (spread)   1-step err (forecastability)\n");
    rendered.push_str(&format!(
        "tycoon spot (proportional share): {tycoon_cov:>12.3} {tycoon_step_err:>16.4}\n"
    ));
    rendered.push_str(&format!(
        "g-commerce posted price:          {gcommerce_cov:>12.3} {gcommerce_step_err:>16.4}\n"
    ));
    match wta_cov {
        Some(c) => rendered.push_str(&format!("winner-takes-all clearing:        {c:>12.3}\n")),
        None => rendered.push_str("winner-takes-all clearing:        (no contested intervals)\n"),
    }
    rendered.push_str(
        "(G-commerce's predictability advantage is the bounded per-step movement —\n the 1-step error column — not lower long-run spread.)\n",
    );
    Volatility {
        tycoon_cov,
        gcommerce_cov,
        tycoon_step_err,
        gcommerce_step_err,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_markets_produce_finite_covs() {
        let v = run(Scale::Quick);
        assert!(v.tycoon_cov.is_finite() && v.tycoon_cov > 0.0);
        assert!(v.gcommerce_cov.is_finite() && v.gcommerce_cov >= 0.0);
        assert!(v.rendered.contains("tycoon"));
    }

    #[test]
    fn posted_prices_are_more_forecastable_than_spot() {
        // The G-commerce predictability claim, measured operationally:
        // posted prices move ≤ ±5 % per interval by construction, while
        // spot prices jump when bids arrive/exit.
        let v = run(Scale::Quick);
        assert!(
            v.gcommerce_step_err <= 0.05 + 1e-9,
            "posted per-step movement must be bounded: {}",
            v.gcommerce_step_err
        );
        assert!(
            v.gcommerce_step_err < v.tycoon_step_err,
            "posted {:.4} should be more forecastable than spot {:.4}",
            v.gcommerce_step_err,
            v.tycoon_step_err
        );
    }
}
