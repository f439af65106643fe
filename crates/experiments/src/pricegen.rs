//! Long-horizon price-trace generation.
//!
//! The prediction experiments (§5.4) need hours-to-days of spot-price
//! history with the characteristic shape of a batch market: prices ramp
//! while jobs compete and drop sharply when batches complete. We generate
//! such traces by actually running the grid market under a stochastic
//! arrival process (Poisson arrivals, uniformly drawn funding, chunk
//! sizes and widths) — the same end-to-end stack as Tables 1–2, not a
//! synthetic price formula. The world is built with the shared
//! [`tycoon_policy`] and jobs enter through [`submit_funded`], but the
//! ticks are stepped here: a trace must span the configured hours, while
//! the `PolicyDriver` stops once all work has settled.

use gm_bio::workload::BioWorkload;
use gm_des::{Pcg32, Rng64, SimDuration, SimTime, Trace};
use gm_grid::AgentConfig;
use gm_tycoon::{Credits, HostSpec};
use gridmarket::{submit_funded, tycoon_policy, TycoonJobSetup};

/// Configuration of the arrival-driven price generator.
#[derive(Clone, Debug)]
pub struct PriceGenConfig {
    /// Number of testbed hosts.
    pub hosts: u32,
    /// Trace length in hours.
    pub hours: f64,
    /// Deterministic seed.
    pub seed: u64,
    /// Market reallocation interval in seconds (coarser than 10 s keeps
    /// week-long traces cheap).
    pub interval_secs: f64,
    /// Mean job arrivals per hour.
    pub arrivals_per_hour: f64,
    /// Uniform range of chunk lengths (minutes at full vCPU).
    pub chunk_minutes: (f64, f64),
    /// Uniform range of token funding (credits).
    pub funding: (f64, f64),
    /// Uniform range of sub-job counts.
    pub subjobs: (u32, u32),
}

impl PriceGenConfig {
    /// Defaults sized for the Fig. 4 trace (10 hosts, busy market).
    pub fn new(hours: f64, seed: u64) -> PriceGenConfig {
        PriceGenConfig {
            hosts: 10,
            hours,
            seed,
            interval_secs: 30.0,
            arrivals_per_hour: 6.0,
            chunk_minutes: (10.0, 60.0),
            funding: (20.0, 300.0),
            subjobs: (2, 8),
        }
    }
}

/// Generate the spot-price trace of every host under the configured
/// arrival process.
pub fn generate(cfg: &PriceGenConfig) -> Trace {
    let hosts: Vec<HostSpec> = (0..cfg.hosts).map(HostSpec::testbed).collect();
    let mut policy = tycoon_policy(cfg.seed, &hosts, AgentConfig::default(), None, |market| {
        market.set_interval_secs(cfg.interval_secs)
    });
    // A pool of rotating grid users with deep pockets.
    let n_users = 8usize;
    let mut users: Vec<TycoonJobSetup> = (1..=n_users as u32)
        .map(|n| {
            let (identity, account) = policy.open_user(n, 1_000_000.0);
            let workload = BioWorkload::paper_default();
            TycoonJobSetup { identity, account, label: String::new(), workload }
        })
        .collect();
    let (mut market, mut jm) = policy.into_parts();

    let mut rng = Pcg32::new(cfg.seed, 0x9e47);
    // Pre-draw exponential inter-arrival times.
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    let horizon_secs = cfg.hours * 3600.0;
    let mean_gap = 3600.0 / cfg.arrivals_per_hour;
    loop {
        t += -rng.next_f64_open().ln() * mean_gap;
        if t >= horizon_secs {
            break;
        }
        arrivals.push(t);
    }

    let dt = SimDuration::from_secs_f64(cfg.interval_secs);
    let mut now = SimTime::ZERO;
    let mut next_arrival = 0usize;
    let mut user_rr = 0usize;
    while now.as_secs_f64() < horizon_secs {
        while next_arrival < arrivals.len() && arrivals[next_arrival] <= now.as_secs_f64() {
            let user = &mut users[user_rr % n_users];
            user_rr += 1;
            next_arrival += 1;

            let chunk_min = rng.next_range_f64(cfg.chunk_minutes.0, cfg.chunk_minutes.1);
            let funding = rng.next_range_f64(cfg.funding.0, cfg.funding.1);
            let subjobs = cfg.subjobs.0
                + rng.next_bounded((cfg.subjobs.1 - cfg.subjobs.0 + 1) as u64) as u32;
            user.label = format!("arrival{next_arrival}");
            user.workload = BioWorkload {
                subjobs,
                chunk_minutes: chunk_min,
                deadline_minutes: (chunk_min * 2.0).ceil() as u64 + 10,
            };
            // A rejected or unfundable arrival is simply not submitted.
            let _ = submit_funded(&mut market, &mut jm, now, user, Credits::from_f64(funding));
        }
        jm.step(&mut market, now);
        now += dt;
    }
    market.price_trace().clone()
}

/// Convenience: the price series of host 0 as a plain vector.
pub fn host0_prices(cfg: &PriceGenConfig) -> Vec<f64> {
    let trace = generate(cfg);
    trace
        .get("host000")
        .map(|s| s.values().to_vec())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_expected_length_and_activity() {
        let cfg = PriceGenConfig {
            hours: 2.0,
            ..PriceGenConfig::new(2.0, 7)
        };
        let prices = host0_prices(&cfg);
        // 2 h at 30 s interval = 240 samples.
        assert_eq!(prices.len(), 240);
        // The market must actually move: some price above the reserve.
        assert!(prices.iter().any(|&p| p > 1e-4), "market never active");
        // Prices must vary (batch completions → drops).
        let max = prices.iter().cloned().fold(0.0, f64::max);
        let min = prices.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min * 2.0, "no price dynamics: {min}..{max}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = PriceGenConfig::new(1.0, 11);
        assert_eq!(host0_prices(&cfg), host0_prices(&cfg));
        let other = PriceGenConfig::new(1.0, 12);
        assert_ne!(host0_prices(&cfg), host0_prices(&other));
    }

    #[test]
    fn all_hosts_have_series() {
        let cfg = PriceGenConfig::new(1.0, 3);
        let trace = generate(&cfg);
        assert_eq!(trace.len(), 10);
    }
}
