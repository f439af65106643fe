//! # gm-bench — benchmark harness
//!
//! Self-contained benches (`cargo bench --workspace`), timed by the
//! in-repo [`Harness`] (no external benchmark framework):
//!
//! * `tables` — regenerate Table 1 / Table 2 (quick scale).
//! * `figures` — regenerate Fig. 3–7 (quick scale).
//! * `micro` — hot-path microbenchmarks: Best Response, auctioneer
//!   allocation, SHA-256, Schnorr sign/verify, token verification,
//!   Levinson-Durbin, smoothing spline.
//! * `ablations` — design-choice ablations called out in `DESIGN.md`:
//!   per-interval rebidding on/off, bid-rate premium cap, VM provisioning
//!   cost, AR smoothing on/off.
//!
//! * `telemetry`, `overload`, `attack`, `gray` — "free when idle" budgets:
//!   each times one workload under two configurations with [`Overhead`].
//!
//! The benches print the *quality* metrics they produce (ε, group rows)
//! to stderr once per run so `bench_output.txt` records both speed and
//! outcome.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimal wall-clock timing harness: per benchmark it warms up once,
/// auto-batches fast routines so every sample runs for at least a few
/// milliseconds, then prints per-iteration mean/min/max over the samples.
pub struct Harness {
    samples: usize,
    min_sample_time: Duration,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness with 10 samples of ≥ 5 ms each.
    pub fn new() -> Self {
        Harness {
            samples: 10,
            min_sample_time: Duration::from_millis(5),
        }
    }

    /// Set the number of timed samples.
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Time `f` and print one result line to stdout.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        // Warm-up run doubles as batch-size calibration.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed();
        let batch = (self.min_sample_time.as_nanos() / once.as_nanos().max(1))
            .clamp(1, 1_000_000) as u32;
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        per_iter.sort_by(f64::total_cmp);
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        println!(
            "{name:<44} mean {:>10}  min {:>10}  max {:>10}  ({} samples x {batch} iters)",
            fmt_secs(mean),
            fmt_secs(per_iter[0]),
            fmt_secs(*per_iter.last().expect("samples >= 1")),
            self.samples,
        );
    }
}

/// Human-readable seconds with an adaptive unit.
fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// An interleaved A/B overhead bench: the same workload under a baseline
/// and an armed configuration, [`Overhead::SAMPLES`] samples each,
/// alternating so frequency drift and background noise hit both alike.
/// The medians' relative difference must stay under
/// [`Overhead::BUDGET_PCT`]. Prints one PASS/FAIL line; with `--save` on
/// the command line also writes `BENCH_<file>.json` at the repository
/// root.
pub struct Overhead<'a> {
    /// The JSON `bench` value and the printed label.
    pub bench: &'a str,
    /// `BENCH_<file>.json`.
    pub file: &'a str,
    /// Workload parameters, recorded in the JSON before `samples`.
    pub params: &'a [(&'a str, u64)],
    /// What one sample times (`tick`, `request`, `run`) and its unit
    /// (`us` or `ms`): the JSON keys read `<side>_<what>_<unit>_median`.
    pub what: &'a str,
    /// See [`Overhead::what`].
    pub unit: &'a str,
    /// Names of the baseline and the armed side.
    pub sides: [&'a str; 2],
}

impl Overhead<'_> {
    /// Interleaved samples per side.
    pub const SAMPLES: usize = 15;
    /// The overhead budget, in percent of the baseline median.
    pub const BUDGET_PCT: f64 = 5.0;

    /// Measure, print and (with `--save`) record; returns whether the
    /// overhead is within budget.
    pub fn run(&self, mut baseline: impl FnMut() -> f64, mut armed: impl FnMut() -> f64) -> bool {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..Self::SAMPLES {
            a.push(baseline());
            b.push(armed());
        }
        let (a_med, b_med) = (median(&mut a), median(&mut b));
        let overhead_pct = (b_med - a_med) / a_med * 100.0;
        let pass = overhead_pct < Self::BUDGET_PCT;
        let ([a_name, b_name], budget) = (self.sides, Self::BUDGET_PCT);
        let shown = if self.unit == "us" { "µs" } else { self.unit };
        println!(
            "{:<30} {a_name} {a_med:>9.2} {shown}   {b_name} {b_med:>9.2} {shown}   overhead {overhead_pct:>+6.2} %   budget <{budget} %   {}",
            self.bench,
            if pass { "PASS" } else { "FAIL" }
        );
        if std::env::args().any(|a| a == "--save") {
            let mut json = format!("{{\n  \"bench\": \"{}\",\n", self.bench);
            for (key, v) in self.params {
                json.push_str(&format!("  \"{key}\": {v},\n"));
            }
            let (what, unit) = (self.what, self.unit);
            json.push_str(&format!(
                "  \"samples\": {},\n  \"{a_name}_{what}_{unit}_median\": {a_med:.3},\n  \"{b_name}_{what}_{unit}_median\": {b_med:.3},\n  \"overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": {budget:.1},\n  \"pass\": {pass}\n}}\n",
                Self::SAMPLES
            ));
            save_json(self.file, &json);
        }
        pass
    }
}

/// Wall µs per [`gm_tycoon::Market::tick`], averaged over `ticks` ticks
/// 10 simulated seconds apart starting at `now` (which it advances).
pub fn tick_us(market: &mut gm_tycoon::Market, now: &mut gm_des::SimTime, ticks: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ticks {
        black_box(market.tick(*now));
        *now += gm_des::SimDuration::from_secs(10);
    }
    t0.elapsed().as_secs_f64() * 1e6 / ticks as f64
}

/// The median of `xs` (the upper one for an even count); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Write `json` to `BENCH_<file>.json` at the repository root (what a
/// bench's `--save` does) and print the path.
pub fn save_json(file: &str, json: &str) {
    let path = format!("{}/../../BENCH_{file}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("saved {path}");
}

/// Shared helper: a small deterministic scenario used by several benches.
pub fn bench_scenario(rebid: bool, premium: f64) -> gridmarket::ScenarioResult {
    use gridmarket::scenario::{Scenario, UserSetup};
    let agent = gm_grid::AgentConfig {
        rebid,
        max_share_premium: premium,
        ..gm_grid::AgentConfig::default()
    };
    Scenario::builder()
        .seed(100)
        .hosts(6)
        .chunk_minutes(6.0)
        .deadline_minutes(60)
        .horizon_hours(6)
        .agent(agent)
        .user(UserSetup::new(100.0).subjobs(3))
        .user(UserSetup::new(100.0).subjobs(3))
        .user(UserSetup::new(400.0).subjobs(3))
        .run()
        .expect("bench scenario")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_a_closure() {
        // Smoke test: must not panic, batch must calibrate for a fast fn.
        Harness::new().samples(3).bench("noop_add", || black_box(1u64) + 1);
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_secs(2e-9).ends_with("ns"));
        assert!(fmt_secs(2e-6).ends_with("µs"));
        assert!(fmt_secs(2e-3).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with(" s"));
    }
}
