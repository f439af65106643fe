//! Guard-layer overhead microbench (`DESIGN.md` §16).
//!
//! Runs the same honest chaos scenario — the default `ChaosConfig` world
//! driven end to end through `PolicyDriver` + `TycoonPolicy` — twice:
//! once with the market guard disabled (the pre-defense market) and once
//! with the default guard armed but never firing (rate limiter, circuit
//! breaker and quarantine all vetting every bid placement and re-bid).
//! Reports the median full-run wall time of each and the relative
//! overhead, which the design budget caps at 5 % — defenses must be free
//! when every bidder is honest.
//!
//! `--save` (what `just bench-save-attack` passes) writes the result to
//! `BENCH_attack.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use gm_bench::Overhead;
use gm_experiments::mc::{chaos_driver, job_stream, tycoon_policy};
use gm_tycoon::GuardConfig;
use gridmarket::ChaosConfig;

const SEED: u64 = 0xBE7C_47AC;

/// Wall time (ms) of one full honest chaos run under `guard`.
fn sample_run_ms(guard: GuardConfig) -> f64 {
    let cfg = ChaosConfig::default();
    let mut driver = chaos_driver(SEED, &cfg);
    let mut policy = tycoon_policy(SEED, driver.host_specs(), |market| market.set_guard(guard));
    // The honest stream of the default world (the Monte-Carlo suite's).
    let jobs = job_stream(&cfg);

    let t0 = Instant::now();
    let r = driver.run(&mut policy, &jobs).expect("honest chaos run");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(r.outcomes.len());
    ms
}

fn main() {
    Overhead {
        bench: "honest_chaos_run",
        file: "attack",
        params: &[],
        what: "run",
        unit: "ms",
        sides: ["open", "guarded"],
    }
    .run(|| sample_run_ms(GuardConfig::disabled()), || sample_run_ms(GuardConfig::default()));
}
