//! Gray-resilience overhead microbench (`DESIGN.md` §17).
//!
//! Runs the same chaos scenario — the default `ChaosConfig` world, which
//! has binary faults but **no gray faults** — twice: once with health
//! scoring + speculative re-dispatch off (the pre-§17 agent) and once
//! with the default armed agent. With no gray faults every health score
//! stays at exactly 1.0, nothing is probated and no twin ever launches,
//! so the armed run pays only the observation overhead: the per-tick
//! observed-vs-expected progress samples, the probation aging sweep and
//! the candidate ranking. The design budget caps that at 5 % — the
//! sensor must be free when nothing is failing.
//!
//! `--save` (what `just bench-save-gray` passes) writes the result to
//! `BENCH_gray.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use gm_bench::Overhead;
use gm_experiments::ext_gray::nospec_agent;
use gm_grid::AgentConfig;
use gridmarket::ChaosConfig;

const SEED: u64 = 0x617A_717E;

/// Wall time (ms) of one full chaos run under `agent`.
fn sample_run_ms(agent: AgentConfig) -> f64 {
    let cfg = ChaosConfig::default();
    let t0 = Instant::now();
    let r = cfg
        .scenario(SEED)
        .agent(agent)
        .run()
        .expect("chaos run completes");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(r.users.len());
    ms
}

fn main() {
    Overhead {
        bench: "gray_free_chaos_run",
        file: "gray",
        params: &[],
        what: "run",
        unit: "ms",
        sides: ["off", "armed"],
    }
    .run(|| sample_run_ms(nospec_agent()), || sample_run_ms(AgentConfig::default()));
}
