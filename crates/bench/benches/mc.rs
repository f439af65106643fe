//! Monte-Carlo scenario-runner throughput bench (DESIGN.md §13).
//!
//! Fans the same fixed seed set of chaos scenarios — the full market
//! stack under random `FaultPlan`s — through `gm_core::MonteCarlo` at
//! 1, 2, 4 and 8 worker threads and reports scenarios/sec plus the
//! parallel efficiency `speedup(n) / n` relative to the single-thread
//! run. Each thread count is timed as the fastest of `ROUNDS` rounds,
//! and every round runs all four counts in turn, so a cold first run
//! or a burst of load from a neighbour on a shared machine lands in
//! one sample of every row instead of deciding one row. The budget
//! requires ≥ 60 % efficiency at every thread count that the machine
//! can actually parallelise (thread counts above
//! `available_parallelism` are reported but not gated — oversubscribing
//! a small CI box is not a harness regression).
//!
//! Every run also re-checks the determinism contract: the rendered
//! report at n threads must be byte-identical to the 1-thread report.
//!
//! `--save` (what `just bench-save-mc` passes) writes the result to
//! `BENCH_mc.json` at the repository root.

use std::time::Instant;

use gridmarket::sched::seed_stream;
use gridmarket::{chaos_runner, chaos_scenario, ChaosConfig, ChaosMetrics};

const SEEDS: usize = 48;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const ROUNDS: usize = 5;
const EFFICIENCY_BUDGET: f64 = 0.60;

/// One thread-count measurement: wall time and the rendered report.
fn run_at(threads: usize, seeds: &[u64]) -> (f64, String) {
    let cfg = ChaosConfig::default();
    let mc = chaos_runner(threads);
    let t0 = Instant::now();
    let batch = mc.run(seeds, move |s| chaos_scenario(s, &cfg));
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        batch.completed().count(),
        seeds.len(),
        "bench seeds must not quarantine"
    );
    (secs, batch.report(ChaosMetrics::rows).render())
}

fn main() {
    let save = std::env::args().any(|a| a == "--save");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seeds = seed_stream(0xBE7C4, SEEDS);

    let mut best = [f64::INFINITY; THREADS.len()];
    let mut base_report: Option<String> = None;
    for _ in 0..ROUNDS {
        for (i, &n) in THREADS.iter().enumerate() {
            let (secs, report) = run_at(n, &seeds);
            match &base_report {
                None => base_report = Some(report),
                Some(base) => assert_eq!(
                    &report, base,
                    "determinism broken: {n}-thread report differs from 1-thread"
                ),
            }
            best[i] = best[i].min(secs);
        }
    }
    let base_rate = SEEDS as f64 / best[0];

    let mut pass = true;
    let mut rows = Vec::new();
    for (&n, &secs) in THREADS.iter().zip(&best) {
        let rate = SEEDS as f64 / secs;
        let efficiency = (rate / base_rate) / n as f64;
        // Only gate thread counts the hardware can actually run in
        // parallel; beyond that, efficiency is informational.
        let gated = n <= cores;
        let ok = !gated || efficiency >= EFFICIENCY_BUDGET;
        pass &= ok;
        println!(
            "mc_chaos_{SEEDS}seeds  threads {n}   {secs:>6.2} s   {rate:>7.1} scn/s   efficiency {:>5.1} %   {}",
            efficiency * 100.0,
            if !gated {
                "(ungated: > available cores)"
            } else if ok {
                "PASS"
            } else {
                "FAIL"
            }
        );
        rows.push((n, rate, efficiency, gated));
    }
    println!(
        "budget: efficiency >= {:.0} % for threads <= {cores} available cores (fastest of {ROUNDS} rounds)   {}",
        EFFICIENCY_BUDGET * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );

    if save {
        let mut entries = String::new();
        for (i, (n, rate, eff, gated)) in rows.iter().enumerate() {
            if i > 0 {
                entries.push_str(",\n");
            }
            entries.push_str(&format!(
                "    {{\"threads\": {n}, \"scenarios_per_sec\": {rate:.2}, \"efficiency\": {eff:.3}, \"gated\": {gated}}}"
            ));
        }
        let json = format!(
            "{{\n  \"bench\": \"mc_chaos\",\n  \"seeds\": {SEEDS},\n  \"available_cores\": {cores},\n  \"efficiency_budget\": {EFFICIENCY_BUDGET},\n  \"rows\": [\n{entries}\n  ],\n  \"pass\": {pass}\n}}\n"
        );
        gm_bench::save_json("mc", &json);
    }

    if !pass {
        std::process::exit(1);
    }
}
