//! Optimization-tier solver bench (DESIGN.md §14).
//!
//! Measures the welfare solve time of one planning window as the
//! program grows — apps ∈ {8, 32, 128} × hosts ∈ {30, 120} — plus the
//! full VCG pricing of a window (one sort, then the full sweep and one
//! leave-one-out sweep per app with value) at apps ∈ {8, 32, 128} × 30
//! hosts, and the Tycoon-vs-VCG welfare gap on the shared SLA workload
//! (`gm_experiments::ext_vcg`). Each time is the fastest of
//! [`REPEATS`] calls on the same window, so one slow call (a page
//! fault, a preemption) does not stand for the row.
//!
//! Every window solve, 128 apps × 120 hosts included, must finish
//! within the solver time budget, and the welfare gap must be
//! non-negative (the welfare optimum never does worse than the auction
//! market it generalizes).
//!
//! `--save` (what `just bench-save-vcg` passes) writes the result to
//! `BENCH_vcg.json` at the repository root.

use std::time::Instant;

use gm_des::{Rng64, SplitMix64};
use gm_optimal::{vcg, SlaCurve, WelfareApp, WelfareProgram};

/// Per-solve budget for every window, in seconds.
const SOLVE_BUDGET_SECS: f64 = 1.0;

/// Calls per timed row; the row reports the fastest.
const REPEATS: usize = 50;

/// The fastest of [`REPEATS`] calls of `f`, in seconds, with the last
/// call's result.
fn fastest<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPEATS > 0"))
}

/// A deterministic pseudo-random window: `apps` concave curves (1–3
/// segments) competing for `hosts` equal-capacity hosts, scaled so the
/// window is ~2× oversubscribed (the regime the policy plans in).
fn window(apps: usize, hosts: usize, seed: u64) -> WelfareProgram {
    let mut rng = SplitMix64::new(seed);
    let host_cap = 100.0;
    let mut program = WelfareProgram::new(vec![host_cap; hosts]);
    let demand_per_app = 2.0 * host_cap * hosts as f64 / apps as f64;
    for a in 0..apps {
        let segs = 1 + (rng.next_u64() % 3) as usize;
        let mut points = Vec::new();
        let (mut w, mut v) = (0.0, 0.0);
        let mut slope = 1.0 + rng.next_f64() * 3.0;
        for _ in 0..segs {
            w += demand_per_app * (0.2 + 0.8 * rng.next_f64()) / segs as f64;
            v += slope * (w - points.last().map_or(0.0, |&(pw, _)| pw));
            points.push((w, v));
            slope *= 0.3 + 0.6 * rng.next_f64();
        }
        let curve = SlaCurve::new(points).expect("concave by construction");
        let cap = curve.total_work();
        program.add_app(WelfareApp {
            id: a as u32,
            segments: curve.remaining_segments(0.0, cap),
            cap,
        });
    }
    program
}

fn main() {
    let save = std::env::args().any(|a| a == "--save");
    let mut pass = true;
    let mut rows = Vec::new();

    for &apps in &[8usize, 32, 128] {
        for &hosts in &[30usize, 120] {
            let program = window(apps, hosts, 0x5EED ^ (apps as u64) << 8 ^ hosts as u64);
            let (secs, sol) = fastest(|| program.solve().expect("window must solve"));
            let ok = secs <= SOLVE_BUDGET_SECS;
            pass &= ok;
            println!(
                "vcg_window_solve  apps {apps:>4}  hosts {hosts:>4}   {:>8.3} ms   welfare {:>10.1}   {}",
                secs * 1e3,
                sol.welfare,
                if ok { "PASS" } else { "FAIL" }
            );
            rows.push((apps, hosts, secs));
        }
    }

    // Full VCG pricing of one window, at the policy's working size
    // (8 apps) and beyond.
    let mut pricing = Vec::new();
    for &apps in &[8usize, 32, 128] {
        let hosts = 30;
        let program = window(apps, hosts, 0xCAFE ^ (apps as u64) << 8);
        let (secs, priced) = fastest(|| vcg(&program).expect("VCG pricing must complete"));
        let ok = secs <= SOLVE_BUDGET_SECS;
        pass &= ok;
        println!(
            "vcg_full_pricing  apps {apps:>4}  hosts {hosts:>4}   {:>8.3} ms   revenue {:>10.1}   {}",
            secs * 1e3,
            priced.revenue(),
            if ok { "PASS" } else { "FAIL" }
        );
        pricing.push((apps, hosts, secs));
    }

    // Welfare gap on the shared SLA workload: the optimization tier
    // must not lose to the auction market it generalizes.
    let cmp = gm_experiments::ext_vcg::run(gm_experiments::Scale::Quick);
    let vcg_w = cmp.row("vcg").expect("vcg row").welfare;
    let tycoon_w = cmp.row("tycoon").expect("tycoon row").welfare;
    let gap = vcg_w - tycoon_w;
    let gap_ok = gap >= -1e-9;
    pass &= gap_ok;
    println!(
        "vcg_welfare_gap   vcg {vcg_w:.2} - tycoon {tycoon_w:.2} = {gap:.2}   {}",
        if gap_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "budget: window solve <= {SOLVE_BUDGET_SECS:.1} s, welfare gap >= 0   {}",
        if pass { "PASS" } else { "FAIL" }
    );

    if save {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let entries = |rows: &[(usize, usize, f64)], key: &str| {
            rows.iter()
                .map(|(apps, hosts, secs)| {
                    format!("    {{\"apps\": {apps}, \"hosts\": {hosts}, \"{key}\": {:.4}}}", secs * 1e3)
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let json = format!(
            "{{\n  \"bench\": \"vcg\",\n  \"cores\": {cores},\n  \"repeats\": {REPEATS},\n  \"solve_budget_secs\": {SOLVE_BUDGET_SECS},\n  \"rows\": [\n{}\n  ],\n  \"pricing_rows\": [\n{}\n  ],\n  \"welfare_vcg\": {vcg_w:.2},\n  \"welfare_tycoon\": {tycoon_w:.2},\n  \"welfare_gap\": {gap:.2},\n  \"pass\": {pass}\n}}\n",
            entries(&rows, "solve_ms"),
            entries(&pricing, "pricing_ms"),
        );
        gm_bench::save_json("vcg", &json);
    }

    if !pass {
        std::process::exit(1);
    }
}
