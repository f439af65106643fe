//! Optimization-tier solver bench (DESIGN.md §14).
//!
//! Measures the welfare solve time of one planning window as the
//! program grows — apps ∈ {8, 32, 128} × hosts ∈ {30, 120} — plus the
//! full VCG pricing pass (1 + N leave-one-out re-solves) at the sizes
//! the live policy actually plans (tens of apps), and the
//! Tycoon-vs-VCG welfare gap on the shared SLA workload
//! (`gm_experiments::ext_vcg`).
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

    // Warm-up: touch the allocator paths once.
    let _ = window(8, 30, 1).solve();

    for &apps in &[8usize, 32, 128] {
        for &hosts in &[30usize, 120] {
            let program = window(apps, hosts, 0x5EED ^ (apps as u64) << 8 ^ hosts as u64);
            let t0 = Instant::now();
            let sol = program.solve().expect("window must solve");
            let secs = t0.elapsed().as_secs_f64();
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

    // Full VCG pricing (1 + N solves) at the policy's working size.
    let program = window(8, 30, 0xCAFE);
    let t0 = Instant::now();
    let priced = vcg(&program).expect("VCG pricing must complete");
    let vcg_secs = t0.elapsed().as_secs_f64();
    let vcg_ok = vcg_secs <= SOLVE_BUDGET_SECS;
    pass &= vcg_ok;
    println!(
        "vcg_full_pricing  apps    8  hosts   30   {:>8.3} ms   revenue {:>10.1}   {}",
        vcg_secs * 1e3,
        priced.revenue(),
        if vcg_ok { "PASS" } else { "FAIL" }
    );

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
        let mut entries = String::new();
        for (i, (apps, hosts, secs)) in rows.iter().enumerate() {
            if i > 0 {
                entries.push_str(",\n");
            }
            entries.push_str(&format!(
                "    {{\"apps\": {apps}, \"hosts\": {hosts}, \"solve_ms\": {:.3}}}",
                secs * 1e3
            ));
        }
        let json = format!(
            "{{\n  \"bench\": \"vcg\",\n  \"solve_budget_secs\": {SOLVE_BUDGET_SECS},\n  \"rows\": [\n{entries}\n  ],\n  \"vcg_full_pricing_ms\": {:.3},\n  \"welfare_vcg\": {vcg_w:.2},\n  \"welfare_tycoon\": {tycoon_w:.2},\n  \"welfare_gap\": {gap:.2},\n  \"pass\": {pass}\n}}\n",
            vcg_secs * 1e3
        );
        gm_bench::save_json("vcg", &json);
    }

    if !pass {
        std::process::exit(1);
    }
}
