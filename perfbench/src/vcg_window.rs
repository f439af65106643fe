//! `vcg_window`: welfare windows solved and priced with
//! `gm_optimal::vcg`, the only workload that runs the LP tier.
//!
//! Windows come from the generator of the `vcg` bench: concave SLA
//! curves of 1–3 segments, ~2× oversubscribed, on equal 100-unit hosts.
//! The traced pass re-runs VCG pricing from the public calls it is made
//! of — one `WelfareProgram::solve` plus one `solve_without` per app with
//! realized value — and must reproduce `vcg`'s receipts bit for bit.

use std::time::Instant;

use gm_des::{Rng64, SplitMix64};
use gm_optimal::{vcg, SlaCurve, VcgOutcome, WelfareApp, WelfareProgram};

use crate::stats::{mean, peak_rss_mb, Digest};
use crate::{passes, Args, Layer, Outcome, PassClock, SetupClock};

/// Window sizes `(apps, hosts)` and how many windows of each one pass
/// prices. Many mid-sized windows rather than one large one: the pricing
/// cost of a single window varies by 7–16% with its curves, so a pass
/// dominated by one window would vary that much from seed to seed.
const SIZES: [(usize, usize, usize); 3] = [(16, 30, 8), (16, 60, 8), (32, 30, 4)];
/// Passes per run: a pass prices every window in 1.8–2.3 s.
const PASSES: usize = 18;
/// Window sets generated per set-up batch: one set takes ~35 µs.
const SETUP_BUILDS: usize = 64;

/// A pseudo-random window: `apps` concave curves competing for `hosts`
/// equal-capacity hosts, ~2× oversubscribed.
fn window(apps: usize, hosts: usize, rng: &mut SplitMix64) -> WelfareProgram {
    let host_cap = 100.0;
    let mut program = WelfareProgram::new(vec![host_cap; hosts]);
    let demand_per_app = 2.0 * host_cap * hosts as f64 / apps as f64;
    for a in 0..apps {
        let segs = 1 + (rng.next_u64() % 3) as usize;
        let mut points: Vec<(f64, f64)> = Vec::new();
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

fn windows(seed: u64) -> Vec<WelfareProgram> {
    let mut rng = SplitMix64::new(seed);
    SIZES
        .iter()
        .flat_map(|&(a, h, n)| std::iter::repeat_n((a, h), n))
        .map(|(a, h)| window(a, h, &mut rng))
        .collect()
}

/// LP calls of traced passes.
#[derive(Default)]
struct LpTally {
    solve_ms: Vec<f64>,
    loo_ms: Vec<f64>,
    skipped: u64,
}

/// `(value, welfare_without, payment)` of every receipt, for comparing
/// the traced pricing with `vcg` bit for bit.
fn receipts(o: &VcgOutcome) -> Vec<[u64; 3]> {
    o.receipts
        .iter()
        .map(|r| {
            [
                r.value.to_bits(),
                r.welfare_without.to_bits(),
                r.payment.to_bits(),
            ]
        })
        .collect()
}

/// `vcg(program)` from its public calls, each timed.
fn traced_vcg(program: &WelfareProgram, t: &mut LpTally) -> Option<Vec<[u64; 3]>> {
    let t0 = Instant::now();
    let solution = program.solve()?;
    t.solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let mut out = Vec::with_capacity(program.app_count());
    for a in 0..program.app_count() {
        let value = solution.values[a];
        let without = if value <= 0.0 {
            t.skipped += 1;
            solution.welfare
        } else {
            let t0 = Instant::now();
            let w = program.solve_without(a)?;
            t.loo_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            w
        };
        let payment = (without - (solution.welfare - value)).clamp(0.0, value.max(0.0));
        out.push([value.to_bits(), without.to_bits(), payment.to_bits()]);
    }
    Some(out)
}

pub fn run(args: &Args) -> Outcome {
    let seed = SplitMix64::new(args.seed ^ 0x7663_6777).next_u64();
    let set = windows(seed);

    // Warm-up and reference: `vcg` on every window.
    let reference: Vec<Option<VcgOutcome>> = set.iter().map(vcg).collect();
    let peak_rss_mb = peak_rss_mb();
    let mut correct = reference.iter().all(|o| {
        o.as_ref().is_some_and(|o| {
            o.receipts
                .iter()
                .all(|r| (0.0..=r.value.max(0.0)).contains(&r.payment))
        })
    });
    let mut d = Digest::new();
    for o in reference.iter().flatten() {
        d.f64(o.solution.welfare);
        d.f64(o.revenue());
    }
    println!(
        "vcg_window: {} windows {:?}, welfare/revenue digest {:016x}",
        set.len(),
        SIZES,
        d.finish()
    );
    let expected: Vec<Option<Vec<[u64; 3]>>> =
        reference.iter().map(|o| o.as_ref().map(receipts)).collect();

    let (mut attempted, mut unsolved) = (0u64, 0u64);
    let mut setup = SetupClock::new(SETUP_BUILDS);
    let (mut run, mut traced_run) = (PassClock::default(), PassClock::default());
    let mut tally = LpTally::default();
    passes(args.seconds, PASSES, |i| {
        let traced = args.trace && i % 2 == 1;
        let set = setup.batch(|| windows(seed));
        let mut window_s = Vec::with_capacity(set.len());
        let t0 = Instant::now();
        let got: Vec<Option<Vec<[u64; 3]>>> = set
            .iter()
            .map(|w| {
                let t1 = Instant::now();
                let got = if traced {
                    traced_vcg(w, &mut tally)
                } else {
                    vcg(w).map(|o| receipts(&o))
                };
                window_s.push(t1.elapsed().as_secs_f64());
                got
            })
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        if traced {
            traced_run.record(secs, &window_s);
        } else {
            run.record(secs, &window_s);
        }
        attempted += got.len() as u64;
        unsolved += got.iter().filter(|g| g.is_none()).count() as u64;
        correct &= got == expected;
    });

    let mut out = Outcome::new(correct, attempted, unsolved);
    if args.trace {
        let n = traced_run.passes() as f64;
        let pass = traced_run.mean_pass_s();
        let solve_s = tally.solve_ms.iter().sum::<f64>() * 1e-3 / n;
        let loo_s = tally.loo_ms.iter().sum::<f64>() * 1e-3 / n;
        for (name, v, unit) in [
            ("lp.solve_ms", mean(&tally.solve_ms), "ms"),
            ("lp.loo_solve_ms", mean(&tally.loo_ms), "ms"),
            ("lp.loo_solves", tally.loo_ms.len() as f64 / n, "count"),
            ("lp.loo_skipped", tally.skipped as f64 / n, "count"),
            ("lp.vcg_over_solve", (solve_s + loo_s) / solve_s, "ratio"),
            (
                "trace.overhead",
                traced_run.pass_s() / run.pass_s() - 1.0,
                "ratio",
            ),
        ] {
            out.layer(name, v, unit);
        }
        out.correct &= crate::print_ranking(
            "vcg_window",
            pass,
            &[
                Layer::new("gm-optimal", "solve_without (leave-one-out)", loo_s),
                Layer::new("gm-optimal", "WelfareProgram::solve", solve_s),
            ],
            pass - solve_s - loo_s,
        );
    } else {
        out.end_to_end(&run, &setup, peak_rss_mb);
    }
    out
}
