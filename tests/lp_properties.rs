//! Property tests for the pure-rust LP solver and the VCG pricing layer
//! (DESIGN.md §14), via the in-repo `gm_des::check` harness.
//!
//! Coverage:
//! * simplex: primal feasibility and weak/strong duality on random
//!   feasible bounded instances; graceful `Infeasible` / `Unbounded`
//!   outcomes (never a panic) on randomly broken ones; determinism.
//! * welfare window: the greedy sweep of `WelfareProgram` agrees with
//!   the window's linear program, solved by the simplex, on welfare,
//!   every leave-one-out welfare and the host price.
//! * VCG: non-negative payments, individual rationality, and
//!   truthfulness on sampled misreports (scaling your value curve never
//!   beats reporting it straight); `vcg`'s one-pass solution and its
//!   receipts bit-identical to `solve` and a from-scratch sweep per app.
//!
//! The simplex is test-only code and lives beside this file
//! (`lp_properties/simplex.rs`), its own unit tests with it.

use gm_des::check::{check, Gen};
use gm_optimal::{vcg, SlaCurve, WelfareApp, WelfareProgram};

#[path = "lp_properties/simplex.rs"]
mod simplex;

use simplex::{Cmp, Lp, LpOutcome};

/// A constraint row as handed to `Lp::constrain`: sparse terms + rhs.
type LeRow = (Vec<(usize, f64)>, f64);

/// Random feasible bounded max-LP: non-negative objective, per-variable
/// upper bounds, plus random non-negative-coefficient `Le` rows (the
/// origin is always feasible; the bounds keep it bounded).
fn random_feasible(g: &mut Gen) -> (Lp, Vec<LeRow>) {
    let vars = g.usize_in(1, 6);
    let mut lp = Lp::new(vars);
    for v in 0..vars {
        lp.maximize(v, g.f64_in(0.0, 10.0));
    }
    let mut rows = Vec::new();
    for v in 0..vars {
        let bound = g.f64_in(0.5, 20.0);
        lp.constrain(&[(v, 1.0)], Cmp::Le, bound);
        rows.push((vec![(v, 1.0)], bound));
    }
    for _ in 0..g.usize_in(0, 4) {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for v in 0..vars {
            if g.ratio(2, 3) {
                terms.push((v, g.f64_in(0.0, 3.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let rhs = g.f64_in(1.0, 30.0);
        lp.constrain(&terms, Cmp::Le, rhs);
        rows.push((terms, rhs));
    }
    (lp, rows)
}

#[test]
fn simplex_satisfies_primal_feasibility_and_strong_duality() {
    check("lp-duality", 300, |g| {
        let (lp, rows) = random_feasible(g);
        let sol = match lp.solve() {
            LpOutcome::Optimal(s) => s,
            other => panic!("feasible bounded LP must solve, got {other:?}"),
        };
        // Primal feasibility: every stored Le row holds.
        for (terms, rhs) in &rows {
            let lhs: f64 = terms.iter().map(|&(v, c)| c * sol.x[v]).sum();
            assert!(lhs <= rhs + 1e-6, "violated row: {lhs} > {rhs}");
        }
        assert!(sol.x.iter().all(|&x| x >= -1e-9), "negative primal var");
        // Strong duality: objective == Σ duals·b, with Le duals >= 0 in
        // a max problem (weak duality is the ≥/≤ pair of the same sum).
        // Every constraint of this instance is one of our stored rows,
        // in insertion order, so `rows` doubles as the rhs vector.
        let dual_obj: f64 = sol
            .duals
            .iter()
            .zip(rows.iter().map(|(_, b)| *b))
            .map(|(y, b)| y * b)
            .sum();
        assert!(
            (sol.objective - dual_obj).abs() <= 1e-6 * (1.0 + sol.objective.abs()),
            "duality gap: primal {} vs dual {}",
            sol.objective,
            dual_obj
        );
        assert!(sol.duals.iter().all(|&y| y >= -1e-9), "negative Le dual");
    });
}

#[test]
fn simplex_classifies_broken_instances_without_panicking() {
    check("lp-broken", 200, |g| {
        // Unbounded: a free direction with positive objective.
        let mut lp = Lp::new(2);
        lp.maximize(0, g.f64_in(0.1, 5.0));
        lp.constrain(&[(1, 1.0)], Cmp::Le, g.f64_in(0.0, 5.0));
        assert!(matches!(lp.solve(), LpOutcome::Unbounded), "must detect unbounded");

        // Infeasible: x <= a and x >= a + gap.
        let a = g.f64_in(0.0, 5.0);
        let mut lp = Lp::new(1);
        lp.maximize(0, 1.0);
        lp.constrain(&[(0, 1.0)], Cmp::Le, a);
        lp.constrain(&[(0, 1.0)], Cmp::Ge, a + g.f64_in(0.5, 4.0));
        assert!(matches!(lp.solve(), LpOutcome::Infeasible), "must detect infeasible");

        // Degenerate: duplicated and redundant rows still solve.
        let (mut lp, _) = random_feasible(g);
        let b = g.f64_in(0.5, 20.0);
        for _ in 0..3 {
            lp.constrain(&[(0, 1.0)], Cmp::Le, b);
        }
        assert!(
            matches!(lp.solve(), LpOutcome::Optimal(_)),
            "degenerate rows must not break the solve"
        );
    });
}

#[test]
fn simplex_is_deterministic_across_repeat_solves() {
    check("lp-determinism", 100, |g| {
        let (a, _) = random_feasible(g);
        let sa = a.solve();
        let sb = a.solve();
        let fp = |o: &LpOutcome| match o {
            LpOutcome::Optimal(s) => Some((
                s.objective.to_bits(),
                s.x.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            )),
            _ => None,
        };
        assert_eq!(fp(&sa), fp(&sb), "same instance must solve bit-identically");
    });
}

/// A random concave curve: 1–3 segments with strictly decreasing slopes.
fn random_curve(g: &mut Gen) -> SlaCurve {
    let segs = g.usize_in(1, 3);
    let mut points = Vec::new();
    let mut w = 0.0;
    let mut v = 0.0;
    let mut slope = g.f64_in(1.0, 4.0);
    for _ in 0..segs {
        w += g.f64_in(5.0, 30.0);
        v = (v + slope * (w - points.last().map_or(0.0, |&(pw, _)| pw))).max(v);
        points.push((w, v));
        slope *= g.f64_in(0.2, 0.9);
    }
    SlaCurve::new(points).expect("constructed concave")
}

fn random_program(g: &mut Gen) -> (WelfareProgram, Vec<SlaCurve>) {
    let hosts = g.usize_in(1, 4);
    let caps: Vec<f64> = (0..hosts).map(|_| g.f64_in(5.0, 60.0)).collect();
    let mut program = WelfareProgram::new(caps);
    let mut curves = Vec::new();
    for a in 0..g.usize_in(1, 5) {
        let curve = random_curve(g);
        let cap = g.f64_in(0.5, 1.2) * curve.total_work();
        program.add_app(WelfareApp {
            id: a as u32,
            segments: curve.remaining_segments(0.0, cap),
            cap,
        });
        curves.push(curve);
    }
    (program, curves)
}

/// A wider window than [`random_program`]: up to 16 apps × 12 hosts,
/// 0–2× oversubscribed, some crashed hosts (and sometimes all of them),
/// app caps below and above the segment totals, and slopes drawn from a
/// small palette so equal-slope ties are common.
fn random_wide_program(g: &mut Gen) -> WelfareProgram {
    let all_crashed = g.ratio(1, 10);
    let caps: Vec<f64> = (0..g.usize_in(1, 12))
        .map(|_| {
            if all_crashed || g.ratio(1, 5) {
                0.0
            } else {
                g.f64_in(5.0, 60.0)
            }
        })
        .collect();
    let supply = caps.iter().sum::<f64>().max(10.0);
    let apps = g.usize_in(1, 16);
    let demand_per_app = g.f64_in(0.0, 2.0) * supply / apps as f64;
    let mut program = WelfareProgram::new(caps);
    for a in 0..apps {
        let mut slopes: Vec<f64> = (0..g.usize_in(1, 3))
            .map(|_| *g.choose(&[0.5, 1.0, 1.5, 2.0, 3.0]))
            .collect();
        slopes.sort_by(|x, y| y.total_cmp(x));
        let n = slopes.len() as f64;
        let segments: Vec<(f64, f64)> = slopes
            .into_iter()
            .map(|slope| (demand_per_app * g.f64_in(0.2, 1.0) / n, slope))
            .collect();
        let total: f64 = segments.iter().map(|&(w, _)| w).sum();
        program.add_app(WelfareApp {
            id: a as u32,
            segments,
            cap: g.f64_in(0.5, 1.5) * total,
        });
    }
    program
}

/// The reference model: the window as the linear program it is,
/// solved by the dense simplex. Returns the optimal welfare and the
/// mean host-capacity dual, with app `skip` (if any) left out.
///
/// Variables: `x[a][h]`, the work app `a` draws from host `h`, then
/// `s[a][k]`, the fill of segment `k` of app `a`.
fn lp_reference(program: &WelfareProgram, skip: Option<usize>) -> (f64, f64) {
    let hosts = program.host_capacity().len();
    let apps = program.apps();
    let active = |a: usize| skip != Some(a);
    let mut s0 = Vec::with_capacity(apps.len());
    let mut next = apps.len() * hosts;
    for app in apps {
        s0.push(next);
        next += app.segments.len();
    }
    let mut lp = Lp::new(next);
    for (a, app) in apps.iter().enumerate() {
        let x: Vec<(usize, f64)> = (0..hosts).map(|h| (a * hosts + h, 1.0)).collect();
        for (k, &(width, slope)) in app.segments.iter().enumerate() {
            if active(a) {
                lp.maximize(s0[a] + k, slope);
            }
            lp.constrain(&[(s0[a] + k, 1.0)], Cmp::Le, width);
        }
        // Linking: delivery fills segments exactly.
        let mut link = x.clone();
        link.extend((0..app.segments.len()).map(|k| (s0[a] + k, -1.0)));
        lp.constrain(&link, Cmp::Eq, 0.0);
        let cap = if active(a) { app.cap.max(0.0) } else { 0.0 };
        lp.constrain(&x, Cmp::Le, cap);
    }
    let host_row0 = lp.rows();
    for (h, &cap) in program.host_capacity().iter().enumerate() {
        let column: Vec<(usize, f64)> = (0..apps.len()).map(|a| (a * hosts + h, 1.0)).collect();
        lp.constrain(&column, Cmp::Le, cap.max(0.0));
    }
    let sol = lp.solve().optimal().expect("the window LP is feasible and bounded");
    let duals = &sol.duals[host_row0..];
    let price = duals.iter().map(|y| y.max(0.0)).sum::<f64>() / hosts.max(1) as f64;
    (sol.objective, price)
}

/// Check the greedy sweep against [`lp_reference`]: welfare and every
/// `W_{-a}` within 1e-9 relative, and the mean host price within 1e-6
/// absolute on windows with capacity to price.
fn assert_matches_lp(program: &WelfareProgram) {
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
    let sol = program.solve().expect("finite window solves");
    let (welfare, price) = lp_reference(program, None);
    assert!(close(sol.welfare, welfare), "welfare {} vs LP {welfare}", sol.welfare);
    if program.host_capacity().iter().any(|&c| c > 0.0) {
        let mean = sol.host_prices.iter().sum::<f64>() / sol.host_prices.len() as f64;
        assert!((mean - price).abs() <= 1e-6, "host price {mean} vs LP dual {price}");
    }
    for a in 0..program.app_count() {
        let got = program.solve_without(a).expect("finite window solves");
        let (want, _) = lp_reference(program, Some(a));
        assert!(close(got, want), "W_-{a} {got} vs LP {want}");
    }
    // The placement is feasible and delivers what the sweep decided.
    let alloc = program.place(&sol.delivered);
    for (h, &cap) in program.host_capacity().iter().enumerate() {
        let used: f64 = alloc.iter().map(|row| row[h]).sum();
        assert!(used <= cap.max(0.0) + 1e-9, "host {h} over capacity: {used} > {cap}");
    }
    for (row, &d) in alloc.iter().zip(&sol.delivered) {
        assert!((row.iter().sum::<f64>() - d).abs() <= 1e-9 * d.max(1.0));
    }
}

#[test]
fn greedy_window_matches_the_simplex_on_the_vcg_corpus() {
    check("window-vs-simplex", 200, |g| assert_matches_lp(&random_program(g).0));
}

#[test]
fn greedy_window_matches_the_simplex_on_wide_windows() {
    check("wide-window-vs-simplex", 1000, |g| assert_matches_lp(&random_wide_program(g)));
}

#[test]
fn vcg_payments_are_nonnegative_and_individually_rational() {
    check("vcg-ir", 200, |g| {
        let (program, _) = random_program(g);
        let out = vcg(&program).expect("window solves");
        let mut welfare_check = 0.0;
        for r in &out.receipts {
            assert!(r.payment >= 0.0, "negative VCG payment: {}", r.payment);
            assert!(
                r.payment <= r.value + 1e-6,
                "app {} pays {} above its value {}",
                r.app,
                r.payment,
                r.value
            );
            assert!(
                r.welfare_without <= r.welfare_with + 1e-6,
                "removing an app cannot raise welfare"
            );
            welfare_check += r.value;
        }
        assert!(
            (welfare_check - out.solution.welfare).abs() <= 1e-6 * (1.0 + welfare_check.abs()),
            "welfare must decompose into per-app values"
        );
    });
}

#[test]
fn truthful_reporting_weakly_dominates_sampled_misreports() {
    check("vcg-truthful", 120, |g| {
        let (program, curves) = random_program(g);
        let truthful = vcg(&program).expect("window solves");
        let a = g.usize_in(0, curves.len() - 1);
        let true_curve = &curves[a];

        // Misreport: scale the curve's values by λ (shape-preserving, so
        // the report is still a valid concave curve).
        let lambda = *g.choose(&[0.25, 0.5, 0.8, 1.25, 2.0, 4.0]);
        let mut deviated = program.clone();
        let scaled: Vec<(f64, f64)> = program.apps()[a]
            .segments
            .iter()
            .map(|&(w, s)| (w, s * lambda))
            .collect();
        deviated.set_app_segments(a, scaled);
        let misreport = vcg(&deviated).expect("deviated window solves");

        // True utility = true value of what you were allocated, minus
        // what you were charged (charges come from the *reported* run).
        let u_truth = true_curve.value(truthful.solution.delivered[a]) - truthful.receipts[a].payment;
        let u_dev = true_curve.value(misreport.solution.delivered[a]) - misreport.receipts[a].payment;
        assert!(
            u_truth >= u_dev - 1e-6 * (1.0 + u_truth.abs()),
            "misreport λ={lambda} beats truth: {u_dev} > {u_truth} (app {a})"
        );
    });
}

/// A window built to hit every edge of the fill rules: slopes from a
/// small palette (equal slopes across apps are common) that includes
/// zero and negative ones, zero-width segments, segments out of slope
/// order, apps with cap 0 or below, and crashed hosts at zero or
/// negative capacity (sometimes all of them).
fn random_edge_window(g: &mut Gen) -> WelfareProgram {
    let all_crashed = g.ratio(1, 10);
    let caps: Vec<f64> = (0..g.usize_in(1, 8))
        .map(|_| match g.usize_in(0, 7) {
            _ if all_crashed => 0.0,
            0 => 0.0,
            1 => -g.f64_in(1.0, 50.0),
            _ => g.f64_in(5.0, 60.0),
        })
        .collect();
    let mut program = WelfareProgram::new(caps);
    for a in 0..g.usize_in(1, 12) {
        let segments: Vec<(f64, f64)> = (0..g.usize_in(0, 4))
            .map(|_| {
                let width = if g.ratio(1, 6) { 0.0 } else { *g.choose(&[5.0, 10.0, 12.5, 30.0]) };
                (width, *g.choose(&[-1.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0]))
            })
            .collect();
        let cap = match g.usize_in(0, 7) {
            0 => 0.0,
            1 => -g.f64_in(1.0, 20.0),
            _ => g.f64_in(1.0, 60.0),
        };
        program.add_app(WelfareApp {
            id: a as u32,
            segments,
            cap,
        });
    }
    program
}

/// The from-scratch greedy sweep, kept here as an independent model of
/// what `vcg` prices: collect the positive-width, positive-slope
/// segments of every app but `skip`, stable-sort them by slope
/// (descending) and fill each by `min(width, app room, window room)`.
/// Returns the per-app values.
fn reference_values(program: &WelfareProgram, skip: Option<usize>) -> Vec<f64> {
    let apps = program.apps();
    let mut order: Vec<(f64, usize, f64)> = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        if skip == Some(a) {
            continue;
        }
        for &(width, slope) in &app.segments {
            if width > 0.0 && slope > 0.0 {
                order.push((slope, a, width));
            }
        }
    }
    order.sort_by(|x, y| y.0.total_cmp(&x.0));
    let mut room: Vec<f64> = apps.iter().map(|app| app.cap.max(0.0)).collect();
    let mut window: f64 = program.host_capacity().iter().map(|c| c.max(0.0)).sum();
    let mut values = vec![0.0; apps.len()];
    for (slope, a, width) in order {
        let fill = width.min(room[a]).min(window);
        room[a] -= fill;
        window -= fill;
        values[a] += slope * fill;
    }
    values
}

/// VCG over [`reference_values`]: the full welfare and, per app,
/// `(value, W_{-a}, payment)` by the rules `vcg` documents.
fn reference_vcg(program: &WelfareProgram) -> (f64, Vec<[f64; 3]>) {
    let values = reference_values(program, None);
    let welfare: f64 = values.iter().sum();
    let receipts = values
        .iter()
        .enumerate()
        .map(|(a, &value)| {
            let without = if value <= 0.0 {
                welfare
            } else {
                reference_values(program, Some(a)).iter().sum()
            };
            [value, without, (without - (welfare - value)).clamp(0.0, value.max(0.0))]
        })
        .collect();
    (welfare, receipts)
}

#[test]
fn vcg_prices_bit_identically_to_a_from_scratch_sweep_per_app() {
    check("vcg-vs-reference-sweep", 2000, |g| {
        let program = random_edge_window(g);
        let out = vcg(&program).expect("finite window prices");
        let (welfare, receipts) = reference_vcg(&program);
        assert_eq!(
            out.solution.welfare.to_bits(),
            welfare.to_bits(),
            "W {} vs {welfare}",
            out.solution.welfare
        );
        assert_eq!(out.receipts.len(), receipts.len());
        for (a, (r, want)) in out.receipts.iter().zip(&receipts).enumerate() {
            let got = [r.value, r.welfare_without, r.payment];
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "app {a}: (value, W_-a, payment) {got:?} vs {want:?} in {program:?}"
            );
            assert_eq!(r.welfare_with.to_bits(), welfare.to_bits());
        }
    });
}

/// A window shaped like the `vcg_window` benchmark's: 16–32 apps with
/// 1–3 concave segments on 30–60 hosts, 0.5–2× oversubscribed, with
/// non-dyadic host capacities and widths so that the float rounding of
/// every subtraction shows, and caps that sometimes stop an app inside
/// its last segment.
fn random_priced_window(g: &mut Gen) -> WelfareProgram {
    let caps: Vec<f64> = (0..g.usize_in(30, 60)).map(|_| g.f64_in(60.0, 140.0)).collect();
    let apps = g.usize_in(16, 32);
    let demand_per_app = g.f64_in(0.5, 2.0) * caps.iter().sum::<f64>() / apps as f64;
    let mut program = WelfareProgram::new(caps);
    for a in 0..apps {
        let n = g.usize_in(1, 3);
        let mut slope = g.f64_in(1.0, 4.0);
        let segments: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let segment = (demand_per_app * g.f64_in(0.2, 1.0) / n as f64, slope);
                slope *= g.f64_in(0.3, 0.9);
                segment
            })
            .collect();
        let total: f64 = segments.iter().map(|&(w, _)| w).sum();
        let cap = if g.ratio(1, 3) { g.f64_in(0.5, 1.0) * total } else { total };
        program.add_app(WelfareApp {
            id: a as u32,
            segments,
            cap,
        });
    }
    program
}

#[test]
fn vcg_prices_benchmark_shaped_windows_bit_identically_to_the_reference() {
    check("vcg-vs-reference-priced-window", 400, |g| {
        let program = random_priced_window(g);
        let out = vcg(&program).expect("finite window prices");
        let (welfare, receipts) = reference_vcg(&program);
        assert_eq!(out.solution.welfare.to_bits(), welfare.to_bits());
        for (a, (r, want)) in out.receipts.iter().zip(&receipts).enumerate() {
            let got = [r.value, r.welfare_without, r.payment];
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "app {a}: (value, W_-a, payment) {got:?} vs {want:?}"
            );
        }
    });
}

/// `vcg`'s solution against [`WelfareProgram::solve`]'s, bit for bit:
/// welfare, every delivery and value, and every host price.
fn assert_vcg_solves_like_solve(program: &WelfareProgram) {
    let got = vcg(program).expect("finite window prices").solution;
    let want = program.solve().expect("finite window solves");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.welfare.to_bits(), want.welfare.to_bits(), "welfare in {program:?}");
    assert_eq!(bits(&got.delivered), bits(&want.delivered), "delivered in {program:?}");
    assert_eq!(bits(&got.values), bits(&want.values), "values in {program:?}");
    assert_eq!(bits(&got.host_prices), bits(&want.host_prices), "host prices in {program:?}");
}

#[test]
fn vcg_solves_every_window_bit_identically_to_solve() {
    check("vcg-solution-vs-solve", 2000, |g| assert_vcg_solves_like_solve(&random_edge_window(g)));
    check("vcg-solution-vs-solve-wide", 500, |g| {
        assert_vcg_solves_like_solve(&random_wide_program(g))
    });
    check("vcg-solution-vs-solve-priced-window", 400, |g| {
        assert_vcg_solves_like_solve(&random_priced_window(g))
    });
}
