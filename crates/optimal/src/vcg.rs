//! VCG pricing over a solved welfare window.
//!
//! The Vickrey–Clarke–Groves payment of app `a` is the externality it
//! imposes on everyone else:
//!
//! ```text
//! payment_a = W_{-a}  −  (W_full − v_a)
//! ```
//!
//! where `W_full` is the optimal welfare with everyone in, `v_a` is
//! `a`'s realized value in that optimum, and `W_{-a}` is the optimal
//! welfare of the same window re-solved without `a`. The window's
//! segments are sorted into fill order once and `W_full` is one linear
//! sweep over that order, which also keeps the sweep's state at its cut,
//! the position that sets the price. Each `W_{-a}` restarts from there:
//! it replays the window-room subtractions from `a`'s first segment to
//! the cut and sweeps on until the room runs out. A window costs one
//! sort and one sweep of its S segments plus, per app, O(A) and the
//! positions from its first segment to where the room runs out
//! (O(A·(A + S)) at worst). The solution is bit-identical to
//! [`WelfareProgram::solve`]'s and each `W_{-a}` to
//! [`WelfareProgram::solve_without`]'s (the [`crate::program`] docs say
//! why). The classic properties follow directly and are
//! property-tested in `tests/lp_properties.rs`:
//!
//! * **Non-negativity** — removing `a` frees capacity, so
//!   `W_{-a} >= W_full − v_a`.
//! * **Individual rationality** — others can at best reclaim all of
//!   `a`'s capacity, so `payment_a <= v_a`: no app pays more than the
//!   value it got.
//! * **Truthfulness** — `a`'s utility `v_a − payment_a =
//!   W_full − W_{-a}` depends on its *reported* curve only through the
//!   welfare optimum, so reporting the true curve weakly dominates.
//!
//! Payments are clamped into `[0, v_a]` against float noise so the
//! settlement layer can rely on the two inequalities *exactly*.

use crate::program::{WelfareProgram, WelfareSolution};

/// One app's welfare/payment breakdown for a window.
#[derive(Clone, Copy, Debug)]
pub struct VcgReceipt {
    /// The app's caller-side id.
    pub app: u32,
    /// Realized value `v_a` in the full optimum.
    pub value: f64,
    /// Optimal welfare with everyone in (`W_full`; same for all
    /// receipts of a window).
    pub welfare_with: f64,
    /// Optimal welfare of the leave-one-out re-solve (`W_{-a}`).
    pub welfare_without: f64,
    /// The VCG payment, clamped into `[0, value]`.
    pub payment: f64,
}

impl VcgReceipt {
    /// The app's utility under truthful reporting:
    /// `value − payment = W_full − W_{-a}` (its marginal contribution).
    pub fn utility(&self) -> f64 {
        self.value - self.payment
    }
}

/// A priced window: the welfare optimum plus one receipt per app.
#[derive(Clone, Debug)]
pub struct VcgOutcome {
    /// The full welfare optimum (deliveries, values, prices).
    pub solution: WelfareSolution,
    /// Receipts in app order.
    pub receipts: Vec<VcgReceipt>,
}

impl VcgOutcome {
    /// Total payments of the window (the provider's VCG revenue).
    pub fn revenue(&self) -> f64 {
        self.receipts.iter().map(|r| r.payment).sum()
    }
}

/// Solve the window and price every app by its externality. `None` if
/// the window holds a non-finite input (see [`WelfareProgram::solve`]).
pub fn vcg(program: &WelfareProgram) -> Option<VcgOutcome> {
    let order = program.fill_order(None)?;
    let (solution, mut loo) = program.solve_with_cut(&order);
    let mut receipts = Vec::with_capacity(program.app_count());
    for (a, app) in program.apps().iter().enumerate() {
        let value = solution.values[a];
        let welfare_without = if value <= 0.0 {
            // An app with no realized value imposes no externality;
            // skip the re-solve (its payment clamps to 0 regardless).
            solution.welfare
        } else {
            loo.welfare_without(a)
        };
        let payment = (welfare_without - (solution.welfare - value)).clamp(0.0, value.max(0.0));
        receipts.push(VcgReceipt {
            app: app.id,
            value,
            welfare_with: solution.welfare,
            welfare_without,
            payment,
        });
    }
    Some(VcgOutcome { solution, receipts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::WelfareApp;
    use crate::sla::SlaCurve;

    fn app(id: u32, curve: &SlaCurve, cap: f64) -> WelfareApp {
        WelfareApp {
            id,
            segments: curve.remaining_segments(0.0, cap),
            cap,
        }
    }

    #[test]
    fn uncontended_apps_pay_nothing() {
        let mut p = WelfareProgram::new(vec![200.0]);
        p.add_app(app(0, &SlaCurve::linear(60.0, 30.0), 60.0));
        p.add_app(app(1, &SlaCurve::linear(80.0, 20.0), 80.0));
        let out = vcg(&p).unwrap();
        for r in &out.receipts {
            assert!(r.payment < 1e-9, "uncontended app {} paid {}", r.app, r.payment);
        }
        assert!(out.revenue() < 1e-9);
    }

    #[test]
    fn winner_pays_the_displaced_value_second_price_style() {
        // One host of 100; winner values it at 100, loser at 40. The
        // winner displaces the loser entirely ⇒ pays exactly 40.
        let mut p = WelfareProgram::new(vec![100.0]);
        p.add_app(app(7, &SlaCurve::linear(100.0, 100.0), 100.0));
        p.add_app(app(9, &SlaCurve::linear(100.0, 40.0), 100.0));
        let out = vcg(&p).unwrap();
        let winner = &out.receipts[0];
        assert_eq!(winner.app, 7);
        assert!((winner.value - 100.0).abs() < 1e-6);
        assert!((winner.payment - 40.0).abs() < 1e-6, "{}", winner.payment);
        assert!((winner.utility() - 60.0).abs() < 1e-6);
        let loser = &out.receipts[1];
        assert!(loser.value < 1e-6 && loser.payment < 1e-9);
    }

    /// `vcg`'s solution against `solve`'s and its receipts against one
    /// `solve_without` per app with value, bit for bit; returns the full
    /// sweep's cut.
    fn assert_priced_like_solve_without(p: &WelfareProgram) -> usize {
        let out = vcg(p).unwrap();
        let full = p.solve().unwrap();
        assert_eq!(out.solution.welfare.to_bits(), full.welfare.to_bits());
        let bits = |s: &WelfareSolution| {
            [&s.delivered, &s.values, &s.host_prices]
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&out.solution), bits(&full), "delivered, values, host prices");
        for (a, r) in out.receipts.iter().enumerate() {
            let value = full.values[a];
            let without = if value <= 0.0 {
                full.welfare
            } else {
                p.solve_without(a).unwrap()
            };
            let payment = (without - (full.welfare - value)).clamp(0.0, value.max(0.0));
            assert_eq!(
                [r.value, r.welfare_without, r.payment].map(f64::to_bits),
                [value, without, payment].map(f64::to_bits),
                "app {a}: {r:?} vs W_-a {without}"
            );
        }
        p.solve_with_cut(&p.fill_order(None).unwrap()).1.cut
    }

    fn segments(id: u32, segments: &[(f64, f64)], cap: f64) -> WelfareApp {
        WelfareApp {
            id,
            segments: segments.to_vec(),
            cap,
        }
    }

    #[test]
    fn an_uncontended_window_has_no_cut() {
        let mut p = WelfareProgram::new(vec![70.3, 55.1]);
        p.add_app(segments(0, &[(21.7, 2.9), (13.1, 0.7)], 40.0));
        p.add_app(segments(1, &[(33.3, 1.3)], 33.3));
        assert_eq!(assert_priced_like_solve_without(&p), 3);
    }

    #[test]
    fn a_cut_on_the_left_out_apps_first_segment_prices_from_the_cut() {
        // App 1's only segment is the cut; without it app 2 takes the
        // room left there.
        let mut p = WelfareProgram::new(vec![3.3, 6.7]);
        p.add_app(segments(0, &[(4.1, 2.9)], 4.1));
        p.add_app(segments(1, &[(9.9, 1.7)], 9.9));
        p.add_app(segments(2, &[(7.3, 1.1)], 7.3));
        assert_eq!(assert_priced_like_solve_without(&p), 1);
        let out = vcg(&p).unwrap();
        assert!(out.receipts[1].payment > 0.0, "{:?}", out.receipts[1]);
    }

    #[test]
    fn a_window_filled_at_a_segment_boundary_prices_the_next_segment() {
        let mut p = WelfareProgram::new(vec![10.0]);
        p.add_app(segments(0, &[(4.0, 3.0)], 4.0));
        p.add_app(segments(1, &[(6.0, 2.0)], 6.0));
        p.add_app(segments(2, &[(5.0, 1.0)], 5.0));
        assert_eq!(assert_priced_like_solve_without(&p), 2);
        let out = vcg(&p).unwrap();
        assert_eq!(out.solution.host_prices, vec![1.0]);
        // Either winner, left out, hands its whole fill to app 2.
        assert_eq!(out.receipts[0].payment, 4.0);
        assert_eq!(out.receipts[1].payment, 5.0);
        assert_eq!(out.receipts[2].payment, 0.0);
    }

    #[test]
    fn a_window_of_crashed_hosts_cuts_at_its_first_segment() {
        let mut p = WelfareProgram::new(vec![0.0, -12.5]);
        p.add_app(segments(0, &[(4.1, 2.9)], 4.1));
        p.add_app(segments(1, &[(9.9, 1.7)], 9.9));
        assert_eq!(assert_priced_like_solve_without(&p), 0);
        let out = vcg(&p).unwrap();
        assert!(out.receipts.iter().all(|r| r.value == 0.0 && r.payment == 0.0));
    }

    #[test]
    fn an_app_cap_that_binds_after_the_cut_limits_the_leave_one_out() {
        // App 1's cap stops its second segment at 2.2 of 5.3: at the cut
        // and again when app 0 is left out.
        let mut p = WelfareProgram::new(vec![12.1]);
        p.add_app(segments(0, &[(6.1, 2.5)], 6.1));
        p.add_app(segments(1, &[(5.1, 2.1), (5.3, 1.3)], 7.3));
        p.add_app(segments(2, &[(10.7, 0.5)], 10.7));
        assert_eq!(assert_priced_like_solve_without(&p), 2);
        assert!(vcg(&p).unwrap().receipts[0].payment > 0.0);
    }

    #[test]
    fn a_sliver_of_room_at_the_cut_still_goes_to_the_next_app() {
        // App 0 leaves 5e-10 of the window; app 1, left out, hands that
        // sliver to app 2, so app 1 pays for it.
        let mut p = WelfareProgram::new(vec![10.0]);
        p.add_app(segments(0, &[(10.0 - 5e-10, 3.0)], 10.0));
        p.add_app(segments(1, &[(5.0, 2.0)], 5.0));
        p.add_app(segments(2, &[(5.0, 1.0)], 5.0));
        assert_eq!(assert_priced_like_solve_without(&p), 1);
        assert!(vcg(&p).unwrap().receipts[1].payment > 0.0);
    }

    #[test]
    fn payments_are_nonneg_and_individually_rational() {
        let c = SlaCurve::front_loaded(100.0, 90.0, 0.4, 0.7);
        let mut p = WelfareProgram::new(vec![80.0, 60.0]);
        p.add_app(app(0, &c, 100.0));
        p.add_app(app(1, &SlaCurve::linear(100.0, 70.0), 100.0));
        p.add_app(app(2, &SlaCurve::linear(50.0, 10.0), 50.0));
        let out = vcg(&p).unwrap();
        for r in &out.receipts {
            assert!(r.payment >= 0.0, "negative payment for {}", r.app);
            assert!(r.payment <= r.value + 1e-9, "app {} pays more than its value", r.app);
            assert!(r.welfare_without <= r.welfare_with + 1e-6);
        }
    }
}
