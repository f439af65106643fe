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
//! segments are sorted into fill order once; `W_full` and each `W_{-a}`
//! are then one linear sweep each over that shared order, app `a`
//! skipped inline, so a window costs O(S log S + A·S) in its S segments
//! and A apps rather than A + 1 sorts, and each `W_{-a}` is bit-identical
//! to [`WelfareProgram::solve_without`]'s (the [`crate::program`] docs
//! say why). The classic properties follow directly and are
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

use crate::program::{Sweep, WelfareProgram, WelfareSolution};

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
    /// The full welfare optimum (allocation, deliveries, prices).
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
    let solution = program.solve_ordered(&order);
    let mut scratch = Sweep::default();
    let mut receipts = Vec::with_capacity(program.app_count());
    for (a, app) in program.apps().iter().enumerate() {
        let value = solution.values[a];
        let welfare_without = if value <= 0.0 {
            // An app with no realized value imposes no externality;
            // skip the re-solve (its payment clamps to 0 regardless).
            solution.welfare
        } else {
            program.sweep(&order, Some(a), &mut scratch);
            scratch.welfare
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
