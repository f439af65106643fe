//! Linear programming: a dense two-phase simplex solver.
//!
//! It is the reference model of the optimization-based allocation tier
//! (DESIGN.md §14): that tier solves each welfare window, and every
//! leave-one-out economy VCG pricing needs, with an exact greedy sweep,
//! and the property suite this module belongs to (`tests/lp_properties.rs`)
//! checks the sweep against the window's linear program solved here. No
//! shipping crate uses it. It is implemented from scratch against
//! published algorithms — no external dependency — and is
//! **deterministic**: the same program yields the bit-identical solution
//! on every run, thread count, and platform with IEEE-754 doubles,
//! because every pivot choice is made by Bland's anti-cycling rule
//! (lowest eligible index) over a fixed iteration order.
//!
//! * [`Lp`] — problem builder: maximize `c·x` subject to `≤`/`=`/`≥`
//!   rows and `x ≥ 0`.
//! * [`Lp::solve`] — two-phase primal simplex on a dense tableau.
//!   Phase 1 drives artificial variables out (detecting infeasibility);
//!   phase 2 optimizes. Bland's rule guarantees termination on
//!   degenerate programs; an iteration cap converts a hypothetical
//!   stall into [`LpOutcome::IterationLimit`] instead of a hang.
//! * [`Solution::duals`] — the dual vector `y` read off the final
//!   tableau, so callers (and the property suite) can check weak and
//!   strong duality: `c·x* = y*·b` at optimality.

/// Comparison sense of one constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// One constraint row in sparse builder form.
type Row = (Vec<(usize, f64)>, Cmp, f64);

/// A linear program in builder form: maximize `c·x` s.t. rows, `x ≥ 0`.
#[derive(Clone, Debug)]
pub struct Lp {
    vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
}

/// Solver outcome: the three terminal LP statuses plus the anti-hang cap.
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(Solution),
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The pivot cap was hit (practically unreachable under Bland's
    /// rule; returned instead of looping so callers never hang).
    IterationLimit,
}

impl LpOutcome {
    /// The solution, if optimal.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// An optimal basic solution with its dual certificate.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal objective value `c·x*`.
    pub objective: f64,
    /// Primal solution, one value per declared variable.
    pub x: Vec<f64>,
    /// Dual values, one per constraint row, signed so that strong
    /// duality reads `objective == Σ duals[i]·b[i]`. For a maximization
    /// with `≤` rows the duals are ≥ 0, with `≥` rows ≤ 0; equality
    /// rows are unrestricted.
    pub duals: Vec<f64>,
}

impl Lp {
    /// A program over `vars` non-negative variables (objective all 0).
    pub fn new(vars: usize) -> Lp {
        Lp {
            vars,
            objective: vec![0.0; vars],
            rows: Vec::new(),
        }
    }

    /// Number of constraint rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Set one objective coefficient (maximization).
    ///
    /// # Panics
    /// Panics if `var` is out of range or `c` is not finite.
    pub fn maximize(&mut self, var: usize, c: f64) -> &mut Self {
        assert!(var < self.vars, "objective var {var} out of range");
        assert!(c.is_finite(), "objective coefficient must be finite");
        self.objective[var] = c;
        self
    }

    /// Add a constraint `Σ coeffs·x  cmp  rhs`. Sparse coefficients:
    /// `(var, coefficient)` pairs; repeated vars accumulate.
    ///
    /// # Panics
    /// Panics on out-of-range vars or non-finite coefficients/rhs.
    pub fn constrain(&mut self, coeffs: &[(usize, f64)], cmp: Cmp, rhs: f64) -> &mut Self {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, c) in coeffs {
            assert!(v < self.vars, "constraint var {v} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.rows.push((coeffs.to_vec(), cmp, rhs));
        self
    }

    /// Solve with the two-phase dense simplex (Bland's rule throughout).
    pub fn solve(&self) -> LpOutcome {
        Tableau::build(self).solve()
    }
}

/// Feasibility/optimality tolerance: pivots smaller than this are
/// treated as zero, reduced costs within it as optimal.
const EPS: f64 = 1e-9;

/// Dense simplex tableau. Column layout: `[structural | slack/surplus |
/// artificial | rhs]`; row `m` is the objective (phase-dependent).
struct Tableau {
    /// Rows × (cols + 1) coefficients, row-major; last entry per row is
    /// the rhs.
    a: Vec<f64>,
    /// Constraint rows.
    m: usize,
    /// Total columns excluding rhs.
    cols: usize,
    /// Structural (caller-declared) variable count.
    n: usize,
    /// First artificial column (columns ≥ this are phase-1-only).
    art0: usize,
    /// Basic variable (column) of each row.
    basis: Vec<usize>,
    /// Phase-2 objective row (maximization, full column width + rhs).
    cost: Vec<f64>,
    /// Constraint sense of each row, for dual sign recovery.
    senses: Vec<Cmp>,
    /// Column of each row's slack/surplus/artificial "reader" used to
    /// extract the dual value for that row.
    dual_col: Vec<usize>,
    /// Sign to apply to the reduced cost at `dual_col` to get the dual.
    dual_sign: Vec<f64>,
}

impl Tableau {
    /// Assemble the phase-1 tableau: rhs made non-negative by row
    /// negation, slack/surplus columns for inequality rows, artificial
    /// columns for `=`/`≥` rows (and for `≤` rows whose slack starts
    /// negative after negation — handled by the negation itself turning
    /// them into `≥`).
    fn build(lp: &Lp) -> Tableau {
        let m = lp.rows.len();
        let n = lp.vars;
        // After normalizing rhs ≥ 0, count slack and artificial columns.
        let mut norm: Vec<Row> = Vec::with_capacity(m);
        for (coeffs, cmp, rhs) in &lp.rows {
            if *rhs < 0.0 {
                let flipped: Vec<(usize, f64)> = coeffs.iter().map(|&(v, c)| (v, -c)).collect();
                let cmp = match cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
                norm.push((flipped, cmp, -rhs));
            } else {
                norm.push((coeffs.clone(), *cmp, *rhs));
            }
        }
        let slacks = norm.iter().filter(|(_, c, _)| *c != Cmp::Eq).count();
        let arts = norm.iter().filter(|(_, c, _)| *c != Cmp::Le).count();
        let art0 = n + slacks;
        let cols = art0 + arts;
        let stride = cols + 1;
        let mut a = vec![0.0; m * stride];
        let mut basis = vec![0usize; m];
        let mut senses = vec![Cmp::Le; m];
        let mut dual_col = vec![0usize; m];
        let mut dual_sign = vec![1.0; m];
        let mut next_slack = n;
        let mut next_art = art0;
        for (i, (coeffs, cmp, rhs)) in norm.iter().enumerate() {
            let row = &mut a[i * stride..(i + 1) * stride];
            for &(v, c) in coeffs {
                row[v] += c;
            }
            row[cols] = *rhs;
            senses[i] = *cmp;
            match cmp {
                Cmp::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    dual_col[i] = next_slack;
                    dual_sign[i] = 1.0;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    row[next_slack] = -1.0;
                    dual_col[i] = next_slack;
                    dual_sign[i] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Cmp::Eq => {
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    // The dual of an equality row is read from its
                    // artificial column's reduced cost in phase 2.
                    dual_col[i] = next_art;
                    dual_sign[i] = 1.0;
                    next_art += 1;
                }
            }
        }
        let mut cost = vec![0.0; stride];
        cost[..n].copy_from_slice(&lp.objective);
        Tableau {
            a,
            m,
            cols,
            n,
            art0,
            basis,
            cost,
            senses,
            dual_col,
            dual_sign,
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.a[i * (self.cols + 1)..(i + 1) * (self.cols + 1)]
    }

    /// Pivot on `(r, c)`: scale row `r` so column `c` becomes 1, then
    /// eliminate column `c` from every other row and from `z`.
    fn pivot(&mut self, r: usize, c: usize, z: &mut [f64]) {
        let stride = self.cols + 1;
        let piv = self.a[r * stride + c];
        debug_assert!(piv.abs() > EPS, "pivot too small");
        let inv = 1.0 / piv;
        for j in 0..stride {
            self.a[r * stride + j] *= inv;
        }
        // Borrow-split: copy the pivot row once, then eliminate.
        let prow: Vec<f64> = self.a[r * stride..(r + 1) * stride].to_vec();
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let f = self.a[i * stride + c];
            if f == 0.0 {
                continue;
            }
            for (j, &p) in prow.iter().enumerate() {
                self.a[i * stride + j] -= f * p;
            }
            // Re-zero the pivot column exactly: the arithmetic above
            // leaves an O(ulp) residue that Bland's rule would otherwise
            // have to tolerate.
            self.a[i * stride + c] = 0.0;
        }
        let f = z[c];
        if f != 0.0 {
            for (zj, &p) in z.iter_mut().zip(&prow) {
                *zj -= f * p;
            }
            z[c] = 0.0;
        }
        self.basis[r] = c;
    }

    /// One simplex phase: maximize `-z` (i.e. minimize the reduced-cost
    /// row `z`) with Bland's rule. `allow` bounds the eligible entering
    /// columns. Returns `None` on success (optimal), or `Some(column)`
    /// of an unbounded direction.
    fn optimize(&mut self, z: &mut [f64], allow: usize, cap: &mut usize) -> Result<(), Phase> {
        let stride = self.cols + 1;
        loop {
            if *cap == 0 {
                return Err(Phase::IterationLimit);
            }
            *cap -= 1;
            // Bland: entering column = lowest index with z_j < -EPS
            // (improves the maximization).
            let Some(c) = (0..allow).find(|&j| z[j] < -EPS) else {
                return Ok(());
            };
            // Ratio test; ties broken by lowest basis variable index
            // (the other half of Bland's rule).
            let mut best: Option<(f64, usize, usize)> = None; // (ratio, basis var, row)
            for i in 0..self.m {
                let aic = self.a[i * stride + c];
                if aic > EPS {
                    let ratio = self.a[i * stride + self.cols] / aic;
                    let key = (ratio, self.basis[i]);
                    if best.is_none_or(|(br, bb, _)| key < (br, bb)) {
                        best = Some((ratio, self.basis[i], i));
                    }
                }
            }
            let Some((_, _, r)) = best else {
                return Err(Phase::Unbounded);
            };
            self.pivot(r, c, z);
        }
    }

    fn solve(mut self) -> LpOutcome {
        let stride = self.cols + 1;
        // Generous anti-hang budget shared by both phases: Bland's rule
        // terminates finitely, this is purely a hard ceiling.
        let mut cap = 200 * (self.m + self.cols) + 20_000;

        // Phase 1: minimize Σ artificials. Reduced-cost row starts as
        // -(Σ of artificial-basic rows) so basic columns read zero.
        if self.art0 < self.cols {
            let mut z = vec![0.0; stride];
            z[self.art0..self.cols].fill(1.0);
            for i in 0..self.m {
                if self.basis[i] >= self.art0 {
                    let row = self.row(i).to_vec();
                    for (zj, &rj) in z.iter_mut().zip(&row) {
                        *zj -= rj;
                    }
                }
            }
            match self.optimize(&mut z, self.cols, &mut cap) {
                Ok(()) => {}
                Err(Phase::IterationLimit) => return LpOutcome::IterationLimit,
                // Phase 1 is bounded below by 0; unbounded cannot happen.
                Err(Phase::Unbounded) => unreachable!("phase 1 is bounded"),
            }
            // Infeasible iff artificials retain positive mass.
            if -z[self.cols] > 1e-7 {
                return LpOutcome::Infeasible;
            }
            // Drive any residual basic artificial out on a nonzero
            // structural/slack pivot; a fully zero row is redundant and
            // its artificial can stay basic at level 0.
            for r in 0..self.m {
                if self.basis[r] >= self.art0 {
                    let row_off = r * stride;
                    if let Some(c) =
                        (0..self.art0).find(|&j| self.a[row_off + j].abs() > EPS)
                    {
                        self.pivot(r, c, &mut z);
                    }
                }
            }
        }

        // Phase 2: maximize c·x ⇔ minimize the reduced-cost row -c,
        // priced out over the current basis. Artificial columns stay
        // frozen (ineligible to enter).
        let mut z = vec![0.0; stride];
        for (zj, &cj) in z.iter_mut().zip(&self.cost).take(self.cols) {
            *zj = -cj;
        }
        for i in 0..self.m {
            let cb = self.cost[self.basis[i]];
            if cb != 0.0 {
                let row = self.row(i).to_vec();
                for (zj, &rj) in z.iter_mut().zip(&row) {
                    *zj += cb * rj;
                }
            }
        }
        for i in 0..self.m {
            z[self.basis[i]] = 0.0;
        }
        match self.optimize(&mut z, self.art0, &mut cap) {
            Ok(()) => {}
            Err(Phase::IterationLimit) => return LpOutcome::IterationLimit,
            Err(Phase::Unbounded) => return LpOutcome::Unbounded,
        }

        // Extract primal x, objective, and row duals. The dual of row i
        // is the final reduced cost at its slack (sign-adjusted) or
        // artificial column: y = c_B·B⁻¹ e_i.
        let mut x = vec![0.0; self.n];
        for i in 0..self.m {
            if self.basis[i] < self.n {
                x[self.basis[i]] = self.a[i * stride + self.cols];
            }
        }
        let objective = (0..self.n).map(|j| self.cost[j] * x[j]).sum();
        let duals = (0..self.m)
            .map(|i| self.dual_sign[i] * z[self.dual_col[i]] * dual_row_sense(self.senses[i]))
            .collect();
        LpOutcome::Optimal(Solution { objective, x, duals })
    }
}

/// Internal phase failure modes.
enum Phase {
    Unbounded,
    IterationLimit,
}

/// Sense factor folded into the dual so `objective == Σ y_i b_i` holds
/// with the *caller's* (pre-normalization) right-hand sides.
fn dual_row_sense(_s: Cmp) -> f64 {
    // Row normalization (rhs < 0 flips) happens before column creation,
    // so the slack/artificial columns already reflect the normalized
    // row; the recorded sense needs no extra factor. Kept as a function
    // to document the invariant (and as the single place to adjust if
    // the normalization ever changes).
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_opt(lp: &Lp) -> Solution {
        lp.solve().optimal().expect("expected optimal")
    }

    #[test]
    fn textbook_two_var_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), 36.
        let mut lp = Lp::new(2);
        lp.maximize(0, 3.0).maximize(1, 5.0);
        lp.constrain(&[(0, 1.0)], Cmp::Le, 4.0);
        lp.constrain(&[(1, 2.0)], Cmp::Le, 12.0);
        lp.constrain(&[(0, 3.0), (1, 2.0)], Cmp::Le, 18.0);
        let s = solve_opt(&lp);
        assert!((s.objective - 36.0).abs() < 1e-9);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9);
        // Strong duality: y·b == objective.
        let yb = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert!((yb - 36.0).abs() < 1e-7, "duality gap: {yb}");
    }

    #[test]
    fn equality_and_ge_rows() {
        // max x + y s.t. x + y = 10, x ≥ 2, y ≤ 6 → 10 with x ∈ [4, 8].
        let mut lp = Lp::new(2);
        lp.maximize(0, 1.0).maximize(1, 1.0);
        lp.constrain(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 10.0);
        lp.constrain(&[(0, 1.0)], Cmp::Ge, 2.0);
        lp.constrain(&[(1, 1.0)], Cmp::Le, 6.0);
        let s = solve_opt(&lp);
        assert!((s.objective - 10.0).abs() < 1e-9);
        assert!((s.x[0] + s.x[1] - 10.0).abs() < 1e-9);
        assert!(s.x[0] >= 2.0 - 1e-9 && s.x[1] <= 6.0 + 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = Lp::new(1);
        lp.maximize(0, 1.0);
        lp.constrain(&[(0, 1.0)], Cmp::Ge, 5.0);
        lp.constrain(&[(0, 1.0)], Cmp::Le, 3.0);
        assert!(matches!(lp.solve(), LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = Lp::new(2);
        lp.maximize(0, 1.0);
        lp.constrain(&[(1, 1.0)], Cmp::Le, 1.0);
        assert!(matches!(lp.solve(), LpOutcome::Unbounded));
    }

    #[test]
    fn degenerate_program_terminates() {
        // Classic cycling-prone degeneracy (Beale-like): Bland must
        // terminate and find the optimum.
        let mut lp = Lp::new(4);
        lp.maximize(0, 0.75)
            .maximize(1, -150.0)
            .maximize(2, 0.02)
            .maximize(3, -6.0);
        lp.constrain(&[(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0)], Cmp::Le, 0.0);
        lp.constrain(&[(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0)], Cmp::Le, 0.0);
        lp.constrain(&[(2, 1.0)], Cmp::Le, 1.0);
        let s = solve_opt(&lp);
        assert!((s.objective - 0.05).abs() < 1e-9, "got {}", s.objective);
    }

    #[test]
    fn zero_rhs_and_duplicate_rows_are_fine() {
        let mut lp = Lp::new(2);
        lp.maximize(0, 1.0).maximize(1, 2.0);
        lp.constrain(&[(0, 1.0), (1, 1.0)], Cmp::Le, 4.0);
        lp.constrain(&[(0, 1.0), (1, 1.0)], Cmp::Le, 4.0);
        lp.constrain(&[(0, 1.0), (1, -1.0)], Cmp::Le, 0.0);
        let s = solve_opt(&lp);
        assert!((s.objective - 8.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x ≥ 1 written as -x ≤ -1.
        let mut lp = Lp::new(1);
        lp.maximize(0, -1.0);
        lp.constrain(&[(0, -1.0)], Cmp::Le, -1.0);
        let s = solve_opt(&lp);
        assert!((s.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn determinism_bitwise() {
        let mut lp = Lp::new(6);
        for v in 0..6 {
            lp.maximize(v, 1.0 + v as f64 * 0.37);
        }
        for r in 0..5 {
            let coeffs: Vec<(usize, f64)> =
                (0..6).map(|v| (v, ((r * 7 + v * 3) % 5) as f64 * 0.5 + 0.1)).collect();
            lp.constrain(&coeffs, Cmp::Le, 10.0 + r as f64);
        }
        let a = solve_opt(&lp);
        let b = solve_opt(&lp);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(
            a.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
