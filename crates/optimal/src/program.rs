//! The per-window welfare maximization program.
//!
//! [`WelfareProgram`] holds one planning window — a set of apps with
//! concave [`SlaCurve`](crate::SlaCurve) value segments competing for a
//! set of capacity-bounded hosts — and solves it for the optimal fluid
//! allocation, per-app deliveries and values, and the host capacity
//! shadow price.
//!
//! As a linear program the window reads (per app `a` over `H` hosts,
//! `K_a` value segments):
//!
//! ```text
//! Σ_a x[a][h]              <= capacity_h     one per host
//! Σ_h x[a][h] - Σ_k s[a][k] = 0             linking, one per app
//! Σ_h x[a][h]              <= cap_a         app rate/demand cap
//! 0 <= s[a][k]             <= width_k       one per segment
//! maximize Σ_{a,k} slope_k · s[a][k]
//! ```
//!
//! `x[a][h]` appears only in `Σ_h x[a][h]` and in the host rows, so
//! nothing depends on which host serves which app: a delivery vector
//! `d` is feasible exactly when `d_a <= cap_a` and
//! `Σ_a d_a <= Σ_h max(capacity_h, 0)`. The program is therefore a
//! fractional knapsack whose capacities nest — segment width inside app
//! cap inside window capacity — and for such a laminar family filling
//! segments greedily by slope is exact. [`WelfareProgram::solve`] is
//! that sweep, O(S log S) in the S segments with no pivoting, and
//! deterministic: ties break by `(app, segment)` index. The LP above,
//! solved by a dense simplex that lives beside the property suite
//! (`tests/lp_properties/simplex.rs`), is the reference model
//! `tests/lp_properties.rs` checks the sweep against.
//!
//! Solving is two steps: one sort of the window's segments into fill
//! order, then a linear sweep over that order. [`crate::vcg()`] sorts
//! once, sweeps the full window, and prices every leave-one-out from
//! that sweep's *cut*, the first position whose segment the window room
//! could not fill (the one that sets the price). Before the cut every
//! fill is its `wanted`, `min(width, app room)`, in the full sweep and
//! in any sweep with one app left out: leaving an app out only raises
//! the window room, and float subtraction is monotone. So at the cut
//! every other app has the full sweep's value and room, and
//! `WelfareProgram::leave_one_out` records them once. Each `W_{-a}`
//! then replays only the window-room subtractions from app `a`'s first
//! segment to the cut, `a`'s fills skipped — the chain of float
//! operations a from-scratch sweep makes — and sweeps on from the cut,
//! skipping `a`, until the room is exactly `0.0`, after which every fill
//! is `+0.0`. Skipping `a` in the shared order walks exactly the
//! sequence a sort of the other apps' segments would give, because the
//! sort is stable; every app's value then takes the same fills in the
//! same order, and welfare sums the values in app order either way, so
//! each `W_{-a}` is bit-identical to [`WelfareProgram::solve_without`]'s.
//! A window costs O(S log S) for the sort and O(S) for the full sweep;
//! each leave-one-out costs O(A) plus the positions from `a`'s first
//! segment to where the room runs out, only subtractions before the
//! cut. That is O(A·(A + S)) at worst, when leaving one app out leaves
//! the window uncontended, and far less when the window is contended.

/// One app's slice of a [`WelfareProgram`] window.
#[derive(Clone, Debug)]
pub struct WelfareApp {
    /// Caller-side id carried through to receipts.
    pub id: u32,
    /// Remaining value segments `(width, slope)` in non-increasing
    /// slope order (see [`crate::SlaCurve::remaining_segments`]).
    pub segments: Vec<(f64, f64)>,
    /// Upper bound on total work deliverable to this app this window
    /// (parallelism × window length, deadline truncation, remaining
    /// work — whichever binds first).
    pub cap: f64,
}

/// One planning window: hosts with capacities and the apps competing
/// for them.
#[derive(Clone, Debug, Default)]
pub struct WelfareProgram {
    host_capacity: Vec<f64>,
    apps: Vec<WelfareApp>,
}

/// The solved window: optimal welfare, the allocation matrix, and the
/// dual prices on host capacity.
#[derive(Clone, Debug)]
pub struct WelfareSolution {
    /// Optimal welfare `Σ values`.
    pub welfare: f64,
    /// `alloc[a][h]`: work app `a` draws from host `h`.
    pub alloc: Vec<Vec<f64>>,
    /// Per-app total delivery (`Σ_h alloc[a][h]` up to rounding).
    pub delivered: Vec<f64>,
    /// Per-app realized value `Σ_k slope·s` at the optimum.
    pub values: Vec<f64>,
    /// Shadow price of each host's capacity constraint (credits per
    /// unit of work; 0 when the window is uncontended). All hosts share
    /// one price, crashed ones included: a unit of capacity is worth the
    /// same wherever it sits.
    pub host_prices: Vec<f64>,
}

impl WelfareProgram {
    /// A window over hosts with the given capacities (work units each
    /// can supply this window; 0 for crashed hosts).
    pub fn new(host_capacity: Vec<f64>) -> WelfareProgram {
        WelfareProgram {
            host_capacity,
            apps: Vec::new(),
        }
    }

    /// Add one app; returns its row index in the solution.
    pub fn add_app(&mut self, app: WelfareApp) -> usize {
        self.apps.push(app);
        self.apps.len() - 1
    }

    /// Number of apps added so far.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The apps added so far (solution rows are in this order).
    pub fn apps(&self) -> &[WelfareApp] {
        &self.apps
    }

    /// The host capacities the window was built over.
    pub fn host_capacity(&self) -> &[f64] {
        &self.host_capacity
    }

    /// Replace app `a`'s value segments in place — the misreport hook
    /// the truthfulness property tests (`tests/lp_properties.rs`) use
    /// to probe deviations against the same hosts and caps.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn set_app_segments(&mut self, a: usize, segments: Vec<(f64, f64)>) {
        self.apps[a].segments = segments;
    }

    /// Solve the window: the greedy sweep (see the module docs) plus a
    /// placement of each app's delivery on hosts. Returns `None` if any
    /// host capacity, app cap, segment width or slope is NaN or
    /// infinite; every finite window has an optimum (`d = 0` is
    /// feasible and every segment is bounded).
    pub fn solve(&self) -> Option<WelfareSolution> {
        Some(self.solve_ordered(&self.fill_order(None)?))
    }

    /// Optimal welfare of the same window with app `skip` excluded —
    /// the `W_{-a}` term of a VCG payment: the same sweep with the
    /// app's segments left out. `None` on the inputs [`Self::solve`]
    /// rejects.
    pub fn solve_without(&self, skip: usize) -> Option<f64> {
        let order = self.fill_order(Some(skip))?;
        let mut sweep = Sweep::default();
        self.sweep(&order, None, &mut sweep);
        Some(sweep.welfare)
    }

    /// The full solution from a fill order of every app.
    pub(crate) fn solve_ordered(&self, order: &FillOrder) -> WelfareSolution {
        let mut sweep = Sweep::default();
        self.sweep(order, None, &mut sweep);
        WelfareSolution {
            alloc: self.place(&sweep.delivered),
            host_prices: vec![sweep.price; self.host_capacity.len()],
            welfare: sweep.welfare,
            delivered: sweep.delivered,
            values: sweep.values,
        }
    }

    /// The ordering step every solve starts from: `None` if any input
    /// is non-finite, else the `(slope, app, width)` of every segment
    /// worth filling — positive width and slope, app `skip` left out —
    /// stably sorted by slope, descending, so ties go by
    /// `(app, segment)` index.
    pub(crate) fn fill_order(&self, skip: Option<usize>) -> Option<FillOrder> {
        let finite = self.host_capacity.iter().all(|c| c.is_finite())
            && self.apps.iter().all(|app| {
                app.cap.is_finite()
                    && app.segments.iter().all(|&(w, s)| w.is_finite() && s.is_finite())
            });
        if !finite {
            return None;
        }
        let mut segments: Vec<(f64, usize, f64)> =
            Vec::with_capacity(self.apps.iter().map(|app| app.segments.len()).sum());
        for (a, app) in self.apps.iter().enumerate() {
            if skip == Some(a) {
                continue;
            }
            segments.extend(
                app.segments
                    .iter()
                    .filter(|&&(width, slope)| width > 0.0 && slope > 0.0)
                    .map(|&(width, slope)| (slope, a, width)),
            );
        }
        segments.sort_by(|x, y| y.0.total_cmp(&x.0));
        Some(FillOrder {
            segments,
            capacity: self.host_capacity.iter().map(|c| c.max(0.0)).sum(),
        })
    }

    /// Fill the segments of `order`, passing over app `skip`'s, each by
    /// `min(width, app room, window room)`, into `out`'s buffers.
    pub(crate) fn sweep(&self, order: &FillOrder, skip: Option<usize>, out: &mut Sweep) {
        let n = self.apps.len();
        out.room.clear();
        out.room.extend(self.apps.iter().map(|app| app.cap.max(0.0)));
        out.values.clear();
        out.values.resize(n, 0.0);
        out.delivered.clear();
        out.delivered.resize(n, 0.0);
        let mut window_room = order.capacity;
        // The host price is the slope of the first segment the window
        // cut short while its app still had room: one more unit of any
        // host's capacity would go there.
        let mut price = None;
        for &(slope, a, width) in &order.segments {
            if skip == Some(a) {
                continue;
            }
            let wanted = width.min(out.room[a]);
            if window_room < wanted && price.is_none() {
                price = Some(slope);
            }
            let fill = wanted.min(window_room);
            out.room[a] -= fill;
            window_room -= fill;
            out.values[a] += slope * fill;
            out.delivered[a] += fill;
        }
        out.welfare = out.values.iter().sum();
        out.price = price.unwrap_or(0.0);
    }

    /// The prefix pass of leave-one-out pricing over `order`: the full
    /// sweep up to its cut, the first position whose segment the window
    /// room cannot fill (the one that sets the price), recording what
    /// each [`LeaveOneOut::welfare_without`] restarts from.
    pub(crate) fn leave_one_out<'o>(&self, order: &'o FillOrder) -> LeaveOneOut<'o> {
        let n = self.apps.len();
        let mut room: Vec<f64> = self.apps.iter().map(|app| app.cap.max(0.0)).collect();
        let mut values = vec![0.0; n];
        let mut first = vec![usize::MAX; n];
        let mut fills = Vec::with_capacity(order.segments.len());
        let mut window_before = Vec::with_capacity(order.segments.len() + 1);
        let mut window_room = order.capacity;
        for (i, &(slope, a, width)) in order.segments.iter().enumerate() {
            let wanted = width.min(room[a]);
            if window_room < wanted {
                break;
            }
            first[a] = first[a].min(i);
            window_before.push(window_room);
            fills.push(wanted);
            room[a] -= wanted;
            window_room -= wanted;
            values[a] += slope * wanted;
        }
        window_before.push(window_room);
        LeaveOneOut {
            order,
            cut: fills.len(),
            fills,
            window_before,
            first,
            room,
            values,
            scratch_room: Vec::with_capacity(n),
            scratch_values: Vec::with_capacity(n),
        }
    }

    /// Place each app's delivery on hosts northwest-corner style: apps
    /// in index order take hosts in index order, each host until its
    /// capacity is used up. Crashed (zero-capacity) hosts get nothing.
    fn place(&self, delivered: &[f64]) -> Vec<Vec<f64>> {
        let mut free: Vec<f64> = self.host_capacity.iter().map(|c| c.max(0.0)).collect();
        let mut alloc = vec![vec![0.0; free.len()]; delivered.len()];
        let mut h = 0;
        for (row, &d) in alloc.iter_mut().zip(delivered) {
            let mut need = d;
            while need > 0.0 && h < free.len() {
                let take = need.min(free[h]);
                row[h] = take;
                free[h] -= take;
                need -= take;
                if free[h] <= 0.0 {
                    h += 1;
                }
            }
        }
        alloc
    }
}

/// A window's segments in fill order and the capacity they share; see
/// [`WelfareProgram::fill_order`].
pub(crate) struct FillOrder {
    /// `(slope, app, width)`, slope descending, ties by index.
    segments: Vec<(f64, usize, f64)>,
    /// The window capacity `Σ_h max(capacity_h, 0)`.
    capacity: f64,
}

/// What one greedy sweep over a window yields. Its buffers are
/// overwritten by each [`WelfareProgram::sweep`], so one `Sweep` serves
/// any number of sweeps without allocating again.
#[derive(Default)]
pub(crate) struct Sweep {
    pub(crate) welfare: f64,
    pub(crate) values: Vec<f64>,
    pub(crate) delivered: Vec<f64>,
    /// The window's capacity price, the same on every host.
    pub(crate) price: f64,
    /// Room left under each app's cap.
    room: Vec<f64>,
}

/// The full sweep's state at its cut, from which each `W_{-a}` is
/// priced without sweeping the window again; see
/// [`WelfareProgram::leave_one_out`] and the module docs.
pub(crate) struct LeaveOneOut<'o> {
    order: &'o FillOrder,
    /// The cut: the first position of `order` the window room could not
    /// fill, `order.segments.len()` if it filled them all.
    pub(crate) cut: usize,
    /// The fill of each position before the cut (its `wanted`).
    fills: Vec<f64>,
    /// The window room before each position up to and including the cut.
    window_before: Vec<f64>,
    /// Each app's first position in `order` before the cut, else
    /// `usize::MAX`.
    first: Vec<usize>,
    /// Room under each app's cap at the cut.
    room: Vec<f64>,
    /// Each app's value at the cut.
    values: Vec<f64>,
    scratch_room: Vec<f64>,
    scratch_values: Vec<f64>,
}

impl LeaveOneOut<'_> {
    /// `W_{-skip}`, bit-identical to [`WelfareProgram::solve_without`]:
    /// the window room at the cut by the same chain of subtractions a
    /// sweep without `skip` makes, then that sweep from the cut on.
    pub(crate) fn welfare_without(&mut self, skip: usize) -> f64 {
        let segments = &self.order.segments;
        self.scratch_values.clone_from(&self.values);
        self.scratch_values[skip] = 0.0;
        if self.cut < segments.len() {
            // Before `skip`'s first segment the chain is the full sweep's.
            let start = self.first[skip].min(self.cut);
            let mut window_room = self.window_before[start];
            for (&(_, a, _), &fill) in segments[start..self.cut].iter().zip(&self.fills[start..]) {
                if a != skip {
                    window_room -= fill;
                }
            }
            let (room, values) = (&mut self.scratch_room, &mut self.scratch_values);
            room.clone_from(&self.room);
            for &(slope, a, width) in &segments[self.cut..] {
                // Every fill from here on is zero.
                if window_room == 0.0 {
                    break;
                }
                if a == skip {
                    continue;
                }
                let fill = width.min(room[a]).min(window_room);
                room[a] -= fill;
                window_room -= fill;
                values[a] += slope * fill;
            }
        }
        self.scratch_values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sla::SlaCurve;

    fn app(id: u32, curve: &SlaCurve, cap: f64) -> WelfareApp {
        WelfareApp {
            id,
            segments: curve.remaining_segments(0.0, cap),
            cap,
        }
    }

    #[test]
    fn uncontended_window_serves_everyone_fully() {
        let mut p = WelfareProgram::new(vec![100.0, 100.0]);
        p.add_app(app(0, &SlaCurve::linear(60.0, 30.0), 60.0));
        p.add_app(app(1, &SlaCurve::linear(80.0, 20.0), 80.0));
        let s = p.solve().unwrap();
        assert!((s.welfare - 50.0).abs() < 1e-6, "{}", s.welfare);
        assert!((s.delivered[0] - 60.0).abs() < 1e-6);
        assert!((s.delivered[1] - 80.0).abs() < 1e-6);
        // No contention ⇒ zero shadow prices.
        assert!(s.host_prices.iter().all(|p| *p < 1e-9));
    }

    #[test]
    fn contention_favors_the_higher_value_curve() {
        // One host of 100 units; two apps want 100 each, app 0 pays
        // double per unit.
        let mut p = WelfareProgram::new(vec![100.0]);
        p.add_app(app(0, &SlaCurve::linear(100.0, 100.0), 100.0));
        p.add_app(app(1, &SlaCurve::linear(100.0, 50.0), 100.0));
        let s = p.solve().unwrap();
        assert!((s.delivered[0] - 100.0).abs() < 1e-6, "{:?}", s.delivered);
        assert!(s.delivered[1] < 1e-6);
        assert!((s.welfare - 100.0).abs() < 1e-6);
        // The host's shadow price is the displaced marginal value.
        assert!((s.host_prices[0] - 0.5).abs() < 1e-6, "{:?}", s.host_prices);
    }

    #[test]
    fn concavity_splits_capacity_across_front_loaded_curves() {
        // Two identical front-loaded apps, capacity for exactly the two
        // high-slope halves: welfare-optimal is a 50/50 split, not
        // winner-takes-all.
        let c = SlaCurve::front_loaded(100.0, 100.0, 0.5, 0.8);
        let mut p = WelfareProgram::new(vec![100.0]);
        p.add_app(app(0, &c, 100.0));
        p.add_app(app(1, &c, 100.0));
        let s = p.solve().unwrap();
        assert!((s.delivered[0] - 50.0).abs() < 1e-6, "{:?}", s.delivered);
        assert!((s.delivered[1] - 50.0).abs() < 1e-6);
        assert!((s.welfare - 160.0).abs() < 1e-6);
    }

    #[test]
    fn crashed_hosts_contribute_nothing() {
        let mut p = WelfareProgram::new(vec![0.0, 40.0]);
        p.add_app(app(0, &SlaCurve::linear(100.0, 10.0), 100.0));
        let s = p.solve().unwrap();
        assert!(s.alloc[0][0] < 1e-9, "crashed host allocated");
        assert!((s.delivered[0] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn solve_without_drops_exactly_one_app() {
        let mut p = WelfareProgram::new(vec![100.0]);
        p.add_app(app(0, &SlaCurve::linear(100.0, 100.0), 100.0));
        p.add_app(app(1, &SlaCurve::linear(100.0, 50.0), 100.0));
        // Without the winner, the loser takes the host.
        assert!((p.solve_without(0).unwrap() - 50.0).abs() < 1e-6);
        // Without the loser nothing changes for the winner.
        assert!((p.solve_without(1).unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_inputs_are_rejected_not_solved() {
        let window = |hosts: Vec<f64>, segments: Vec<(f64, f64)>, cap: f64| {
            let mut p = WelfareProgram::new(hosts);
            p.add_app(WelfareApp { id: 0, segments, cap });
            p.add_app(app(1, &SlaCurve::linear(10.0, 5.0), 10.0));
            p
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [
                window(vec![50.0], vec![(10.0, bad)], 10.0),
                window(vec![50.0], vec![(bad, 1.0)], 10.0),
                window(vec![50.0], vec![(10.0, 1.0)], bad),
                window(vec![50.0, bad], vec![(10.0, 1.0)], 10.0),
            ] {
                assert!(p.solve().is_none(), "{bad} accepted: {p:?}");
                assert!(p.solve_without(1).is_none());
                assert!(crate::vcg(&p).is_none());
            }
        }
    }

    #[test]
    fn ties_break_by_app_index_and_placement_fills_hosts_in_order() {
        // Two identical apps, room for one and a half: app 0 is served
        // first, app 1 gets the rest; both hosts price the cut slope.
        let mut p = WelfareProgram::new(vec![0.0, 60.0, 90.0]);
        p.add_app(app(0, &SlaCurve::linear(100.0, 100.0), 100.0));
        p.add_app(app(1, &SlaCurve::linear(100.0, 100.0), 100.0));
        let s = p.solve().unwrap();
        assert_eq!(s.delivered, vec![100.0, 50.0]);
        assert_eq!(s.alloc, vec![vec![0.0, 60.0, 40.0], vec![0.0, 0.0, 50.0]]);
        assert_eq!(s.host_prices, vec![1.0; 3]);
    }

    #[test]
    fn empty_windows_are_fine() {
        let p = WelfareProgram::new(vec![50.0]);
        let s = p.solve().unwrap();
        assert_eq!(s.welfare, 0.0);
        assert!(s.alloc.is_empty());
        let mut p = WelfareProgram::new(Vec::new());
        p.add_app(app(0, &SlaCurve::linear(10.0, 5.0), 10.0));
        let s = p.solve().unwrap();
        assert_eq!(s.welfare, 0.0);
        assert_eq!(s.delivered[0], 0.0);
    }
}
