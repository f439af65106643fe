//! The per-host Auctioneer.
//!
//! "Auctioneers … run on each host and manage the market used to allocate
//! resources on that host" (§2.2). The market is a continuous bid-based
//! proportional-share auction: each user maintains a bid *rate* (credits
//! per second) backed by escrowed funds; every allocation interval (10 s by
//! default) the auctioneer
//!
//! 1. computes each active bid's share `x_i / (Σ x + reserve)`,
//! 2. converts shares into deliverable vCPU capacity (capped at one
//!    physical CPU per VM, matching the experiment setup in §5.2),
//! 3. charges each bid `rate × interval` against its escrow (pay-for-use:
//!    cancelling refunds the remaining escrow),
//! 4. publishes the spot price `y_j = Σ x_ij` (Eq. 1).
//!
//! Bids are stored in a dense struct-of-arrays lane (DESIGN.md §15):
//! parallel vectors of handle / user / rate / escrow / payer in ascending
//! handle order, so the allocation sweep is a branch-light linear scan
//! and sums (`Σ x_ij`, `q_j`) are always fresh ordered reductions —
//! byte-identical to the old `BTreeMap` walk. The payer column rides the
//! bid itself, so cancelling, exhausting or evicting a bid removes its
//! payer record in the same pass (no separate index to leak).

use std::fmt;

use crate::bank::AccountId;
use crate::host::HostSpec;
use crate::money::Credits;

/// Identifier of a market user (one per funded grid identity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user{}", self.0)
    }
}

/// Handle to a live bid on one host's market.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BidHandle(pub u64);

/// Dense struct-of-arrays storage for one host's live bids, kept in
/// ascending handle order (handles are monotonic per host, so appends
/// always land at the end and the order never needs re-sorting).
#[derive(Default)]
struct BidLane {
    handles: Vec<u64>,
    users: Vec<UserId>,
    rates: Vec<f64>,
    escrows: Vec<Credits>,
    /// Bank account that funded the bid, when placed through the market
    /// (bids placed directly on the auctioneer, e.g. in tests or on the
    /// live per-host service, carry `None`).
    payers: Vec<Option<AccountId>>,
}

impl BidLane {
    fn len(&self) -> usize {
        self.handles.len()
    }

    fn idx(&self, handle: BidHandle) -> Option<usize> {
        self.handles.binary_search(&handle.0).ok()
    }

    fn push(&mut self, handle: u64, user: UserId, rate: f64, escrow: Credits, payer: Option<AccountId>) {
        debug_assert!(
            self.handles.last().is_none_or(|&h| h < handle),
            "handles must stay ascending"
        );
        self.handles.push(handle);
        self.users.push(user);
        self.rates.push(rate);
        self.escrows.push(escrow);
        self.payers.push(payer);
    }

    fn remove(&mut self, i: usize) -> (u64, UserId, f64, Credits, Option<AccountId>) {
        (
            self.handles.remove(i),
            self.users.remove(i),
            self.rates.remove(i),
            self.escrows.remove(i),
            self.payers.remove(i),
        )
    }

    /// Drop every bid whose escrow ran dry, preserving order across all
    /// columns (one stable in-place compaction).
    fn compact_exhausted(&mut self) {
        let mut w = 0;
        for r in 0..self.len() {
            if self.escrows[r].is_positive() {
                if w != r {
                    self.handles[w] = self.handles[r];
                    self.users[w] = self.users[r];
                    self.rates[w] = self.rates[r];
                    self.escrows[w] = self.escrows[r];
                    self.payers[w] = self.payers[r];
                }
                w += 1;
            }
        }
        self.handles.truncate(w);
        self.users.truncate(w);
        self.rates.truncate(w);
        self.escrows.truncate(w);
        self.payers.truncate(w);
    }

    fn clear(&mut self) {
        self.handles.clear();
        self.users.clear();
        self.rates.clear();
        self.escrows.clear();
        self.payers.clear();
    }
}

/// The outcome of one allocation interval for one bid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Allocation {
    /// The bidding user.
    pub user: UserId,
    /// The bid this allocation belongs to.
    pub handle: BidHandle,
    /// Proportional share of the host in `[0, 1]`.
    pub share: f64,
    /// Deliverable vCPU capacity in MHz for this interval.
    pub capacity_mhz: f64,
    /// Credits charged against the escrow this interval.
    pub charged: Credits,
    /// True if the escrow ran dry and the bid was deactivated.
    pub exhausted: bool,
}

/// A bid evicted by a host crash or retirement: handle, owning user,
/// remaining escrow, and the payer account recorded at placement (if the
/// bid was placed through the market).
pub type EvictedBid = (BidHandle, UserId, Credits, Option<AccountId>);

/// Per-host continuous auction market.
pub struct Auctioneer {
    spec: HostSpec,
    lane: BidLane,
    next_handle: u64,
    /// Credits collected from charges (host income).
    earned: Credits,
}

impl Auctioneer {
    /// New auctioneer for `spec`.
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    pub fn new(spec: HostSpec) -> Auctioneer {
        spec.validate().expect("invalid host spec");
        Auctioneer {
            spec,
            lane: BidLane::default(),
            next_handle: 0,
            earned: Credits::ZERO,
        }
    }

    /// The host this market allocates.
    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// Place a bid: `rate` credits/second backed by `escrow`.
    ///
    /// # Panics
    /// Panics on non-positive rate or escrow (callers validate user input).
    pub fn place_bid(&mut self, user: UserId, rate: f64, escrow: Credits) -> BidHandle {
        self.place_funded_bid(user, rate, escrow, None)
    }

    /// [`Auctioneer::place_bid`] with the funding account recorded on the
    /// bid, so eviction and exhaustion drop the payer record in the same
    /// pass that drops the bid.
    ///
    /// # Panics
    /// Panics on non-positive rate or escrow (callers validate user input).
    pub fn place_funded_bid(
        &mut self,
        user: UserId,
        rate: f64,
        escrow: Credits,
        payer: Option<AccountId>,
    ) -> BidHandle {
        assert!(rate > 0.0 && rate.is_finite(), "bid rate must be positive");
        assert!(escrow.is_positive(), "escrow must be positive");
        let handle = BidHandle(self.next_handle);
        self.next_handle += 1;
        self.lane.push(handle.0, user, rate, escrow, payer);
        handle
    }

    /// Cancel a bid, returning the unspent escrow (pay-for-use refund).
    /// Returns `None` for unknown/already-cancelled handles.
    pub fn cancel_bid(&mut self, handle: BidHandle) -> Option<Credits> {
        let i = self.lane.idx(handle)?;
        let (_, _, _, escrow, _) = self.lane.remove(i);
        Some(escrow)
    }

    /// Evict every live bid at once, returning `(handle, user, remaining
    /// escrow, payer)` in deterministic handle order.
    ///
    /// This is the host-crash path: the auctioneer's state is wiped (as if
    /// the host lost power mid-interval) and the market refunds each
    /// returned escrow to its recorded payer, without a side index, so no
    /// money is stranded on the dead host.
    pub fn evict_all_funded(&mut self) -> Vec<EvictedBid> {
        let out = (0..self.lane.len())
            .map(|i| {
                (
                    BidHandle(self.lane.handles[i]),
                    self.lane.users[i],
                    self.lane.escrows[i],
                    self.lane.payers[i],
                )
            })
            .collect();
        self.lane.clear();
        out
    }

    /// Evict only the live bids funded by `payer`, returning them in
    /// deterministic handle order; every other bid keeps its position.
    ///
    /// This is the quarantine path (DESIGN.md §16): when an account is
    /// quarantined the market evicts its bids host by host and refunds
    /// each returned escrow, exactly like the crash path but selective.
    /// One stable in-place compaction, same shape as exhaustion sweeping.
    pub fn evict_funded_by_payer(&mut self, payer: AccountId) -> Vec<EvictedBid> {
        let mut out = Vec::new();
        let mut w = 0;
        for r in 0..self.lane.len() {
            if self.lane.payers[r] == Some(payer) {
                out.push((
                    BidHandle(self.lane.handles[r]),
                    self.lane.users[r],
                    self.lane.escrows[r],
                    self.lane.payers[r],
                ));
            } else {
                if w != r {
                    self.lane.handles[w] = self.lane.handles[r];
                    self.lane.users[w] = self.lane.users[r];
                    self.lane.rates[w] = self.lane.rates[r];
                    self.lane.escrows[w] = self.lane.escrows[r];
                    self.lane.payers[w] = self.lane.payers[r];
                }
                w += 1;
            }
        }
        self.lane.handles.truncate(w);
        self.lane.users.truncate(w);
        self.lane.rates.truncate(w);
        self.lane.escrows.truncate(w);
        self.lane.payers.truncate(w);
        out
    }

    /// Add funds to a live bid ("performance boosting" in §3).
    pub fn top_up(&mut self, handle: BidHandle, extra: Credits) -> bool {
        assert!(extra.is_positive(), "top-up must be positive");
        match self.lane.idx(handle) {
            Some(i) => {
                self.lane.escrows[i] += extra;
                true
            }
            None => false,
        }
    }

    /// Change the rate of a live bid (re-bidding).
    pub fn update_rate(&mut self, handle: BidHandle, rate: f64) -> bool {
        assert!(rate > 0.0 && rate.is_finite(), "bid rate must be positive");
        match self.lane.idx(handle) {
            Some(i) => {
                self.lane.rates[i] = rate;
                true
            }
            None => false,
        }
    }

    /// Sum of all live bid rates (the `Σ x_ij` part of the spot price),
    /// always a fresh reduction in handle order — never an incrementally
    /// maintained total — so the float result is reproducible.
    pub fn total_bid_rate(&self) -> f64 {
        self.lane.rates.iter().sum()
    }

    /// The spot price `y_j`: total bid rates plus the owner's reserve.
    pub fn spot_price(&self) -> f64 {
        self.total_bid_rate() + self.spec.reserve_rate
    }

    /// Spot price normalized per MHz of deliverable capacity — the
    /// "price ($/s per CPU cycles/s)" unit of Fig. 5–6.
    pub fn price_per_mhz(&self) -> f64 {
        self.spot_price() / self.spec.effective_capacity_mhz()
    }

    /// Total of *other* users' bid rates plus reserve, as seen by `user`
    /// (the `q_j` input to Best Response). A filtered fresh sum, matching
    /// [`Auctioneer::total_bid_rate`]'s float discipline.
    pub fn others_rate(&self, user: UserId) -> f64 {
        self.lane
            .users
            .iter()
            .zip(&self.lane.rates)
            .filter(|(u, _)| **u != user)
            .map(|(_, r)| *r)
            .sum::<f64>()
            + self.spec.reserve_rate
    }

    /// Remaining escrow of a bid.
    pub fn escrow(&self, handle: BidHandle) -> Option<Credits> {
        self.lane.idx(handle).map(|i| self.lane.escrows[i])
    }

    /// Payer account recorded on a live bid (None for unfunded bids and
    /// unknown handles).
    pub fn payer(&self, handle: BidHandle) -> Option<AccountId> {
        self.lane.idx(handle).and_then(|i| self.lane.payers[i])
    }

    /// Number of live bids.
    pub fn live_bids(&self) -> usize {
        self.lane.len()
    }

    /// Number of live bids carrying a payer record — the whole payer
    /// "index" of this host. Bounded by `live_bids` by construction.
    pub fn funded_bids(&self) -> usize {
        self.lane.payers.iter().filter(|p| p.is_some()).count()
    }

    /// Credits earned by the host so far.
    pub fn earned(&self) -> Credits {
        self.earned
    }

    /// Run one allocation interval of `dt_secs` seconds: compute shares,
    /// charge escrows, deactivate exhausted bids. Returns one [`Allocation`]
    /// per live bid (in deterministic handle order).
    pub fn allocate(&mut self, dt_secs: f64) -> Vec<Allocation> {
        self.sweep(dt_secs).1
    }

    /// [`Auctioneer::allocate`] fused with the tick-start spot price: the
    /// rate column is summed exactly once and that sum serves as both the
    /// returned spot and the proportional-share denominator. Bit-identical
    /// to calling [`Auctioneer::spot_price`] followed by `allocate` (both
    /// take the same fresh ordered sum), but half the rate-column reads —
    /// the difference is measurable once 100k lanes stream from DRAM.
    pub fn sweep(&mut self, dt_secs: f64) -> (f64, Vec<Allocation>) {
        assert!(dt_secs > 0.0 && dt_secs.is_finite());
        let denom = self.spot_price();
        debug_assert!(denom.is_finite() && denom >= 0.0);
        let n = self.lane.len();
        let mut out = Vec::with_capacity(n);
        let mut any_exhausted = false;
        for i in 0..n {
            let rate = self.lane.rates[i];
            let share = rate / denom;
            // One VM cannot exceed one physical CPU (§5.2): a share of the
            // whole host translates to `share × cpus` of a single CPU,
            // capped at 1.
            let cpu_fraction = (share * self.spec.cpus as f64).min(1.0);
            let capacity_mhz = cpu_fraction * self.spec.vcpu_capacity_mhz();

            let due = Credits::from_f64(rate * dt_secs);
            let charged = due.min(self.lane.escrows[i]);
            self.lane.escrows[i] -= charged;
            self.earned += charged;
            let exhausted = !self.lane.escrows[i].is_positive();
            any_exhausted |= exhausted;
            out.push(Allocation {
                user: self.lane.users[i],
                handle: BidHandle(self.lane.handles[i]),
                share,
                capacity_mhz,
                charged,
                exhausted,
            });
        }
        if any_exhausted {
            self.lane.compact_exhausted();
        }
        (denom, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;

    fn auctioneer() -> Auctioneer {
        Auctioneer::new(HostSpec::testbed(0))
    }

    #[test]
    fn single_bidder_gets_full_vcpu() {
        let mut a = auctioneer();
        a.place_bid(UserId(1), 0.01, Credits::from_whole(10));
        let allocs = a.allocate(10.0);
        assert_eq!(allocs.len(), 1);
        // share ≈ 1 (tiny reserve), capped at one CPU on a dual-CPU host.
        assert!(allocs[0].share > 0.99);
        assert!((allocs[0].capacity_mhz - 2910.0).abs() < 1.0);
    }

    #[test]
    fn two_equal_bidders_on_dual_cpu_both_get_full_cpus() {
        // The paper: "there may thus not be competition for a CPU on a
        // machine even though there are multiple users running there".
        let mut a = auctioneer();
        a.place_bid(UserId(1), 0.01, Credits::from_whole(10));
        a.place_bid(UserId(2), 0.01, Credits::from_whole(10));
        let allocs = a.allocate(10.0);
        for al in &allocs {
            assert!((al.share - 0.5).abs() < 0.01);
            assert!((al.capacity_mhz - 2910.0).abs() < 30.0, "{}", al.capacity_mhz);
        }
    }

    #[test]
    fn four_equal_bidders_share_proportionally() {
        let mut a = auctioneer();
        for u in 0..4 {
            a.place_bid(UserId(u), 0.01, Credits::from_whole(10));
        }
        let allocs = a.allocate(10.0);
        for al in &allocs {
            assert!((al.share - 0.25).abs() < 0.01);
            // 0.25 × 2 CPUs = 0.5 CPU each
            assert!((al.capacity_mhz - 0.5 * 2910.0).abs() < 30.0);
        }
    }

    #[test]
    fn shares_follow_bid_ratio() {
        let mut a = auctioneer();
        a.place_bid(UserId(1), 0.03, Credits::from_whole(10));
        a.place_bid(UserId(2), 0.01, Credits::from_whole(10));
        let allocs = a.allocate(10.0);
        let s1 = allocs.iter().find(|x| x.user == UserId(1)).unwrap().share;
        let s2 = allocs.iter().find(|x| x.user == UserId(2)).unwrap().share;
        assert!((s1 / s2 - 3.0).abs() < 0.01, "ratio {}", s1 / s2);
    }

    #[test]
    fn charging_decrements_escrow_and_accrues_income() {
        let mut a = auctioneer();
        let h = a.place_bid(UserId(1), 0.5, Credits::from_whole(10));
        let allocs = a.allocate(10.0);
        assert_eq!(allocs[0].charged, Credits::from_whole(5));
        assert_eq!(a.escrow(h).unwrap(), Credits::from_whole(5));
        assert_eq!(a.earned(), Credits::from_whole(5));
    }

    #[test]
    fn exhausted_bid_is_removed_and_charged_only_remaining() {
        let mut a = auctioneer();
        let h = a.place_bid(UserId(1), 1.0, Credits::from_whole(3));
        let allocs = a.allocate(10.0); // due 10, only 3 available
        assert_eq!(allocs[0].charged, Credits::from_whole(3));
        assert!(allocs[0].exhausted);
        assert_eq!(a.live_bids(), 0);
        assert!(a.escrow(h).is_none());
        assert_eq!(a.earned(), Credits::from_whole(3));
    }

    #[test]
    fn cancel_refunds_unspent_escrow() {
        let mut a = auctioneer();
        let h = a.place_bid(UserId(1), 0.1, Credits::from_whole(10));
        a.allocate(10.0); // charges 1
        let refund = a.cancel_bid(h).unwrap();
        assert_eq!(refund, Credits::from_whole(9));
        assert!(a.cancel_bid(h).is_none(), "double cancel");
        assert_eq!(a.live_bids(), 0);
    }

    #[test]
    fn top_up_extends_bid_life() {
        let mut a = auctioneer();
        let h = a.place_bid(UserId(1), 1.0, Credits::from_whole(30));
        a.allocate(10.0); // charges 10, leaves 20
        assert!(a.top_up(h, Credits::from_whole(5)));
        assert_eq!(a.escrow(h).unwrap(), Credits::from_whole(25));
        assert!(!a.top_up(BidHandle(99), Credits::from_whole(1)));
    }

    #[test]
    fn update_rate_changes_shares() {
        let mut a = auctioneer();
        let h1 = a.place_bid(UserId(1), 0.01, Credits::from_whole(100));
        a.place_bid(UserId(2), 0.01, Credits::from_whole(100));
        assert!(a.update_rate(h1, 0.02));
        let allocs = a.allocate(1.0);
        let s1 = allocs.iter().find(|x| x.user == UserId(1)).unwrap().share;
        assert!((s1 - 2.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn spot_price_is_sum_of_rates_plus_reserve() {
        let mut a = auctioneer();
        assert!((a.spot_price() - 1e-5).abs() < 1e-12, "idle price = reserve");
        a.place_bid(UserId(1), 0.25, Credits::from_whole(1));
        a.place_bid(UserId(2), 0.75, Credits::from_whole(1));
        assert!((a.spot_price() - 1.00001).abs() < 1e-9);
        assert!((a.total_bid_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn others_rate_excludes_own_bids() {
        let mut a = auctioneer();
        a.place_bid(UserId(1), 0.3, Credits::from_whole(1));
        a.place_bid(UserId(2), 0.7, Credits::from_whole(1));
        assert!((a.others_rate(UserId(1)) - (0.7 + 1e-5)).abs() < 1e-9);
        assert!((a.others_rate(UserId(3)) - (1.0 + 1e-5)).abs() < 1e-9);
    }

    #[test]
    fn money_conservation_within_auctioneer() {
        let mut a = auctioneer();
        let deposits = Credits::from_whole(30);
        let h1 = a.place_bid(UserId(1), 0.7, Credits::from_whole(10));
        let h2 = a.place_bid(UserId(2), 0.2, Credits::from_whole(20));
        for _ in 0..7 {
            a.allocate(10.0);
        }
        let escrows = a.escrow(h1).unwrap_or(Credits::ZERO) + a.escrow(h2).unwrap_or(Credits::ZERO);
        assert_eq!(escrows + a.earned(), deposits);
    }

    #[test]
    fn price_per_mhz_unit() {
        let mut a = auctioneer();
        a.place_bid(UserId(1), 0.582, Credits::from_whole(10));
        // effective capacity = 5820 MHz → ≈ 1e-4 credits/s per MHz
        assert!((a.price_per_mhz() - 1e-4).abs() < 1e-7);
    }

    #[test]
    fn payer_rides_the_bid_and_dies_with_it() {
        let mut a = auctioneer();
        let h1 = a.place_funded_bid(UserId(1), 1.0, Credits::from_whole(3), Some(AccountId(7)));
        let h2 = a.place_bid(UserId(2), 0.1, Credits::from_whole(10));
        assert_eq!(a.payer(h1), Some(AccountId(7)));
        assert_eq!(a.payer(h2), None);
        assert_eq!(a.funded_bids(), 1);
        // Exhaustion removes the bid and its payer record in one pass.
        a.allocate(10.0);
        assert_eq!(a.payer(h1), None);
        assert_eq!(a.funded_bids(), 0);
        assert_eq!(a.live_bids(), 1);
    }

    #[test]
    fn evict_all_funded_reports_payers_in_handle_order() {
        let mut a = auctioneer();
        let h1 = a.place_funded_bid(UserId(1), 0.1, Credits::from_whole(5), Some(AccountId(3)));
        let h2 = a.place_bid(UserId(2), 0.1, Credits::from_whole(7));
        let evicted = a.evict_all_funded();
        assert_eq!(
            evicted,
            vec![
                (h1, UserId(1), Credits::from_whole(5), Some(AccountId(3))),
                (h2, UserId(2), Credits::from_whole(7), None),
            ]
        );
        assert_eq!(a.live_bids(), 0);
        assert_eq!(a.funded_bids(), 0);
    }

    #[test]
    fn evict_funded_by_payer_is_selective_and_order_preserving() {
        let mut a = auctioneer();
        let h1 = a.place_funded_bid(UserId(1), 0.1, Credits::from_whole(5), Some(AccountId(3)));
        let h2 = a.place_funded_bid(UserId(2), 0.2, Credits::from_whole(7), Some(AccountId(9)));
        let h3 = a.place_funded_bid(UserId(1), 0.3, Credits::from_whole(2), Some(AccountId(3)));
        let h4 = a.place_bid(UserId(4), 0.1, Credits::from_whole(1));
        let evicted = a.evict_funded_by_payer(AccountId(3));
        assert_eq!(
            evicted,
            vec![
                (h1, UserId(1), Credits::from_whole(5), Some(AccountId(3))),
                (h3, UserId(1), Credits::from_whole(2), Some(AccountId(3))),
            ]
        );
        // Survivors keep their handles, payers, and relative order.
        assert_eq!(a.live_bids(), 2);
        assert_eq!(a.payer(h2), Some(AccountId(9)));
        assert_eq!(a.payer(h4), None);
        assert_eq!(a.payer(h1), None, "evicted bid is gone");
        // A second sweep for the same payer is a no-op.
        assert!(a.evict_funded_by_payer(AccountId(3)).is_empty());
    }

    #[test]
    #[should_panic(expected = "escrow must be positive")]
    fn zero_escrow_rejected() {
        auctioneer().place_bid(UserId(1), 0.1, Credits::ZERO);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        auctioneer().place_bid(UserId(1), 0.0, Credits::from_whole(1));
    }
}
