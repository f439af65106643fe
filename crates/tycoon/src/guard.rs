//! Market defense layer against strategic bidders (DESIGN.md §16).
//!
//! Three independent guards, all deterministic and all sitting on the bid
//! path (every placement funnels through
//! [`crate::market::Market::place_funded_bid`], which consults this module
//! before any money moves):
//!
//! 1. **Per-account bid-rate limiting.** A single account may not command
//!    more than `MAX_BID_RATE` (1 credit/second) on one bid.
//!    Over-limit bids are rejected with
//!    [`crate::market::MarketError::RateLimited`] carrying *backoff
//!    advice*: a deterministic, seeded-jitter retry-after horizon that
//!    grows exponentially with the account's strike count (the same
//!    anti-thundering-herd shape as the live service clients' back-off
//!    jitter).
//! 2. **Account quarantine.** An account that keeps hammering past the
//!    limit (`QUARANTINE_STRIKES`, 3 rejected bids) is
//!    quarantined: its live bids across every host are evicted and the
//!    unspent escrows refunded to it — the same conservation-preserving
//!    internal book transfer as a host crash — and all further bid
//!    placements and top-ups from it fail with
//!    [`crate::market::MarketError::AccountQuarantined`].
//! 3. **Per-host price-band circuit breaker.** Epoch re-pricing is damped:
//!    when a host's tick-start spot moves beyond a configurable band
//!    above its previously *published* epoch price, the published price is
//!    clamped to the band edge and the breaker enters a cooldown during
//!    which the epoch price slews geometrically instead of jumping. Live
//!    allocation and charging always use the raw spot — the breaker only
//!    protects price *signals* (epoch buffer, price trace, gauges,
//!    degraded-mode pricing) from attack-induced spikes. Breaker state is
//!    one dense `u32` cooldown column in the
//!    [`HostArena`](crate::arena::HostArena), maintained at publication
//!    time (single-threaded in both the sequential and the sharded sweep),
//!    so it is byte-identical at any shard count.
//!
//! Defaults are chosen so that **no guard ever fires on an honest
//! workload**: the rate cap sits ~50× above the rates honest agents
//! derive from their budgets, and the breaker floor sits above any spot
//! price honest funding can produce. With defaults, a guarded run is
//! byte-identical to an unguarded one — asserted against the PR 8 golden
//! snapshot and by the false-positive gate in `tests/adversary.rs`.

use std::collections::{BTreeMap, BTreeSet};

use gm_des::{Rng64, SplitMix64};

use crate::bank::AccountId;

/// Maximum bid rate (credits/second) a single account may put on one bid
/// (placement or re-bid). Honest agents derive rates of order
/// `budget / deadline` — fractions of a credit per second — so this cap
/// only bites concentrated hostile budgets.
const MAX_BID_RATE: f64 = 1.0;

/// Rejected over-limit bids before the account is quarantined.
const QUARANTINE_STRIKES: u32 = 3;

/// Base of the exponential backoff advice returned with
/// [`crate::market::MarketError::RateLimited`], in seconds.
const BACKOFF_BASE_SECS: u32 = 20;

/// Ticks the breaker keeps damping after a trip (the cooldown during
/// which re-pricing slews geometrically instead of jumping).
const BREAKER_COOLDOWN_TICKS: u32 = 6;

/// Seed of the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x6A7D;

/// Knobs of the market guard layer. [`GuardConfig::default`] is **armed**
/// with never-fires-when-honest thresholds; [`GuardConfig::disabled`]
/// turns every check off (the pre-guard market).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Master switch; `false` bypasses every check and damp.
    pub enabled: bool,
    /// Maximum factor the published epoch price may grow by in one tick
    /// once it is above [`GuardConfig::breaker_floor`].
    pub breaker_band: f64,
    /// Published prices at or below this level (credits/second) are never
    /// damped — the honest trading range moves freely.
    pub breaker_floor: f64,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            enabled: true,
            breaker_band: 4.0,
            breaker_floor: 1.0,
        }
    }
}

impl GuardConfig {
    /// The pre-guard market: every check off.
    pub fn disabled() -> GuardConfig {
        GuardConfig {
            enabled: false,
            ..GuardConfig::default()
        }
    }
}

/// Why the guard rejected a bid placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// Bid rate over the per-bid cap (`MAX_BID_RATE`, 1 credit/second);
    /// retry no sooner than the advised number of seconds (seeded-jitter
    /// exponential backoff).
    RateLimited {
        /// Backoff advice in seconds.
        retry_after_secs: u32,
    },
    /// The account crossed the strike threshold with this bid and has
    /// been quarantined (the market evicts and refunds its bids).
    Quarantined,
    /// The account was already quarantined before this bid.
    AlreadyQuarantined,
}

/// Strike and quarantine bookkeeping for the guard layer. Pure
/// deterministic state — no clocks, no OS randomness; the backoff jitter
/// is a hash of `(seed, account, strike)`.
#[derive(Debug, Clone)]
pub struct MarketGuard {
    cfg: GuardConfig,
    /// Over-limit strikes per account (only misbehaving accounts appear).
    strikes: BTreeMap<AccountId, u32>,
    /// Quarantined accounts.
    quarantined: BTreeSet<AccountId>,
}

impl MarketGuard {
    /// A guard with the given knobs and empty books.
    pub fn new(cfg: GuardConfig) -> MarketGuard {
        MarketGuard {
            cfg,
            strikes: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        }
    }

    /// The active knobs.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// Whether the guard layer is armed.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether `account` is quarantined.
    pub fn is_quarantined(&self, account: AccountId) -> bool {
        self.quarantined.contains(&account)
    }

    /// Every quarantined account, ascending.
    pub fn quarantined_accounts(&self) -> Vec<AccountId> {
        self.quarantined.iter().copied().collect()
    }

    /// Recorded strikes for `account`.
    pub fn strikes(&self, account: AccountId) -> u32 {
        self.strikes.get(&account).copied().unwrap_or(0)
    }

    /// Vet a bid placement (or re-bid) of `rate` credits/second funded by
    /// `payer`. `Ok(())` admits the bid; an `Err` carries the rejection
    /// and has already updated the strike/quarantine books — on
    /// [`GuardVerdict::Quarantined`] the market must evict and refund the
    /// account's live bids.
    pub fn vet_bid(&mut self, payer: AccountId, rate: f64) -> Result<(), GuardVerdict> {
        if !self.cfg.enabled {
            return Ok(());
        }
        if self.quarantined.contains(&payer) {
            return Err(GuardVerdict::AlreadyQuarantined);
        }
        if rate <= MAX_BID_RATE {
            return Ok(());
        }
        let strikes = self.strikes.entry(payer).or_insert(0);
        *strikes += 1;
        if *strikes >= QUARANTINE_STRIKES {
            self.quarantined.insert(payer);
            return Err(GuardVerdict::Quarantined);
        }
        Err(GuardVerdict::RateLimited {
            retry_after_secs: backoff_secs(payer, *strikes),
        })
    }

    /// Vet a money-moving non-placement operation (top-up) from `payer`:
    /// quarantined accounts are refused, everything else passes.
    pub fn vet_funding(&self, payer: AccountId) -> Result<(), GuardVerdict> {
        if self.cfg.enabled && self.quarantined.contains(&payer) {
            return Err(GuardVerdict::AlreadyQuarantined);
        }
        Ok(())
    }

    /// Quarantine `account` directly (operator action). Returns `true` if
    /// it was not already quarantined. The caller evicts and refunds.
    pub fn quarantine(&mut self, account: AccountId) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.quarantined.insert(account)
    }

    /// Lift a quarantine (operator action). The strike count is cleared.
    pub fn release(&mut self, account: AccountId) -> bool {
        self.strikes.remove(&account);
        self.quarantined.remove(&account)
    }

    /// Damp one host's epoch re-pricing (the price-band circuit breaker).
    ///
    /// `prev` is the host's previously published epoch price, `spot` the
    /// raw tick-start spot the sweep just computed, `cooldown` the
    /// breaker-state column value. Returns
    /// `(published, new_cooldown, tripped)`:
    ///
    /// * in the honest range (`prev ≤ floor` and `spot` within the band
    ///   above the floor) the raw spot passes through untouched — the
    ///   published value is **bit-identical** to the undamped one;
    /// * a spot beyond `max(prev, floor) × band` trips the breaker: the
    ///   published price clamps to the band edge and the cooldown starts;
    /// * during cooldown the published price keeps slewing by at most
    ///   `band ×` per tick (up or down) until it converges on the raw
    ///   spot, then the breaker disengages.
    pub fn damp_republish(&self, prev: f64, spot: f64, cooldown: u32) -> (f64, u32, bool) {
        if !self.cfg.enabled {
            return (spot, 0, false);
        }
        let band = self.cfg.breaker_band.max(1.0);
        let ceiling = prev.max(self.cfg.breaker_floor) * band;
        if cooldown == 0 {
            if spot <= ceiling {
                // Honest range: publish the raw spot, bit-for-bit.
                return (spot, 0, false);
            }
            return (ceiling, BREAKER_COOLDOWN_TICKS, true);
        }
        // Cooling down: slew geometrically toward the raw spot.
        let floor_down = prev / band;
        let published = spot.clamp(floor_down.min(ceiling), ceiling);
        if (published - spot).abs() <= f64::EPSILON * spot.abs() {
            // Converged: publish raw and disengage next tick.
            (spot, cooldown - 1, false)
        } else {
            (published, BREAKER_COOLDOWN_TICKS, false)
        }
    }
}

/// Deterministic seeded-jitter exponential backoff advice: `base × 2^(s−1)`
/// seconds plus a jitter in `[0, base)` hashed from
/// `(seed, account, strike)` — two hammering accounts never synchronize
/// their retries, and the same run always advises the same horizons.
fn backoff_secs(account: AccountId, strike: u32) -> u32 {
    let exp = BACKOFF_BASE_SECS.saturating_mul(1u32 << (strike - 1).min(10));
    let hash = SplitMix64::new(JITTER_SEED ^ account.0 ^ (u64::from(strike) << 32)).next_u64();
    exp.saturating_add((hash % u64::from(BACKOFF_BASE_SECS)) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_rates_pass_untouched() {
        let mut g = MarketGuard::new(GuardConfig::default());
        for _ in 0..1000 {
            assert_eq!(g.vet_bid(AccountId(1), 0.02), Ok(()));
        }
        assert_eq!(g.strikes(AccountId(1)), 0);
        assert!(!g.is_quarantined(AccountId(1)));
    }

    #[test]
    fn over_limit_bids_strike_then_quarantine() {
        let cfg = GuardConfig::default();
        let mut g = MarketGuard::new(cfg);
        let a = AccountId(7);
        let first = g.vet_bid(a, 50.0).unwrap_err();
        let second = g.vet_bid(a, 50.0).unwrap_err();
        assert!(matches!(first, GuardVerdict::RateLimited { .. }));
        assert!(matches!(second, GuardVerdict::RateLimited { .. }));
        // Backoff advice grows with the strike count.
        let (GuardVerdict::RateLimited { retry_after_secs: r1 },
             GuardVerdict::RateLimited { retry_after_secs: r2 }) = (first, second)
        else {
            unreachable!()
        };
        assert!(r2 > r1, "backoff must escalate: {r1} then {r2}");
        // Third strike (the default threshold) quarantines.
        assert_eq!(g.vet_bid(a, 50.0), Err(GuardVerdict::Quarantined));
        assert!(g.is_quarantined(a));
        assert_eq!(g.vet_bid(a, 0.01), Err(GuardVerdict::AlreadyQuarantined));
        assert_eq!(g.vet_funding(a), Err(GuardVerdict::AlreadyQuarantined));
        // Release clears both books.
        assert!(g.release(a));
        assert_eq!(g.vet_bid(a, 0.01), Ok(()));
    }

    #[test]
    fn backoff_advice_is_deterministic_and_jittered() {
        let a = backoff_secs(AccountId(3), 1);
        let b = backoff_secs(AccountId(3), 1);
        assert_eq!(a, b, "same (seed, account, strike) → same advice");
        let other = backoff_secs(AccountId(4), 1);
        assert_ne!(a, other, "different accounts must desynchronize");
        assert!(a >= BACKOFF_BASE_SECS);
        assert!(a < BACKOFF_BASE_SECS * 2);
        // Advice recorded before the hash moved to `gm_des::SplitMix64`.
        for (acct, strike, secs) in [(3, 1, 38), (4, 1, 29), (7, 2, 59), (7, 3, 94), (u64::MAX, 11, 20_482)] {
            assert_eq!(backoff_secs(AccountId(acct), strike), secs, "account {acct} strike {strike}");
        }
    }

    #[test]
    fn disabled_guard_is_transparent() {
        let mut g = MarketGuard::new(GuardConfig::disabled());
        assert_eq!(g.vet_bid(AccountId(1), 1e9), Ok(()));
        assert!(!g.quarantine(AccountId(1)));
        let (p, cd, tripped) = g.damp_republish(0.5, 1e9, 0);
        assert_eq!(p, 1e9);
        assert_eq!(cd, 0);
        assert!(!tripped);
    }

    #[test]
    fn breaker_passes_honest_moves_bit_identically() {
        let g = MarketGuard::new(GuardConfig::default());
        // Honest spots live far below the floor; any move passes raw.
        for &(prev, spot) in &[(1e-5, 0.25), (0.25, 0.9), (0.9, 1e-5), (0.0, 3.9)] {
            let (p, cd, tripped) = g.damp_republish(prev, spot, 0);
            assert_eq!(p.to_bits(), spot.to_bits(), "prev {prev} spot {spot}");
            assert_eq!(cd, 0);
            assert!(!tripped);
        }
    }

    #[test]
    fn breaker_clamps_spikes_and_slews_during_cooldown() {
        let cfg = GuardConfig::default();
        let g = MarketGuard::new(cfg);
        // An attack pushes the spot from 0.2 to 40 credits/s in one tick:
        // the published price clamps to the band edge above the floor.
        let (p1, cd1, tripped) = g.damp_republish(0.2, 40.0, 0);
        assert!(tripped);
        assert_eq!(p1, cfg.breaker_floor * cfg.breaker_band);
        assert_eq!(cd1, BREAKER_COOLDOWN_TICKS);
        // Next tick the spot is still 40: the published price slews by at
        // most band× per tick instead of jumping.
        let (p2, cd2, _) = g.damp_republish(p1, 40.0, cd1);
        assert!(p2 <= p1 * cfg.breaker_band + 1e-12);
        assert!(p2 > p1);
        assert_eq!(cd2, BREAKER_COOLDOWN_TICKS);
        // Convergence: once the slewed price reaches the raw spot the
        // breaker publishes raw and cools down.
        let mut prev = p2;
        let mut cd = cd2;
        for _ in 0..8 {
            let (p, ncd, _) = g.damp_republish(prev, 40.0, cd);
            if p.to_bits() == 40.0f64.to_bits() {
                assert!(ncd < cd);
                return;
            }
            prev = p;
            cd = ncd;
        }
        panic!("breaker never converged on the raw spot");
    }

    #[test]
    fn breaker_damps_crashes_too() {
        let cfg = GuardConfig::default();
        let g = MarketGuard::new(cfg);
        // Bubble burst: spot collapses from 30 to 0.01 while cooling
        // down. The published price falls by at most band× per tick.
        let (p, _, _) = g.damp_republish(30.0, 0.01, BREAKER_COOLDOWN_TICKS);
        assert!((p - 30.0 / cfg.breaker_band).abs() < 1e-12);
    }
}
