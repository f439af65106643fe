//! # gm-adversary — the strategic-bidder attack library
//!
//! Everything the repo injects today is mechanical — crashes, outages,
//! lossy links — while every agent stays honest and myopic. This crate
//! adds the missing robustness axis (DESIGN.md §16): *strategic*
//! populations that attack the economy itself.
//!
//! The design constraint is policy neutrality: an adversary is nothing
//! but a deterministic stream of extra [`JobRequest`]s appended to the
//! honest stream and driven through the **unchanged** `PolicyDriver`, so
//! all six policies (tycoon, vcg, fifo, share, gcommerce, wta) face
//! byte-identical adversaries and the only experimental variable is the
//! allocator. Arrival times come from the fault plan's seeded
//! `AdversaryArrival` events, keeping attack timing on the same
//! reproducible schedule as every other fault.
//!
//! * [`BidderStrategy`] — the trait: `(context, rng) → hostile requests`.
//! * [`strategy`] — the six-strategy roster ([`AttackKind`]): honest
//!   baseline, best-response (Feldman–Lai–Zhang, seeded from
//!   `gm_tycoon::best_response`), zero-intelligence (Gode–Sunder random
//!   budget/valuation draws), budget-hoarding, deadline-sniping, and the
//!   colluding shill pair.
//! * [`AdversaryInstruments`] — lazily constructed `adversary.*`
//!   counters; only attack runs register them, so default exports stay
//!   byte-identical.

pub mod strategy;

use gm_core::JobRequest;
use gm_des::rng::Pcg32;
use gm_des::{FaultKind, FaultPlan, SimTime};
use gm_telemetry::{Counter, Registry};

pub use strategy::{AttackKind, BestResponseBidder, BudgetHoarder, ColludingShillPair, DeadlineSniper, HonestBaseline, ZeroIntelligence};

/// User ids at or above this value belong to adversaries — metric code
/// uses it to score honest users separately from the attackers.
pub const ADVERSARY_USER_BASE: u32 = 1000;

/// The world one attack cohort operates in: the honest population it
/// preys on, the seeded arrival schedule, and the workload shape the
/// hostile requests mirror. Everything here is derived deterministically
/// from the scenario seed, so the same context + seed always produces the
/// same attack.
#[derive(Clone, Debug)]
pub struct AttackContext {
    /// Testbed hosts in the market.
    pub hosts: u32,
    /// Honest competing users.
    pub honest_users: u32,
    /// Per-honest-user funding in credits.
    pub honest_funding: f64,
    /// Honest job deadline in seconds (walls that force deadline misses
    /// must outlive it).
    pub honest_deadline_secs: f64,
    /// Expected unloaded honest batch makespan in seconds — the window
    /// the honest population is actually *busy*. Honest jobs finish far
    /// inside their deadline on an uncontended testbed, so strategies
    /// time their strikes against this window, not the deadline, or they
    /// land on an empty market.
    pub honest_makespan_secs: f64,
    /// Work per sub-job in MHz·seconds (mirrors the honest workload).
    pub work_per_subjob: f64,
    /// Sub-jobs per honest job.
    pub subjobs: u32,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Seeded cohort arrival times (from the fault plan's
    /// `AdversaryArrival` events), ascending.
    pub arrivals: Vec<SimTime>,
    /// First job id available to the cohort (after the honest stream).
    pub job_id_base: u32,
    /// War-chest multiplier: hostile budgets scale with
    /// `aggression × honest_funding`. `1.0` is a peer-funded attacker;
    /// the attack matrix uses concentrated budgets well above it.
    pub aggression: f64,
}

impl AttackContext {
    /// Collect the seeded `AdversaryArrival` times out of `plan`, in
    /// schedule order. Empty when the plan carries no adversary events.
    pub fn arrivals_from(plan: &FaultPlan) -> Vec<SimTime> {
        plan.events()
            .iter()
            .filter(|e| e.kind == FaultKind::AdversaryArrival)
            .map(|e| e.at)
            .collect()
    }

    /// The adversary user id of cohort member `k`.
    pub fn user(&self, k: u32) -> gm_tycoon::UserId {
        gm_tycoon::UserId(ADVERSARY_USER_BASE + k)
    }

    /// Total honest funding in play — the prize pool strategies size
    /// their war chests against.
    pub fn honest_pool(&self) -> f64 {
        f64::from(self.honest_users) * self.honest_funding
    }
}

/// A strategic bidder: turns the attack context into a deterministic
/// stream of hostile job requests. Implementations must be pure in
/// `(ctx, rng)` — no clocks, no globals — so the same seed attacks every
/// policy byte-identically.
pub trait BidderStrategy {
    /// Stable strategy name (report row / CLI key).
    fn name(&self) -> &'static str;

    /// The cohort's job requests, ascending by arrival, ids starting at
    /// [`AttackContext::job_id_base`], users at or above
    /// [`ADVERSARY_USER_BASE`].
    fn requests(&self, ctx: &AttackContext, rng: &mut Pcg32) -> Vec<JobRequest>;
}

/// Lazily constructed `adversary.*` counters. Only attack runs build one
/// (the `NetInstruments` opt-in pattern), so honest exports never carry
/// the names:
///
/// | name                              | meaning                             |
/// |-----------------------------------|-------------------------------------|
/// | `adversary.cohorts`               | attack cohorts materialised         |
/// | `adversary.requests`              | hostile job requests injected       |
/// | `adversary.shill_pair_transfers`  | colluding shill/beneficiary pairs   |
#[derive(Clone)]
pub struct AdversaryInstruments {
    /// `adversary.cohorts`
    pub cohorts: Counter,
    /// `adversary.requests`
    pub requests: Counter,
    /// `adversary.shill_pair_transfers`
    pub shill_pair_transfers: Counter,
}

impl AdversaryInstruments {
    /// Resolve the adversary instruments against `registry`.
    pub fn new(registry: &Registry) -> AdversaryInstruments {
        AdversaryInstruments {
            cohorts: registry.counter("adversary.cohorts"),
            requests: registry.counter("adversary.requests"),
            shill_pair_transfers: registry.counter("adversary.shill_pair_transfers"),
        }
    }

    /// Count one materialised cohort of `n` requests, `pairs` of them
    /// colluding shill pairs.
    pub fn record_cohort(&self, n: usize, pairs: usize) {
        self.cohorts.inc();
        self.requests.add(n as u64);
        self.shill_pair_transfers.add(pairs as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::{FaultGenConfig, FaultMix, SimDuration};

    fn ctx() -> AttackContext {
        AttackContext {
            hosts: 6,
            honest_users: 3,
            honest_funding: 80.0,
            honest_deadline_secs: 180.0 * 60.0,
            honest_makespan_secs: 1200.0,
            work_per_subjob: 10.0 * 60.0 * 2910.0,
            subjobs: 4,
            horizon: SimTime::from_secs(12 * 3600),
            arrivals: vec![SimTime::from_secs(600), SimTime::from_secs(3600)],
            job_id_base: 100,
            aggression: 8.0,
        }
    }

    #[test]
    fn arrivals_come_from_the_fault_plan() {
        let cfg = FaultGenConfig {
            hosts: 6,
            horizon: SimTime::from_secs(6 * 3600),
            mix: FaultMix {
                crashes: 1,
                mean_downtime: SimDuration::from_minutes(10),
                adversary_arrivals: 3,
                ..FaultMix::default()
            },
        };
        let plan = FaultPlan::generate(0xA77AC4, cfg);
        let arrivals = AttackContext::arrivals_from(&plan);
        assert_eq!(arrivals.len(), 3);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "schedule order");
        // Same seed, same schedule.
        let again = AttackContext::arrivals_from(&FaultPlan::generate(0xA77AC4, cfg));
        assert_eq!(arrivals, again);
    }

    #[test]
    fn every_strategy_is_deterministic_and_well_formed() {
        let ctx = ctx();
        for kind in AttackKind::ALL {
            let s = kind.strategy();
            let mut r1 = Pcg32::seed_from_u64(7);
            let mut r2 = Pcg32::seed_from_u64(7);
            let a = s.requests(&ctx, &mut r1);
            let b = s.requests(&ctx, &mut r2);
            assert_eq!(a, b, "{} must be pure in (ctx, rng)", s.name());
            assert!(!a.is_empty(), "{} produced no requests", s.name());
            for (i, req) in a.iter().enumerate() {
                assert!(req.id >= ctx.job_id_base, "{}: id below base", s.name());
                assert!(
                    req.user.0 >= ADVERSARY_USER_BASE,
                    "{}: honest user id {} in hostile stream",
                    s.name(),
                    req.user.0
                );
                assert!(req.budget >= 0.0 && req.budget.is_finite());
                assert!(req.subjobs > 0 && req.work_per_subjob > 0.0);
                assert!(req.arrival <= ctx.horizon, "{}: arrival past horizon", s.name());
                if i > 0 {
                    assert!(req.arrival >= a[i - 1].arrival, "{}: arrivals must ascend", s.name());
                    assert!(req.id > a[i - 1].id, "{}: ids must ascend", s.name());
                }
            }
        }
    }

    #[test]
    fn strategy_names_are_unique_and_stable() {
        let names: Vec<&str> = AttackKind::ALL.iter().map(|k| k.strategy().name()).collect();
        assert_eq!(
            names,
            ["honest", "best_response", "zero_intelligence", "budget_hoard", "deadline_snipe", "shill_pair"]
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn adversary_counters_register_only_when_constructed() {
        let registry = Registry::new();
        let before = gm_telemetry::metrics_jsonl(&registry.snapshot());
        assert!(!before.contains("adversary."));
        let instruments = AdversaryInstruments::new(&registry);
        instruments.record_cohort(5, 2);
        let after = gm_telemetry::metrics_jsonl(&registry.snapshot());
        assert!(after.contains("\"adversary.cohorts\""));
        assert!(after.contains("\"adversary.requests\""));
        assert!(after.contains("\"adversary.shill_pair_transfers\""));
    }
}
