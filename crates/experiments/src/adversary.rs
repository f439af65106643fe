//! The strategic-bidder attack library (DESIGN.md §16).
//!
//! Everything else the repo injects is mechanical — crashes, outages,
//! lossy links — while every agent stays honest and myopic. This module
//! adds the missing robustness axis: *strategic* populations that attack
//! the economy itself.
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
//! * [`AttackKind`] — the six-strategy roster: honest baseline,
//!   best-response (Feldman–Lai–Zhang, seeded from
//!   `gm_tycoon::best_response`), zero-intelligence (Gode–Sunder random
//!   budget/valuation draws), budget-hoarding, deadline-sniping, and the
//!   colluding shill pair. [`AttackKind::requests`] turns an
//!   [`AttackContext`] and a seeded RNG into the cohort's hostile
//!   requests. Each strategy is a plain bidding rule: pure in
//!   `(context, rng)` — no clocks, no globals — so the same seed attacks
//!   every policy byte-identically. The economics ride entirely on the
//!   request fields the shared driver already understands: a market
//!   policy turns `budget / deadline` into a bid *rate*, so concentrated
//!   budgets with tight deadlines are how an adversary bids hot, and
//!   arrival timing is how it picks its moment.
//! * [`AdversaryInstruments`] — lazily constructed `adversary.*`
//!   counters; only attack runs register them, so default exports stay
//!   byte-identical.

use gm_des::rng::{Pcg32, Rng64};
use gm_des::{FaultKind, FaultPlan, SimDuration, SimTime};
use gm_tycoon::{best_response, HostId, HostQuote};
use gridmarket::sched::JobRequest;
use gridmarket::telemetry::{Counter, Registry};

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
            .filter(|e| matches!(e.kind, FaultKind::AdversaryArrival { .. }))
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

/// The six-strategy roster, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    /// Control group: adversaries that behave exactly like honest users.
    Honest,
    /// Feldman–Lai–Zhang best-response bidder with a concentrated war
    /// chest (seeded from `gm_tycoon::best_response`).
    BestResponse,
    /// Gode–Sunder zero-intelligence traders: random budget/valuation
    /// draws subject only to a budget constraint.
    ZeroIntelligence,
    /// Budget hoarding: sit out, then the whole pack dumps its pooled
    /// war chest at once mid-window, holding a price wall past the
    /// honest deadline.
    BudgetHoard,
    /// Deadline sniping: a short, violent strike at the honest
    /// population's point of maximum sunk cost — most chunks paid for,
    /// nothing finished.
    DeadlineSnipe,
    /// A colluding pair per arrival: a shill inflates the spot price with
    /// a hot worthless job while its partner free-rides with a patient
    /// low-rate job once honest users are priced out.
    ShillPair,
}

impl AttackKind {
    /// Every strategy, report order.
    pub const ALL: [AttackKind; 6] = [
        AttackKind::Honest,
        AttackKind::BestResponse,
        AttackKind::ZeroIntelligence,
        AttackKind::BudgetHoard,
        AttackKind::DeadlineSnipe,
        AttackKind::ShillPair,
    ];

    /// The strategy's stable name (report row / CLI key).
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::Honest => "honest",
            AttackKind::BestResponse => "best_response",
            AttackKind::ZeroIntelligence => "zero_intelligence",
            AttackKind::BudgetHoard => "budget_hoard",
            AttackKind::DeadlineSnipe => "deadline_snipe",
            AttackKind::ShillPair => "shill_pair",
        }
    }

    /// The cohort's job requests, ascending by arrival, ids starting at
    /// [`AttackContext::job_id_base`], users at or above
    /// [`ADVERSARY_USER_BASE`]. Pure in `(ctx, rng)`.
    pub fn requests(&self, ctx: &AttackContext, rng: &mut Pcg32) -> Vec<JobRequest> {
        match self {
            AttackKind::Honest => honest_baseline(ctx),
            AttackKind::BestResponse => best_response_bidder(ctx),
            AttackKind::ZeroIntelligence => zero_intelligence(ctx, rng),
            AttackKind::BudgetHoard => budget_hoard(ctx),
            AttackKind::DeadlineSnipe => deadline_snipe(ctx),
            AttackKind::ShillPair => shill_pair(ctx),
        }
    }
}

/// A request template shared by the strategies: honest workload shape,
/// adversary identity `k`, everything else chosen by the caller.
fn request(ctx: &AttackContext, k: u32, arrival: SimTime, budget: f64, deadline_secs: f64, subjobs: u32) -> JobRequest {
    JobRequest {
        id: ctx.job_id_base + k,
        user: ctx.user(k),
        subjobs,
        work_per_subjob: ctx.work_per_subjob,
        arrival,
        budget,
        deadline_secs,
    }
}

/// Clamp `at` inside the run so a request is never stillborn.
fn within_horizon(ctx: &AttackContext, at: SimTime) -> SimTime {
    at.min(ctx.horizon)
}

/// A point inside the honest *busy* window: `frac` of the expected
/// honest batch makespan. Honest jobs arrive in the run's first minutes
/// and — on an uncontended testbed — finish far inside their deadline,
/// so striking at a fraction of the makespan (not the deadline)
/// guarantees the attack overlaps live honest demand instead of landing
/// on an empty market.
fn at_busy(ctx: &AttackContext, frac: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros((ctx.honest_makespan_secs * frac * 1e6) as u64)
}

/// Up to a minute of seeded jitter folded out of the cohort's arrival
/// schedule, so attack onsets vary across seeds without leaving the
/// honest window.
fn seeded_jitter(ctx: &AttackContext) -> SimDuration {
    let mix = ctx.arrivals.iter().fold(0u64, |acc, a| acc.wrapping_add(a.as_micros()));
    SimDuration::from_micros(mix % 60_000_000)
}

/// Work per sub-job sized so the request *occupies* the market for
/// `hold_secs` even at full allocation — the honest chunk scaled up to
/// the wall's length. A price wall is held by work, not money: a hot
/// bid attached to a short chunk finishes in minutes and the spike
/// collapses with it, however large the war chest behind it.
fn wall_work(ctx: &AttackContext, hold_secs: f64) -> f64 {
    let waves = (ctx.honest_users * ctx.subjobs).div_ceil(ctx.hosts.max(1)).max(1);
    let chunk_secs = (ctx.honest_makespan_secs / f64::from(waves)).max(1.0);
    ctx.work_per_subjob * (hold_secs / chunk_secs).max(1.0)
}

/// A [`request`] whose work is sized to hold the market for
/// `hold_secs` (see [`wall_work`]).
fn wall_request(
    ctx: &AttackContext,
    k: u32,
    arrival: SimTime,
    budget: f64,
    deadline_secs: f64,
    subjobs: u32,
    hold_secs: f64,
) -> JobRequest {
    JobRequest {
        work_per_subjob: wall_work(ctx, hold_secs),
        ..request(ctx, k, arrival, budget, deadline_secs, subjobs)
    }
}

/// Control group: one adversary per seeded arrival, funded and shaped
/// exactly like an honest user. Attack metrics are read *relative to
/// this cohort*, separating "more demand arrived" from "the demand was
/// hostile".
fn honest_baseline(ctx: &AttackContext) -> Vec<JobRequest> {
    ctx.arrivals
        .iter()
        .enumerate()
        .map(|(k, &at)| {
            request(
                ctx,
                k as u32,
                within_horizon(ctx, at),
                ctx.honest_funding,
                ctx.honest_deadline_secs,
                ctx.subjobs,
            )
        })
        .collect()
}

/// The strategic bidder of Feldman–Lai–Zhang, armed with full knowledge:
/// it models every honest user's steady-state bid rate, runs the *same*
/// [`best_response`](fn@best_response) optimizer the honest agents use, and then sizes a
/// concentrated war chest (`aggression × honest_funding` per arrival)
/// over a deadline just long enough to dominate the optimizer's chosen
/// support. The implied bid rate — budget over deadline — lands far above
/// the honest trading range.
fn best_response_bidder(ctx: &AttackContext) -> Vec<JobRequest> {
    // The honest population's aggregate bid rate, spread evenly over
    // the hosts — the `q_j` the attacker best-responds to.
    let honest_rate = ctx.honest_pool() / ctx.honest_deadline_secs.max(1.0);
    let per_host = honest_rate / f64::from(ctx.hosts.max(1)) + 1e-5;
    let quotes: Vec<HostQuote> = (0..ctx.hosts)
        .map(|h| HostQuote {
            host: HostId(h),
            weight: 1.0,
            others_rate: per_host,
        })
        .collect();
    // Attack rate: enough to claim ~aggression× the honest share.
    let rate = honest_rate * ctx.aggression.max(1.0);
    let bids = best_response(&quotes, rate, ctx.hosts as usize);
    let support = bids.len().max(1) as f64;
    // War chest sized so budget/deadline reproduces the optimizer's
    // total rate over the honest deadline, scaled up when the
    // optimizer concentrates on a narrow support.
    let concentration = (f64::from(ctx.hosts.max(1)) / support).max(1.0);
    let budget = rate * ctx.honest_deadline_secs * concentration;
    let deadline = (budget / (rate * concentration).max(1e-9)).clamp(60.0, ctx.honest_deadline_secs);
    // One bidder per seeded arrival, entering early in the honest
    // busy window so the whole honest population pays the inflated
    // price.
    let jitter = seeded_jitter(ctx);
    (0..ctx.arrivals.len())
        .map(|k| {
            let at = at_busy(ctx, 0.1 * (k + 1) as f64) + jitter;
            request(ctx, k as u32, within_horizon(ctx, at), budget, deadline, ctx.subjobs)
        })
        .collect()
}

/// Gode–Sunder zero-intelligence traders: each cohort member draws its
/// budget uniformly in `(0, 2·aggression·honest_funding]` and its
/// deadline uniformly in `[2 intervals, honest deadline]`, subject only
/// to the budget constraint — no strategy, pure noise traders. The
/// classic result is that market *structure* (here: proportional share
/// plus the guard layer) does the work the traders' rationality doesn't.
fn zero_intelligence(ctx: &AttackContext, rng: &mut Pcg32) -> Vec<JobRequest> {
    // Draw (onset, budget, deadline, shape) per trader, then sort by
    // onset so the stream is ascending regardless of the draws.
    let mut draws: Vec<(SimTime, f64, f64, u32)> = (0..ctx.arrivals.len())
        .map(|_| {
            let onset = at_busy(ctx, rng.next_f64_open() * 1.5);
            let budget = rng.next_f64_open() * 2.0 * ctx.aggression.max(1.0) * ctx.honest_funding;
            let deadline = rng.next_range_f64(20.0, ctx.honest_deadline_secs.max(40.0));
            let subjobs = 1 + rng.next_bounded(u64::from(ctx.subjobs.max(1)) * 2) as u32;
            (onset, budget, deadline, subjobs)
        })
        .collect();
    draws.sort_by_key(|d| d.0);
    draws
        .into_iter()
        .enumerate()
        .map(|(k, (at, budget, deadline, subjobs))| {
            request(ctx, k as u32, within_horizon(ctx, at), budget, deadline, subjobs)
        })
        .collect()
}

/// Budget hoarding: the cohort sits out the early market (keeping
/// demand — and prices — deceptively low), then the whole pack dumps
/// its pooled war chest at once, early enough in the honest window to
/// catch every honest job mid-flight and funded to hold the price wall
/// *past* the honest deadline.
///
/// The pack matters: a lone hot bidder is pinned to a small premium
/// over everyone else's rate by the job manager's own bid-shading, but
/// simultaneous hoarders escalate each other — each tick, each one's
/// ceiling is a multiple of the *others'* rate, which now includes its
/// co-attackers — until their bids hit the raw war-chest rate
/// (`aggression` credits/second each, far beyond the guard's per-bid
/// cap).
fn budget_hoard(ctx: &AttackContext) -> Vec<JobRequest> {
    // Strike a quarter of the way into the honest busy window — every
    // honest job is mid-flight — and hold the wall until 5% past the
    // honest *deadline*, so a stalled job cannot recover in time.
    let onset = at_busy(ctx, 0.25) + seeded_jitter(ctx);
    let duration = (ctx.honest_deadline_secs * 1.05 - onset.as_secs_f64()).max(600.0);
    let hoard = ctx.aggression.max(1.0) * duration;
    (0..ctx.arrivals.len().max(2))
        .map(|k| {
            wall_request(
                ctx,
                k as u32,
                within_horizon(ctx, onset),
                hoard,
                duration,
                ctx.subjobs,
                duration,
            )
        })
        .collect()
}

/// Deadline sniping: strike in the window just before the honest
/// deadline, when honest budgets are nearly drained and jobs that lose
/// their allocation cannot recover in time. One sniper per seeded
/// arrival, each with a concentrated budget and a deadline matching the
/// remaining window.
fn deadline_snipe(ctx: &AttackContext) -> Vec<JobRequest> {
    // Strike at 50% of the honest busy window — the point of maximum
    // sunk cost, where every honest job has paid for most of its
    // chunks but none has finished — with a short, violent wall:
    // maximum delay per credit spent. Snipers enter a minute apart so
    // they escalate each other (see [`budget_hoard`]) while the
    // window is still open.
    let strike = at_busy(ctx, 0.5) + seeded_jitter(ctx);
    let deadline = (ctx.honest_deadline_secs * 0.3).max(600.0);
    let budget = ctx.aggression.max(1.0) * deadline;
    (0..ctx.arrivals.len().max(2))
        .map(|k| {
            let at = strike + SimDuration::from_secs(60 * k as u64);
            wall_request(
                ctx,
                k as u32,
                within_horizon(ctx, at),
                budget,
                deadline,
                ctx.subjobs,
                deadline,
            )
        })
        .collect()
}

/// A colluding shill pair per seeded arrival: two shills bidding
/// concentrated budgets on worthless wall-length jobs — pure price
/// inflation that raises every rival's cost, with the pair escalating
/// each other past the lone-bidder premium ceiling (see
/// [`budget_hoard`]) — plus a *beneficiary* trailing a minute behind
/// with a patient, honest-looking job whose own deadline (relative to
/// its late arrival) closes *after* the wall does: honest jobs stall
/// and miss their deadlines, the beneficiary finishes in the post-wall
/// calm. The trio transfers surplus from the honest population to the
/// colluders while every member looks independently plausible.
fn shill_pair(ctx: &AttackContext) -> Vec<JobRequest> {
    let mut out = Vec::with_capacity(ctx.arrivals.len() * 3);
    let jitter = seeded_jitter(ctx);
    for pair in 0..ctx.arrivals.len() {
        let k = (pair * 3) as u32;
        // Pairs strike in sequence through the honest busy window,
        // starting at 20% of the expected makespan; the first pair's
        // wall stalls the honest batch, which keeps the window open
        // for the later pairs. Every wall holds past the honest
        // deadline.
        let at = within_horizon(ctx, at_busy(ctx, 0.2 + 0.35 * pair as f64) + jitter);
        let hold = (ctx.honest_deadline_secs * 1.05 - at.as_secs_f64()).max(600.0);
        let shill_budget = ctx.aggression.max(1.0) * hold;
        // The shills: hot and worthless — wall-length work spread
        // over as many hosts as an honest job uses, so the pair's
        // placements overlap and they escalate each other's premium
        // ceiling on the contested hosts. The work outlives its own
        // deadline, so a finished wall is still worth zero.
        out.push(wall_request(ctx, k, at, shill_budget, hold, ctx.subjobs, hold));
        out.push(wall_request(ctx, k + 1, at, shill_budget, hold, ctx.subjobs, hold));
        // The beneficiary: patient and cheap, arriving after the
        // shills' spike has shaken honest bidders loose, with a
        // deadline that closes 5% of the honest deadline *after*
        // the wall does — it stalls with everyone else, then
        // finishes alone in the post-wall calm.
        let later = within_horizon(ctx, at + SimDuration::from_secs(60));
        let bene_deadline =
            (ctx.honest_deadline_secs * 1.10 - later.as_secs_f64()).max(600.0);
        out.push(request(
            ctx,
            k + 2,
            later,
            ctx.honest_funding,
            bene_deadline,
            ctx.subjobs,
        ));
    }
    out
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
    use gm_des::{FaultGenConfig, FaultMix};

    fn ctx() -> AttackContext {
        AttackContext {
            hosts: 6,
            honest_users: 3,
            honest_funding: 80.0,
            honest_deadline_secs: 10_800.0,
            honest_makespan_secs: 1200.0,
            work_per_subjob: 10.0 * 60.0 * 2910.0,
            subjobs: 4,
            horizon: SimTime::from_secs(12 * 3600),
            arrivals: vec![SimTime::from_secs(600), SimTime::from_secs(2400)],
            job_id_base: 50,
            aggression: 8.0,
        }
    }

    #[test]
    fn honest_baseline_mirrors_the_honest_population() {
        let reqs = AttackKind::Honest.requests(&ctx(), &mut Pcg32::seed_from_u64(1));
        assert_eq!(reqs.len(), 2);
        for r in &reqs {
            assert_eq!(r.budget, 80.0);
            assert_eq!(r.deadline_secs, 10_800.0);
            assert_eq!(r.subjobs, 4);
        }
    }

    #[test]
    fn hostile_strategies_bid_far_hotter_than_honest_users() {
        // The guard's rate cap (1 credit/s) sits ~50× above the honest
        // implied rate; every hostile strategy must cross it while the
        // honest baseline stays far below.
        let ctx = ctx();
        let honest_rate = 80.0 / 10_800.0;
        let implied = |r: &JobRequest| r.budget / r.deadline_secs.max(1.0);
        let baseline = AttackKind::Honest.requests(&ctx, &mut Pcg32::seed_from_u64(1));
        assert!(implied(&baseline[0]) < 0.05, "honest implied rate must stay cold");
        // Hoarders and shills dump their chests over minutes: outright
        // rate-cap violations.
        for kind in [AttackKind::BudgetHoard, AttackKind::ShillPair] {
            let reqs = kind.requests(&ctx, &mut Pcg32::seed_from_u64(1));
            let hottest = reqs.iter().map(&implied).fold(0.0, f64::max);
            assert!(
                hottest > 100.0 * honest_rate,
                "{}: hottest implied rate {hottest} not an attack",
                kind.name()
            );
        }
        // The best-response bidder is the *rational* attacker: it outbids
        // the entire honest population in aggregate without tripping the
        // per-bid cap on its own.
        let rational = AttackKind::BestResponse.requests(&ctx, &mut Pcg32::seed_from_u64(1));
        let pool_rate = 3.0 * honest_rate;
        assert!(
            implied(&rational[0]) > 4.0 * pool_rate,
            "best_response must dominate the honest aggregate, got {}",
            implied(&rational[0])
        );
    }

    #[test]
    fn budget_hoarders_strike_as_a_simultaneous_pack() {
        let ctx = ctx();
        let reqs = AttackKind::BudgetHoard.requests(&ctx, &mut Pcg32::seed_from_u64(9));
        assert_eq!(reqs.len(), 2, "one hoarder per seeded arrival, minimum pack of two");
        let onset = reqs[0].arrival;
        // Strike lands inside the honest busy window (a quarter of the
        // expected makespan in, with at most a minute of seeded jitter).
        assert!(onset >= SimTime::from_secs(300) && onset <= SimTime::from_secs(300 + 60));
        for r in &reqs {
            assert_eq!(r.arrival, onset, "the pack strikes in lockstep");
            // The chest bids `aggression` credits/second and the wall
            // holds past the honest deadline.
            assert!((r.budget / r.deadline_secs - 8.0).abs() < 1e-9);
            assert!(onset.as_secs_f64() + r.deadline_secs > 10_800.0, "wall outlives the deadline");
            // Wall-length work: the hoard occupies the market for its
            // whole deadline even when it wins every node.
            assert!(r.work_per_subjob > 10.0 * ctx.work_per_subjob);
        }
    }

    #[test]
    fn sniper_strikes_inside_the_final_window() {
        let ctx = ctx();
        let reqs = AttackKind::DeadlineSnipe.requests(&ctx, &mut Pcg32::seed_from_u64(9));
        assert_eq!(reqs.len(), 2);
        // Half the expected honest makespan in: maximum sunk cost.
        let window_start = 1200.0 * 0.5;
        for (k, r) in reqs.iter().enumerate() {
            let at = r.arrival.as_secs_f64();
            assert!(at >= window_start && at < window_start + 120.0, "strike at {at}");
            assert_eq!(at, window_start + 60.0 * k as f64, "snipers a minute apart");
            assert!(r.deadline_secs <= 10_800.0 * 0.3 + 1e-9);
            assert!((r.budget / r.deadline_secs - 8.0).abs() < 1e-9, "snipers bid the full chest");
        }
    }

    #[test]
    fn shill_trios_interleave_hot_shills_with_patient_beneficiaries() {
        let ctx = ctx();
        let reqs = AttackKind::ShillPair.requests(&ctx, &mut Pcg32::seed_from_u64(9));
        assert_eq!(reqs.len(), 6, "two shills + one beneficiary per arrival");
        for trio in reqs.chunks(3) {
            let (a, b, partner) = (&trio[0], &trio[1], &trio[2]);
            assert_eq!(a.arrival, b.arrival, "shills escalate in lockstep");
            for shill in [a, b] {
                assert!(shill.budget / shill.deadline_secs > 1.0, "shill bids hot");
                assert!(
                    shill.work_per_subjob > 10.0 * partner.work_per_subjob,
                    "shill work must be wall-length"
                );
                assert_eq!(shill.subjobs, 4, "shills spread like an honest job");
            }
            assert!(partner.budget / partner.deadline_secs < 0.05, "partner stays cold");
            assert!(partner.arrival > a.arrival, "partner follows the spike");
            // The beneficiary's own deadline closes after the shills'
            // wall does — it finishes in the post-wall calm.
            assert!(
                partner.arrival.as_secs_f64() + partner.deadline_secs
                    > a.arrival.as_secs_f64() + a.deadline_secs
            );
        }
    }

    #[test]
    fn zero_intelligence_draws_are_budget_constrained() {
        let ctx = ctx();
        let reqs = AttackKind::ZeroIntelligence.requests(&ctx, &mut Pcg32::seed_from_u64(3));
        for r in &reqs {
            assert!(r.budget > 0.0 && r.budget <= 2.0 * 8.0 * 80.0);
            assert!(r.deadline_secs >= 20.0 && r.deadline_secs <= 10_800.0);
            assert!(r.subjobs >= 1 && r.subjobs <= 8);
        }
        // Different seeds draw different noise.
        let other = AttackKind::ZeroIntelligence.requests(&ctx, &mut Pcg32::seed_from_u64(4));
        assert_ne!(reqs, other);
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
            let mut r1 = Pcg32::seed_from_u64(7);
            let mut r2 = Pcg32::seed_from_u64(7);
            let a = kind.requests(&ctx, &mut r1);
            let b = kind.requests(&ctx, &mut r2);
            assert_eq!(a, b, "{} must be pure in (ctx, rng)", kind.name());
            assert!(!a.is_empty(), "{} produced no requests", kind.name());
            for (i, req) in a.iter().enumerate() {
                assert!(req.id >= ctx.job_id_base, "{}: id below base", kind.name());
                assert!(
                    req.user.0 >= ADVERSARY_USER_BASE,
                    "{}: honest user id {} in hostile stream",
                    kind.name(),
                    req.user.0
                );
                assert!(req.budget >= 0.0 && req.budget.is_finite());
                assert!(req.subjobs > 0 && req.work_per_subjob > 0.0);
                assert!(req.arrival <= ctx.horizon, "{}: arrival past horizon", kind.name());
                if i > 0 {
                    assert!(req.arrival >= a[i - 1].arrival, "{}: arrivals must ascend", kind.name());
                    assert!(req.id > a[i - 1].id, "{}: ids must ascend", kind.name());
                }
            }
        }
    }

    #[test]
    fn adversary_counters_register_only_when_constructed() {
        let registry = Registry::new();
        let before = gridmarket::telemetry::metrics_jsonl(&registry.snapshot());
        assert!(!before.contains("adversary."));
        let instruments = AdversaryInstruments::new(&registry);
        instruments.record_cohort(5, 2);
        let after = gridmarket::telemetry::metrics_jsonl(&registry.snapshot());
        assert!(after.contains("\"adversary.cohorts\""));
        assert!(after.contains("\"adversary.requests\""));
        assert!(after.contains("\"adversary.shill_pair_transfers\""));
    }
}
