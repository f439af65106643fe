//! Adversarial economy suite (DESIGN.md §16): the market's books under
//! strategic attack. Two angles:
//!
//! 1. A property over *random* attack worlds — every attack-library
//!    bidder strategy, guard on and off, random chaos schedules, and a
//!    bank kill/recover (`BankRestart`) forced into the middle of the
//!    attack window — whatever the cohort does, the conservation
//!    residual is exactly zero: Σbalances == minted as fixed-point
//!    `Credits`, not approximately. Failing cases print the replay seed
//!    via `gm_des::check`.
//! 2. The false-positive gate: on the honest chaos workload the guard's
//!    thresholds are never reached — no strikes, no quarantines, and the
//!    lazy `market.guard.*` counters never even register, so honest
//!    telemetry exports stay byte-identical to a guard-less build.

use gm_experiments::adversary::{AttackContext, AttackKind};
use gm_experiments::ext_attack::{attack_cfg, hostile_stream};
use gm_experiments::mc::{chaos_driver, job_stream};
use gridmarket::des::check::{check, Gen};
use gridmarket::des::{FaultKind, FaultPlan, SimDuration, SimTime};
use gridmarket::grid::AgentConfig;
use gridmarket::sched::RunResult;
use gridmarket::telemetry::{metrics_jsonl, ManualClock, Registry};
use gridmarket::tycoon::GuardConfig;
use gridmarket::{tycoon_policy, ChaosConfig, TycoonPolicy};

/// Drive the tycoon market (with `guard`) through the attack matrix's
/// honest stream plus one hostile cohort (two seeded arrivals at 8x
/// aggression) under `plan`, returning the policy for inspection.
fn attacked_run(
    kind: AttackKind,
    guard: GuardConfig,
    seed: u64,
    cfg: &ChaosConfig,
    plan: FaultPlan,
    registry: &Registry,
) -> (TycoonPolicy, RunResult) {
    let mut driver = chaos_driver(seed, cfg).faults(plan).with_registry(registry);
    let clock = ManualClock::new();
    let mut policy = tycoon_policy(seed, driver.host_specs(), AgentConfig::default(), None, |market| {
        market.set_guard(guard);
        market.attach_telemetry(registry, std::sync::Arc::new(clock.clone()));
        // A durable WAL so `BankRestart` faults do a real kill + journal
        // recovery instead of degrading to a bank-restore.
        market.attach_ledger(gm_ledger::SharedJournal::default());
    })
    .with_clock(clock);

    let mut jobs = job_stream(cfg);
    jobs.extend(hostile_stream(kind, seed, cfg));
    let r = driver.run(&mut policy, &jobs).expect("valid attack job stream");
    (policy, r)
}

#[test]
fn every_attack_strategy_conserves_money_even_through_a_mid_attack_bank_restart() {
    check("adversary_conservation", 4, |g: &mut Gen| {
        let seed = g.u64();
        let cfg = attack_cfg();
        // Guard on and off alternate across cases: conservation is a
        // *market* invariant, not something the defenses provide.
        let guard = if g.bool() {
            GuardConfig::default()
        } else {
            GuardConfig::disabled()
        };
        for kind in AttackKind::ALL {
            // The seed's own chaos schedule, plus a bank kill/recover
            // forced into the attack window itself: the first cohort
            // arrival is at most ~25 min in, and walls persist for the
            // honest busy window, so a restart inside [arrival, +20 min)
            // lands while hostile escrow is live.
            let mut plan = FaultPlan::generate(seed, cfg.fault_gen());
            let strike = AttackContext::arrivals_from(&plan)
                .first()
                .copied()
                .unwrap_or(SimTime::from_secs(600));
            let offset = SimDuration::from_secs(g.usize_in(60, 1200) as u64);
            plan.push(strike + offset, FaultKind::BankRestart);

            let registry = Registry::new();
            let (policy, _) = attacked_run(kind, guard, seed, &cfg, plan, &registry);
            let bank = policy.market().bank();
            assert_eq!(
                bank.total_money(),
                bank.total_minted(),
                "conservation residual must be exactly zero under {} \
                 (seed {seed:#x}): held {} vs minted {}",
                kind.name(),
                bank.total_money(),
                bank.total_minted()
            );
            let audit = policy.market().audit_ledger();
            assert!(
                audit.ok(),
                "ledger audit failed under {} (seed {seed:#x}): {audit:?}",
                kind.name()
            );
            // The restart really happened mid-run: the bank was rebuilt
            // from its WAL at least once, and the rebuilt books audited
            // clean.
            let snap = registry.snapshot();
            assert!(
                snap.counters.get("ledger.recoveries").copied().unwrap_or(0) >= 1,
                "bank restart must recover the ledger under {}",
                kind.name()
            );
            assert_eq!(
                snap.counters.get("ledger.audit_failures").copied().unwrap_or(0),
                0,
                "no audit may fail under {}",
                kind.name()
            );
        }
    });
}

#[test]
fn quarantine_refunds_balance_the_books_under_the_heaviest_attacks() {
    // The defended market under the two wall-building strategies: the
    // guard quarantines mid-escrow and refunds live bids — the exact
    // path where a careless defense would mint or burn money.
    for (i, kind) in [AttackKind::BudgetHoard, AttackKind::ShillPair].into_iter().enumerate() {
        let seed = 0xDEFE_57ED + i as u64;
        let cfg = attack_cfg();
        let plan = FaultPlan::generate(seed, cfg.fault_gen());
        let registry = Registry::new();
        let (policy, _) = attacked_run(kind, GuardConfig::default(), seed, &cfg, plan, &registry);
        let quarantined = policy.market().guard().quarantined_accounts();
        assert!(
            !quarantined.is_empty(),
            "{} must trip the guard at aggression 8x",
            kind.name()
        );
        let bank = policy.market().bank();
        assert_eq!(bank.total_money(), bank.total_minted(), "refunds must conserve");
        let jsonl = metrics_jsonl(&registry.snapshot());
        assert!(jsonl.contains("\"market.guard.quarantines\""));
        assert!(jsonl.contains("\"market.guard.refunded_bids\""));
    }
}

#[test]
fn defenses_never_fire_on_the_honest_chaos_workload() {
    // False-positive gate: honest users plus an *honest-baseline* cohort
    // (peer-funded, compliant rates) through the defended market, under
    // the full chaos schedule. No strikes, no quarantines — and because
    // the guard instruments are lazy, the honest telemetry export never
    // carries a `market.guard.*` name at all.
    for seed in [11u64, 2006, 0xA77AC] {
        let cfg = attack_cfg();
        let plan = FaultPlan::generate(seed, cfg.fault_gen());
        let registry = Registry::new();
        let (policy, r) =
            attacked_run(AttackKind::Honest, GuardConfig::default(), seed, &cfg, plan, &registry);
        assert!(
            policy.market().guard().quarantined_accounts().is_empty(),
            "honest workload quarantined an account (seed {seed:#x})"
        );
        let jsonl = metrics_jsonl(&registry.snapshot());
        assert!(
            !jsonl.contains("market.guard"),
            "guard counters registered on an honest run (seed {seed:#x})"
        );
        let bank = policy.market().bank();
        assert_eq!(bank.total_money(), bank.total_minted());
        // Sanity: the run actually did work under chaos.
        assert!(!r.outcomes.is_empty());
    }
}
