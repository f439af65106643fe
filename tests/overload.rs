//! Overload & degraded-operation suite (`DESIGN.md` §12): the live
//! runtime under lossy links, bounded mailboxes and a mid-run bank
//! crash, and the DES market under scheduled link outages. Five angles:
//!
//! 1. A threaded soak: many clients hammer a lossy, small-mailbox,
//!    breaker-guarded bank while it is killed and recovered mid-run.
//!    Whatever the interleaving — sheds, open breakers, lost replies,
//!    duplicate deliveries — every `transfer_with_id` is applied at most
//!    once, every client-visible success really landed, the books
//!    balance, and the test terminates (no deadlock).
//! 2. Same-seed determinism: two runs of a link-outage chaos scenario on
//!    the DES path export byte-identical telemetry, and the degraded-mode
//!    price fallback visibly engages (`grid.degraded_quotes`,
//!    `grid.deferred_dispatches`).
//! 3. A property over random loss schedules via `gm_des::check`: drop /
//!    duplicate / reorder probabilities and queue bounds are drawn per
//!    case; duplicates and post-restart replays never double-apply, and
//!    the conservation auditor passes on the recovered bank.
//! 4. The replay-cache eviction contract: within the cache a duplicate
//!    transfer returns the original receipt; after eviction the durable
//!    applied-id set still refuses re-execution (`DuplicateRequest`), so
//!    eviction can cost a client its receipt but never double-moves money.
//! 5. The auctioneer endpoint under overload: a full mailbox sheds calls,
//!    the breaker then fast-fails them, and the control-class tick still
//!    sweeps every host.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use gm_ledger::SharedJournal;
use gm_telemetry::{ManualClock, Registry};
use gridmarket::des::check::{check, Gen};
use gridmarket::des::{FaultKind, FaultPlan, SimTime};
use gridmarket::scenario::{Scenario, ScenarioResult};
use gridmarket::tycoon::{
    BankError, BreakerConfig, ConservationAuditor, Credits, HostId, HostSpec, LiveMarket,
    NetConfig, NetInstruments, QueueConfig, ServiceError, UserId,
};

fn specs(n: u32) -> Vec<HostSpec> {
    (0..n).map(HostSpec::testbed).collect()
}

/// Outcome bookkeeping for one soak worker: ids the client saw succeed,
/// and ids whose outcome is unknown (timeout, disconnect, shed, breaker).
#[derive(Default)]
struct WorkerLog {
    confirmed: BTreeSet<u64>,
    unknown: BTreeSet<u64>,
}

#[test]
fn lossy_overloaded_soak_applies_each_transfer_at_most_once() {
    const WORKERS: u64 = 4;
    const PER_WORKER: u64 = 25;
    const MINT: i64 = 10_000;

    let journal = SharedJournal::new();
    let net = NetConfig::chaos(0.10, 0xC0FFEE, 4);
    let mut live = LiveMarket::spawn_with(b"soak", specs(2), net, Some(journal.clone()));

    let admin = live.bank();
    let key = gm_crypto::Keypair::from_seed(b"soak-user").public;
    let payer = admin.open_account(key, "payer").unwrap();
    let sink = admin.open_account(key, "sink").unwrap();
    admin.mint(payer, Credits::from_whole(MINT)).unwrap();

    // Hammer the bank from WORKERS threads; a short deadline keeps lost
    // replies cheap, bounded retries keep the test finite.
    let run_phase = |live: &LiveMarket, phase: u64| -> WorkerLog {
        let mut log = WorkerLog::default();
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let bank = live
                    .bank()
                    .with_deadline(Duration::from_millis(40), 4);
                std::thread::spawn(move || {
                    let mut confirmed = BTreeSet::new();
                    let mut unknown = BTreeSet::new();
                    for i in 0..PER_WORKER {
                        let id = phase * 100_000 + w * 1_000 + i + 1;
                        match bank.transfer_with_id(id, payer, sink, Credits::from_whole(1)) {
                            Ok(_) => {
                                confirmed.insert(id);
                            }
                            // Insufficient funds etc. cannot happen here;
                            // DuplicateRequest means an earlier attempt
                            // landed without its receipt.
                            Err(ServiceError::Rejected(BankError::DuplicateRequest(_))) => {
                                confirmed.insert(id);
                            }
                            Err(_) => {
                                unknown.insert(id);
                            }
                        }
                    }
                    (confirmed, unknown)
                })
            })
            .collect();
        for h in handles {
            let (c, u) = h.join().expect("soak worker must not panic");
            log.confirmed.extend(c);
            log.unknown.extend(u);
        }
        log
    };

    // Phase 1: overload the healthy-but-lossy bank. The allocation tick
    // runs concurrently over the same lossy links and must not wedge.
    let log1 = run_phase(&live, 1);
    let _ = live.tick(10.0);

    // Crash the bank mid-run and recover it from the journal.
    live.kill_bank();
    live.restart_bank(b"soak", &journal)
        .expect("bank recovers from its journal");

    // Phase 2: fresh clients against the recovered bank, plus a re-send
    // of every unknown-outcome id from phase 1 — each either lands now
    // (first application) or is refused as a durable duplicate.
    let log2 = run_phase(&live, 2);
    let retry = live.bank().with_deadline(Duration::from_millis(40), 8);
    let mut settled_unknown = BTreeSet::new();
    for &id in &log1.unknown {
        match retry.transfer_with_id(id, payer, sink, Credits::from_whole(1)) {
            Ok(_) | Err(ServiceError::Rejected(BankError::DuplicateRequest(_))) => {
                settled_unknown.insert(id);
            }
            Err(_) => {} // still lost to the link; the audit below decides
        }
    }

    let bank = live.shutdown();

    // Exactly-once: the durable applied set holds only ids we issued,
    // each at most once (BTreeSet), and every client-confirmed id is in
    // it. Ids the clients never got an answer for may or may not have
    // landed — but only ever once.
    let applied: BTreeSet<u64> = bank.applied_request_ids().into_iter().collect();
    let issued: BTreeSet<u64> = log1
        .confirmed
        .iter()
        .chain(&log1.unknown)
        .chain(&log2.confirmed)
        .chain(&log2.unknown)
        .copied()
        .collect();
    assert!(
        applied.is_subset(&issued),
        "bank applied a request id no client issued"
    );
    for id in log1.confirmed.iter().chain(&log2.confirmed).chain(&settled_unknown) {
        assert!(applied.contains(id), "confirmed id {id} missing from applied set");
    }

    // The books must reflect the applied set exactly: one credit moved
    // per applied id, nothing created or destroyed. (The mint itself is
    // not idempotent — a lost mint reply retried means the pot can exceed
    // MINT — so the ground truth is the bank's own minted total.)
    let moved = Credits::from_whole(applied.len() as i64);
    assert_eq!(bank.total_money(), bank.total_minted(), "conservation");
    assert_eq!(
        bank.balance(sink).unwrap(),
        moved,
        "sink holds one credit per applied transfer"
    );
    assert_eq!(
        bank.balance(payer).unwrap(),
        bank.total_minted() - moved,
        "payer paid one credit per applied transfer"
    );

    // And the recovered journal audits clean end to end.
    let audit = ConservationAuditor::default().audit(&bank, Some(&journal));
    assert!(audit.ok(), "soak audit failed: {audit:?}");
}

/// A Table-1-style scenario with a host crash inside a scheduled link
/// outage: quotes must be synthesized from last-known/predicted prices,
/// re-dispatch must defer until the links return, and the run must still
/// complete deterministically.
fn link_chaos(seed: u64) -> ScenarioResult {
    let mut plan = FaultPlan::new();
    plan.link_outage(SimTime::from_secs(20 * 60), SimTime::from_secs(70 * 60))
        .push(SimTime::from_secs(30 * 60), FaultKind::HostCrash { host: 0 })
        .push(SimTime::from_secs(90 * 60), FaultKind::HostRecover { host: 0 });
    Scenario::builder()
        .seed(seed)
        .hosts(4)
        .chunk_minutes(10.0)
        .deadline_minutes(240)
        .horizon_hours(12)
        .equal_users(3, 120.0)
        .faults(plan)
        .run()
        .expect("link chaos scenario runs")
}

#[test]
fn degraded_links_defer_dispatch_and_replay_byte_identically() {
    let r = link_chaos(2006);

    // The degraded path engaged: quote batches were synthesized from the
    // price predictor and at least one re-dispatch round was deferred
    // (the host crash happened mid-outage).
    assert!(r.telemetry_jsonl.contains("\"fault.link_down\""));
    assert!(r.telemetry_jsonl.contains("\"fault.link_up\""));
    assert!(
        r.metrics.counters["grid.degraded_quotes"] > 0,
        "no degraded quote batches: {:?}",
        r.metrics.counters
    );
    assert!(
        r.metrics.counters["grid.deferred_dispatches"] > 0,
        "host crash inside the outage must defer re-dispatch"
    );

    // Deferral reconciles on recovery: the run still finishes, honestly
    // and with the books intact.
    assert!(r.all_done(), "jobs must complete after the links return: {:?}", r.users);
    assert!(r.money_conserved());
    assert!(r.recovery_invariant_ok);

    // Same seed ⇒ byte-identical telemetry, degraded mode and all.
    let again = link_chaos(2006);
    assert_eq!(r.telemetry_jsonl, again.telemetry_jsonl);
}

#[test]
fn healthy_runs_export_no_degraded_instruments() {
    // The degraded counters register lazily: a run that never loses a
    // link exports exactly the metric set it did before this layer.
    let r = Scenario::builder()
        .seed(11)
        .hosts(3)
        .chunk_minutes(10.0)
        .deadline_minutes(120)
        .horizon_hours(6)
        .equal_users(2, 80.0)
        .run()
        .expect("healthy scenario runs");
    assert!(r.all_done());
    assert!(!r.metrics.counters.contains_key("grid.degraded_quotes"));
    assert!(!r.metrics.counters.contains_key("grid.deferred_dispatches"));
    assert!(!r.telemetry_jsonl.contains("net."));
}

#[test]
fn random_loss_schedules_apply_transfers_exactly_once() {
    check("overload_transfer", 6, |g: &mut Gen| {
        const IDS: u64 = 15;
        let p = g.usize_in(5, 25) as f64 / 100.0;
        let capacity = g.usize_in(2, 8);
        let net = NetConfig::chaos(p, g.u64(), capacity);

        // Setup calls must survive the lossy link too: retry until they
        // land (sleeping through any open-breaker cooldown). A mint retry
        // after a lost reply can double-mint — assertions below therefore
        // trust the bank's own minted total, not the nominal amount.
        fn eventually<T>(mut f: impl FnMut() -> Result<T, ServiceError>) -> T {
            for _ in 0..200 {
                match f() {
                    Ok(v) => return v,
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            panic!("setup call did not land in 200 attempts")
        }

        let journal = SharedJournal::new();
        let mut live = LiveMarket::spawn_with(b"prop", Vec::new(), net, Some(journal.clone()));
        let key = gm_crypto::Keypair::from_seed(b"prop-user").public;
        let bank = live.bank().with_deadline(Duration::from_millis(20), 3);
        let payer = eventually(|| bank.open_account(key, "payer"));
        let sink = eventually(|| bank.open_account(key, "sink"));
        eventually(|| bank.mint(payer, Credits::from_whole(1_000)));

        // First pass over the lossy link, then a full duplicate pass: the
        // replay cache (or the durable set) must absorb every re-send.
        for id in 1..=IDS {
            let _ = bank.transfer_with_id(id, payer, sink, Credits::from_whole(1));
        }
        for id in 1..=IDS {
            let _ = bank.transfer_with_id(id, payer, sink, Credits::from_whole(1));
        }

        // Crash, recover, and replay everything once more — now against
        // the durable applied set only (the outcome cache died).
        live.kill_bank();
        live.restart_bank(b"prop", &journal).expect("recovery");
        let fresh = live.bank().with_deadline(Duration::from_millis(20), 3);
        for id in 1..=IDS {
            let _ = fresh.transfer_with_id(id, payer, sink, Credits::from_whole(1));
        }

        let bank = live.shutdown();
        let applied: BTreeSet<u64> = bank.applied_request_ids().into_iter().collect();
        assert!(
            applied.iter().all(|id| (1..=IDS).contains(id)),
            "unknown id applied: {applied:?}"
        );
        let moved = Credits::from_whole(applied.len() as i64);
        assert_eq!(bank.balance(sink).unwrap(), moved, "sink vs applied set");
        assert_eq!(bank.balance(payer).unwrap(), bank.total_minted() - moved);
        assert_eq!(bank.total_money(), bank.total_minted(), "conservation");
        let audit = ConservationAuditor::default().audit(&bank, Some(&journal));
        assert!(audit.ok(), "audit failed: {audit:?}");
    });
}

#[test]
fn replay_cache_eviction_falls_back_to_durable_duplicate_rejection() {
    // Tiny volatile cache (2 outcomes) over a perfect link: a duplicate
    // inside the cache replays the original receipt byte-for-byte; a
    // duplicate after eviction is refused by the durable applied set —
    // the receipt is gone, but the money can never move twice.
    let net = NetConfig {
        replay_cache: 2,
        ..NetConfig::default()
    };
    let journal = SharedJournal::new();
    let live = LiveMarket::spawn_with(b"evict", Vec::new(), net, Some(journal));
    let key = gm_crypto::Keypair::from_seed(b"evict-user").public;
    let bank = live.bank();
    let payer = bank.open_account(key, "payer").unwrap();
    let sink = bank.open_account(key, "sink").unwrap();
    bank.mint(payer, Credits::from_whole(100)).unwrap();

    let first = bank
        .transfer_with_id(1, payer, sink, Credits::from_whole(10))
        .unwrap();

    // Still cached: the duplicate gets the original receipt.
    let replay = bank
        .transfer_with_id(1, payer, sink, Credits::from_whole(10))
        .unwrap();
    assert_eq!(first, replay);
    assert_eq!(bank.balance(payer).unwrap(), Credits::from_whole(90));

    // Evict id 1 from the 2-slot cache with two newer transfers.
    bank.transfer_with_id(2, payer, sink, Credits::from_whole(1)).unwrap();
    bank.transfer_with_id(3, payer, sink, Credits::from_whole(1)).unwrap();

    // Post-eviction duplicate: refused, not re-executed.
    match bank.transfer_with_id(1, payer, sink, Credits::from_whole(10)) {
        Err(ServiceError::Rejected(BankError::DuplicateRequest(1))) => {}
        other => panic!("evicted duplicate must be refused, got {other:?}"),
    }
    assert_eq!(
        bank.balance(payer).unwrap(),
        Credits::from_whole(88),
        "no double debit after eviction"
    );

    let bank = live.shutdown();
    assert_eq!(bank.total_money(), bank.total_minted());
}

#[test]
fn auctioneer_endpoint_sheds_then_breaks_but_the_tick_still_sweeps() {
    // A zero-capacity mailbox sheds every client request, so
    // each call fails `Overloaded` and feeds the endpoint's breaker; once
    // a full window has failed the breaker opens and calls fast-fail
    // without touching the mailbox (the manual clock never reaches the
    // cooldown). The allocation tick is control traffic: it bypasses
    // both, so every host is still swept and none is declared dead.
    let registry = Registry::new();
    let net = NetConfig {
        queue: QueueConfig::bounded(0),
        breaker: Some(BreakerConfig::default()),
        clock: Arc::new(ManualClock::new()),
        telemetry: Some(NetInstruments::new(&registry)),
        ..NetConfig::default()
    };
    let live = LiveMarket::spawn_with(b"auc-overload", specs(3), net, None);
    let auc = live
        .auctioneer(HostId(1))
        .unwrap()
        .with_deadline(Duration::from_millis(50), 0);
    for _ in 0..BreakerConfig::default().window {
        assert!(matches!(
            auc.place_bid(UserId(1), 0.1, Credits::from_whole(1)),
            Err(ServiceError::Overloaded { .. })
        ));
    }
    assert_eq!(
        auc.place_bid(UserId(1), 0.1, Credits::from_whole(1)),
        Err(ServiceError::CircuitOpen)
    );
    assert_eq!(auc.earned(), Err(ServiceError::CircuitOpen));

    let swept: Vec<HostId> = live.tick(10.0).into_iter().map(|(h, _)| h).collect();
    assert_eq!(swept, vec![HostId(0), HostId(1), HostId(2)]);
    assert!(live.dead_hosts().is_empty());

    let gauges: Vec<String> = registry.snapshot().gauges.into_keys().collect();
    assert_eq!(
        gauges,
        [
            "net.queue_depth.bank",
            "net.queue_depth.host000",
            "net.queue_depth.host001",
            "net.queue_depth.host002",
        ]
    );
    live.shutdown();
}
