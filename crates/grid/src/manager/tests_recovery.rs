//! Fault-recovery tests: host crashes, VM failures, bank outages, and the
//! stall/revive path when the whole cluster disappears.

use gm_des::{SimDuration, SimTime};
use gm_tycoon::{Credits, HostId};

use super::testutil::{make_spec, run_until_settled, world};
use super::{GridError, JobPhase};
use crate::token::TransferToken;

#[test]
fn host_crash_requeues_and_completes_on_survivors() {
    let mut w = world(4, 10_000);
    let spec = make_spec(&mut w, 2_000, 8, 600);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    let minted = w.market.bank().total_money();

    // Run five minutes, then crash host 0 for good.
    let mut now = SimTime::ZERO;
    let dt = SimDuration::from_secs(10);
    for _ in 0..30 {
        w.jm.step(&mut w.market, now);
        now += dt;
    }
    let report = w.market.crash_host(HostId(0)).unwrap();
    let interrupted = w.jm.handle_host_crash(HostId(0), now);
    assert!(!report.evicted.is_empty(), "a bid was live on host 0");
    assert_eq!(interrupted, 1, "one sub-job was computing on host 0");

    while now < SimTime::ZERO + SimDuration::from_hours(12) {
        w.jm.step(&mut w.market, now);
        now += dt;
        if w.jm.all_settled() {
            break;
        }
    }
    let job = w.jm.job(id).unwrap();
    assert_eq!(job.phase, JobPhase::Done);
    for sj in &job.subjobs {
        assert!(sj.finished_at.is_some());
        // Every interruption was re-dispatched exactly once and the
        // sub-job completed on its final dispatch.
        assert_eq!(sj.dispatches, sj.requeues + 1, "subjob {}", sj.index);
        if sj.requeues > 0 {
            assert_ne!(sj.host, Some(HostId(0)), "re-dispatched onto a survivor");
        }
    }
    let fc = w.jm.fault_counters();
    assert_eq!(fc.host_crashes, 1);
    assert_eq!(fc.subjobs_interrupted, 1);
    assert_eq!(fc.redispatched, 1);
    // Crash refunds + completion refund: not a credit lost or minted.
    assert_eq!(w.market.bank().total_money(), minted);
    assert_eq!(
        w.market.bank().balance(job.sub_account).unwrap(),
        Credits::ZERO
    );
}

#[test]
fn vm_failure_restarts_subjob_in_place() {
    let mut w = world(2, 10_000);
    let spec = make_spec(&mut w, 1_000, 2, 600);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    let minted = w.market.bank().total_money();

    let mut now = SimTime::ZERO;
    let dt = SimDuration::from_secs(10);
    for _ in 0..30 {
        w.jm.step(&mut w.market, now);
        now += dt;
    }
    let user = w.jm.job(id).unwrap().user;
    assert!(w.jm.handle_vm_failure(HostId(0), user, now));

    while now < SimTime::ZERO + SimDuration::from_hours(12) {
        w.jm.step(&mut w.market, now);
        now += dt;
        if w.jm.all_settled() {
            break;
        }
    }
    let job = w.jm.job(id).unwrap();
    assert_eq!(job.phase, JobPhase::Done);
    let restarted: Vec<_> = job.subjobs.iter().filter(|s| s.requeues > 0).collect();
    assert_eq!(restarted.len(), 1);
    assert_eq!(restarted[0].dispatches, 2);
    // The bid survived the VM failure, so the restart stayed local.
    assert_eq!(restarted[0].host, Some(HostId(0)));
    let fc = w.jm.fault_counters();
    assert_eq!(fc.vm_failures, 1);
    assert_eq!(fc.host_crashes, 0);
    assert_eq!(w.market.bank().total_money(), minted);
}

#[test]
fn bank_outage_defers_completion_without_losing_refunds() {
    let mut w = world(2, 1_000);
    let spec = make_spec(&mut w, 500, 1, 60);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();

    // Take the bank down mid-run; the job computes and stages out but
    // cannot settle (escrow cancel + refund need the bank).
    let mut now = SimTime::ZERO;
    let dt = SimDuration::from_secs(10);
    for k in 0.. {
        if k == 30 {
            w.market.set_bank_online(false);
        }
        w.jm.step(&mut w.market, now);
        now += dt;
        if w.jm.all_settled() || k > 720 {
            break;
        }
    }
    assert_eq!(w.jm.job(id).unwrap().phase, JobPhase::Running);

    // Bank comes back: bids are re-funded, compute resumes, the job
    // settles.
    w.market.set_bank_online(true);
    for _ in 0..720 {
        w.jm.step(&mut w.market, now);
        now += dt;
        if w.jm.all_settled() {
            break;
        }
    }
    let job = w.jm.job(id).unwrap();
    assert_eq!(job.phase, JobPhase::Done);
    let balance = w.market.bank().balance(w.user_acct).unwrap();
    assert_eq!(balance, Credits::from_whole(1000) - job.charged);
    assert_eq!(w.market.bank().total_money(), Credits::from_whole(1000));
}

#[test]
fn all_hosts_down_stalls_after_retry_budget_then_recovery_revives() {
    let mut w = world(2, 10_000);
    let spec = make_spec(&mut w, 1_000, 2, 6_000);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    let minted = w.market.bank().total_money();

    let mut now = SimTime::ZERO;
    let dt = SimDuration::from_secs(10);
    for _ in 0..12 {
        w.jm.step(&mut w.market, now);
        now += dt;
    }
    // Lose the whole cluster.
    for h in [HostId(0), HostId(1)] {
        w.market.crash_host(h).unwrap();
        w.jm.handle_host_crash(h, now);
    }
    // With nothing to run on, the retry budget (~30 min of backoff)
    // eventually stalls the job.
    for _ in 0..360 {
        w.jm.step(&mut w.market, now);
        now += dt;
        if w.jm.all_settled() {
            break;
        }
    }
    assert_eq!(w.jm.job(id).unwrap().phase, JobPhase::Stalled);
    assert!(w.jm.fault_counters().jobs_stalled_by_faults >= 1);
    // All escrow was refunded at crash time: conservation holds and
    // the sub-account still owns its unspent budget.
    assert_eq!(w.market.bank().total_money(), minted);

    // Hosts come back; a boost revives and the job completes.
    for h in [HostId(0), HostId(1)] {
        w.market.recover_host(h).unwrap();
    }
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_whole(100))
        .unwrap();
    let boost_token = TransferToken::create(&w.user, receipt, w.user.dn());
    w.jm.boost(&mut w.market, id, &boost_token).unwrap();
    while now < SimTime::ZERO + SimDuration::from_hours(24) {
        w.jm.step(&mut w.market, now);
        now += dt;
        if w.jm.all_settled() {
            break;
        }
    }
    let job = w.jm.job(id).unwrap();
    assert_eq!(job.phase, JobPhase::Done);
    for sj in &job.subjobs {
        assert_eq!(sj.dispatches, sj.requeues + 1, "subjob {}", sj.index);
    }
    assert_eq!(w.market.bank().total_money(), minted);
}

// ---------------------------------------------------------------- PR 4:
// durable spent-token set across a bank restart, and xRSL token
// extraction hardening.

#[test]
fn spent_token_rejected_after_bank_restart_counter_incremented_once() {
    use gm_ledger::SharedJournal;

    let mut w = world(2, 10_000);
    w.market.attach_ledger(SharedJournal::new());

    // Mint a token and submit a job with it: the spend is journaled.
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_whole(500))
        .unwrap();
    let token = TransferToken::create(&w.user, receipt, w.user.dn());
    let text = format!(
        "&(executable=\"blast.sh\")(jobName=\"t\")(count=2)(cpuTime=\"600\")(runTimeEnvironment=\"BLAST\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let spec =
        crate::JobSpec::parse(&text, super::testutil::CHUNK_MHZ_SECS).unwrap();
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    assert!(w.market.bank().is_token_spent(token.transfer_id()));

    // A boost token is journaled the same way.
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_whole(100))
        .unwrap();
    let boost_token = TransferToken::create(&w.user, receipt, w.user.dn());
    w.jm.boost(&mut w.market, id, &boost_token).unwrap();

    // Crash the bank and recover it from the ledger: the spent set is
    // rebuilt from the journal, and the manager checks only that set.
    let report = w.market.restart_bank().unwrap();
    assert!(report.records_replayed > 0 || report.snapshot_restored);

    // Replaying the same token after recovery is a double-spend.
    let before = w.jm.telemetry.token_double_spends.get();
    let err = w
        .jm
        .submit(&mut w.market, SimTime::ZERO, &spec)
        .unwrap_err();
    assert!(
        matches!(err, GridError::Token(crate::token::TokenError::AlreadySpent(id)) if id == token.transfer_id()),
        "expected AlreadySpent, got {err:?}"
    );
    assert_eq!(
        w.jm.telemetry.token_double_spends.get(),
        before + 1,
        "double-spend counter must increment exactly once"
    );
    let err = w
        .jm
        .boost(&mut w.market, id, &boost_token)
        .unwrap_err();
    assert!(
        matches!(err, GridError::Token(crate::token::TokenError::AlreadySpent(_))),
        "a boost token must stay spent across a restart, got {err:?}"
    );
}

#[test]
fn malformed_transfer_tokens_in_xrsl_never_panic() {
    use gm_des::check::{check, Gen};
    use gm_des::Rng64;

    check("xrsl_token_extraction_hardening", 128, |g: &mut Gen| {
        // Garbage hex-ish payloads: random bytes hex-encoded, randomly
        // truncated to odd/even lengths, or plain alphanumeric noise.
        let garbage = if g.bool() {
            let bytes = g.bytes(0, 200);
            let mut h: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            h.truncate(g.usize_in(0, h.len().max(1)));
            h
        } else {
            let len = g.usize_in(0, 64);
            (0..len)
                .map(|_| {
                    let c = g.rng().next_bounded(36) as u8;
                    if c < 10 { (b'0' + c) as char } else { (b'a' + c - 10) as char }
                })
                .collect()
        };
        let text = format!(
            "&(executable=\"a.sh\")(jobName=\"t\")(count=1)(cpuTime=\"600\")(runTimeEnvironment=\"BLAST\")(transferToken=\"{garbage}\")"
        );
        // The spec itself parses; token extraction must fail cleanly.
        let spec = crate::JobSpec::parse(&text, super::testutil::CHUNK_MHZ_SECS)
            .expect("well-formed xRSL apart from the token");
        let mut w = world(1, 1_000);
        let err = w
            .jm
            .submit(&mut w.market, SimTime::ZERO, &spec)
            .unwrap_err();
        assert!(
            matches!(err, GridError::BadDescription(_)),
            "malformed token must be BadDescription, got {err:?}"
        );
    });
}

#[test]
fn a_probated_host_keeps_a_settled_manager_from_being_quiet() {
    let mut w = world(2, 1_000);
    let spec = make_spec(&mut w, 200, 2, 600);
    w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    assert!(!w.jm.is_quiet(), "a running job is work");
    run_until_settled(&mut w, 4);
    assert!(w.jm.is_quiet());

    // A host on probation still ages its probation clock every tick.
    let cfg = w.jm.config.health;
    let mut hs = gm_tycoon::HealthScore::new();
    while !hs.on_probation() {
        hs.observe(0.0, 1.0, &cfg);
    }
    w.jm.health.insert(HostId(0), hs);
    let mut now = SimTime::ZERO;
    let mut ticks = 0;
    while !w.jm.is_quiet() {
        w.jm.pre_tick(&mut w.market, now);
        now += SimDuration::from_secs(10);
        ticks += 1;
    }
    assert_eq!(ticks, cfg.probe_after, "quiet once the probation TTL released the host");
    assert!(!w.jm.host_on_probation(HostId(0)));
}
