//! Lifecycle tests: submission, funding, refunds, staging, services,
//! cancellation, contention.

use std::collections::BTreeMap;

use gm_des::{SimDuration, SimTime};
use gm_tycoon::{BidHandle, Credits, HostId};

use super::funding::{HIGH, LOW};
use super::testutil::{make_spec, run_until_settled, world, World, CHUNK_MHZ_SECS};
use super::{GridError, JobId, JobKind, JobPhase, JobSpec};
use crate::identity::GridIdentity;
use crate::token::{TokenError, TransferToken};

#[test]
fn submit_runs_and_completes_single_subjob() {
    let mut w = world(4, 1000);
    let spec = make_spec(&mut w, 100, 1, 60);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    run_until_settled(&mut w, 4);
    let job = w.jm.job(id).unwrap();
    assert_eq!(job.phase, JobPhase::Done);
    assert_eq!(job.completed_subjobs(), 1);
    // 10 min of work plus VM (90s) and staging (45s) overheads.
    let mk = job.makespan(SimTime::ZERO).as_minutes_f64();
    assert!(mk > 10.0 && mk < 20.0, "makespan {mk} min");
    assert!(job.charged.is_positive());
}

#[test]
fn refund_returns_unspent_funds() {
    let mut w = world(4, 1000);
    let spec = make_spec(&mut w, 500, 1, 60);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    run_until_settled(&mut w, 4);
    let job = w.jm.job(id).unwrap();
    let user_balance = w.market.bank().balance(w.user_acct).unwrap();
    // endowment 1000 − 500 paid + refund (500 − charged)
    let expected = Credits::from_whole(1000) - job.charged;
    assert_eq!(user_balance, expected);
    // Sub-account is empty after refund.
    assert_eq!(
        w.market.bank().balance(job.sub_account).unwrap(),
        Credits::ZERO
    );
    // Money is conserved globally.
    assert_eq!(w.market.bank().total_money(), Credits::from_whole(1000));
}

#[test]
fn multi_subjob_job_uses_multiple_hosts() {
    let mut w = world(8, 1000);
    let spec = make_spec(&mut w, 200, 6, 120);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    run_until_settled(&mut w, 6);
    let job = w.jm.job(id).unwrap();
    assert_eq!(job.phase, JobPhase::Done);
    assert_eq!(job.completed_subjobs(), 6);
    assert!(job.max_nodes() >= 2, "nodes {}", job.max_nodes());
    assert!(job.max_nodes() <= 6);
}

#[test]
fn count_capped_by_max_nodes() {
    let mut w = world(30, 10_000);
    let spec = make_spec(&mut w, 2000, 40, 600);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    // Step a little, then inspect concurrency.
    for k in 0..30u64 {
        w.jm.step(&mut w.market, SimTime::from_secs(10 * k));
    }
    let job = w.jm.job(id).unwrap();
    assert!(job.max_nodes() <= 15, "cap violated: {}", job.max_nodes());
}

#[test]
fn service_job_runs_to_contract_end_with_qos() {
    let mut w = world(2, 1000);
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_whole(300))
        .unwrap();
    let token = TransferToken::create(&w.user, receipt, w.user.dn());
    // 20-minute service contract, 2 instances, 2000 MHz floor.
    let text = format!(
        "&(executable=\"httpd\")(jobType=\"service\")(serviceMinMhz=\"2000\")(count=2)(cpuTime=\"20\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let spec = JobSpec::parse(&text, 1.0).unwrap();
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    run_until_settled(&mut w, 2);
    let job = w.jm.job(id).unwrap();
    assert_eq!(job.phase, JobPhase::Done);
    assert!(matches!(job.kind, JobKind::Service { .. }));
    // Contract ends at the 20-minute deadline (give or take staging).
    let mk = job.makespan(SimTime::ZERO).as_minutes_f64();
    assert!((mk - 20.0).abs() < 1.5, "service makespan {mk} min");
    // Alone on the cluster: QoS should be essentially perfect.
    let qos = job.service_qos().expect("service QoS");
    assert!(qos > 0.95, "lone service QoS {qos}");
}

#[test]
fn service_qos_degrades_under_contention() {
    // One host; the service wants a full vCPU (2910 MHz floor) but a
    // heavily funded batch job moves in and takes shares.
    let mut w = world(1, 100_000);
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_whole(10))
        .unwrap();
    let token = TransferToken::create(&w.user, receipt, w.user.dn());
    let text = format!(
        "&(executable=\"httpd\")(jobType=\"service\")(serviceMinMhz=\"2900\")(count=2)(cpuTime=\"30\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let spec = JobSpec::parse(&text, 1.0).unwrap();
    let service = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();

    // Competing batch users with far more money (distinct DNs).
    for k in 0..2 {
        let rival = GridIdentity::swegrid_user(50 + k);
        let racct = w
            .market
            .bank_mut()
            .open_account(rival.public_key(), "rival");
        w.market
            .bank_mut()
            .mint(racct, Credits::from_whole(100_000))
            .unwrap();
        let receipt = w
            .market
            .bank_mut()
            .transfer(racct, w.jm.broker_account(), Credits::from_whole(10_000))
            .unwrap();
        let rtoken = TransferToken::create(&rival, receipt, rival.dn());
        let rtext = format!(
            "&(executable=\"x\")(count=2)(cpuTime=\"30\")(transferToken=\"{}\")",
            rtoken.to_hex()
        );
        let rspec = JobSpec::parse(&rtext, 2910.0 * 1800.0).unwrap();
        w.jm.submit(&mut w.market, SimTime::ZERO, &rspec).unwrap();
    }
    run_until_settled(&mut w, 2);
    let job = w.jm.job(service).unwrap();
    let qos = job.service_qos().expect("qos measured");
    assert!(
        qos < 0.9,
        "heavily outbid service should miss its floor sometimes: {qos}"
    );
}

#[test]
fn unknown_job_type_rejected() {
    let mut w = world(1, 100);
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_whole(10))
        .unwrap();
    let token = TransferToken::create(&w.user, receipt, w.user.dn());
    let text = format!(
        "&(executable=\"x\")(jobType=\"interactive\")(count=1)(cpuTime=\"10\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let spec = JobSpec::parse(&text, 100.0).unwrap();
    let err = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap_err();
    assert!(matches!(err, GridError::BadDescription(_)));
}

#[test]
fn double_spend_token_rejected() {
    let mut w = world(2, 1000);
    let spec = make_spec(&mut w, 100, 1, 60);
    w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    let err = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap_err();
    assert!(matches!(err, GridError::Token(TokenError::AlreadySpent(_))));
}

#[test]
fn missing_token_rejected() {
    let mut w = world(2, 1000);
    let spec = JobSpec::parse("&(executable=\"x\")(count=1)(cpuTime=\"60\")", 1000.0).unwrap();
    let err = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap_err();
    assert!(matches!(err, GridError::BadDescription(_)));
}

#[test]
fn underfunded_job_stalls() {
    let mut w = world(2, 1000);
    // Tiny budget, long chunk: funds exhaust well before completion.
    let receipt = w
        .market
        .bank_mut()
        .transfer(
            w.user_acct,
            w.jm.broker_account(),
            Credits::from_f64(0.000_2),
        )
        .unwrap();
    let token = TransferToken::create(&w.user, receipt, w.user.dn());
    let text = format!(
        "&(executable=\"x\")(count=1)(cpuTime=\"1\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let spec = JobSpec::parse(&text, 2910.0 * 36_000.0).unwrap();
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    run_until_settled(&mut w, 2);
    assert_eq!(w.jm.job(id).unwrap().phase, JobPhase::Stalled);
}

#[test]
fn boost_revives_a_stalled_job() {
    let mut w = world(2, 1000);
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_f64(0.001))
        .unwrap();
    let token = TransferToken::create(&w.user, receipt, w.user.dn());
    let text = format!(
        "&(executable=\"x\")(count=1)(cpuTime=\"30\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let spec = JobSpec::parse(&text, CHUNK_MHZ_SECS).unwrap();
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    let t = run_until_settled(&mut w, 1);
    assert_eq!(w.jm.job(id).unwrap().phase, JobPhase::Stalled);

    // Boost with real money.
    let receipt = w
        .market
        .bank_mut()
        .transfer(w.user_acct, w.jm.broker_account(), Credits::from_whole(100))
        .unwrap();
    let boost_token = TransferToken::create(&w.user, receipt, w.user.dn());
    w.jm.boost(&mut w.market, id, &boost_token).unwrap();
    assert_eq!(w.jm.job(id).unwrap().phase, JobPhase::Running);

    let mut now = t;
    for _ in 0..2000 {
        w.jm.step(&mut w.market, now);
        now += SimDuration::from_secs(10);
        if w.jm.all_settled() {
            break;
        }
    }
    assert_eq!(w.jm.job(id).unwrap().phase, JobPhase::Done);
}

#[test]
fn two_competing_jobs_share_hosts() {
    let mut w = world(2, 10_000);
    let user2 = GridIdentity::swegrid_user(2);
    let acct2 = w.market.bank_mut().open_account(user2.public_key(), "user2");
    w.market
        .bank_mut()
        .mint(acct2, Credits::from_whole(1000))
        .unwrap();

    let spec1 = make_spec(&mut w, 300, 2, 120);
    let receipt2 = w
        .market
        .bank_mut()
        .transfer(acct2, w.jm.broker_account(), Credits::from_whole(300))
        .unwrap();
    let token2 = TransferToken::create(&user2, receipt2, user2.dn());
    let text2 = format!(
        "&(executable=\"x\")(count=2)(cpuTime=\"120\")(transferToken=\"{}\")",
        token2.to_hex()
    );
    let spec2 = JobSpec::parse(&text2, CHUNK_MHZ_SECS).unwrap();

    let id1 = w.jm.submit(&mut w.market, SimTime::ZERO, &spec1).unwrap();
    let id2 = w.jm.submit(&mut w.market, SimTime::ZERO, &spec2).unwrap();
    run_until_settled(&mut w, 6);
    assert_eq!(w.jm.job(id1).unwrap().phase, JobPhase::Done);
    assert_eq!(w.jm.job(id2).unwrap().phase, JobPhase::Done);
    // Two users, two hosts: both users bid on both hosts, so distinct
    // market users must exist.
    assert_ne!(w.jm.job(id1).unwrap().user, w.jm.job(id2).unwrap().user);
}

#[test]
fn higher_funding_finishes_faster_under_contention() {
    let mut w = world(4, 100_000);
    let rich_user = GridIdentity::swegrid_user(7);
    let rich_acct = w
        .market
        .bank_mut()
        .open_account(rich_user.public_key(), "rich");
    w.market
        .bank_mut()
        .mint(rich_acct, Credits::from_whole(10_000))
        .unwrap();

    // Poor job: 10 credits; rich job: 1000 credits. Same shape.
    let spec_poor = make_spec(&mut w, 10, 4, 600);
    let receipt = w
        .market
        .bank_mut()
        .transfer(rich_acct, w.jm.broker_account(), Credits::from_whole(1000))
        .unwrap();
    let token = TransferToken::create(&rich_user, receipt, rich_user.dn());
    let text = format!(
        "&(executable=\"x\")(count=4)(cpuTime=\"600\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let spec_rich = JobSpec::parse(&text, CHUNK_MHZ_SECS).unwrap();

    let id_poor = w.jm.submit(&mut w.market, SimTime::ZERO, &spec_poor).unwrap();
    let id_rich = w.jm.submit(&mut w.market, SimTime::ZERO, &spec_rich).unwrap();
    run_until_settled(&mut w, 12);

    let poor = w.jm.job(id_poor).unwrap();
    let rich = w.jm.job(id_rich).unwrap();
    assert_eq!(rich.phase, JobPhase::Done);
    if poor.phase == JobPhase::Done {
        let t_poor = poor.finished_at.unwrap();
        let t_rich = rich.finished_at.unwrap();
        assert!(
            t_rich <= t_poor,
            "rich {t_rich:?} should finish no later than poor {t_poor:?}"
        );
    }
}

/// The job's live bids and the escrow each holds at its host.
fn escrows(w: &World, id: JobId) -> BTreeMap<(HostId, BidHandle), Credits> {
    w.jm.jobs[&id]
        .slots
        .iter()
        .filter_map(|s| {
            let bid = s.bid?;
            Some(((s.host, bid), w.market.auctioneer(s.host)?.escrow(bid)?))
        })
        .collect()
}

#[test]
fn escrow_band_funds_each_bid_once_per_band_width() {
    // Two hosts, twenty 10-minute sub-jobs: the job stays busy on both
    // hosts for all N ticks.
    const N: u64 = 300;
    let mut w = world(2, 1000);
    let spec = make_spec(&mut w, 200, 20, 600);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    // Placement is each bid's first funding transfer.
    let mut fundings: BTreeMap<(HostId, BidHandle), u64> =
        escrows(&w, id).into_keys().map(|bid| (bid, 1)).collect();
    let dt = SimDuration::from_secs(w.market.interval_secs() as u64);
    let mut now = SimTime::ZERO;
    for _ in 0..N {
        let before = escrows(&w, id);
        w.jm.pre_tick(&mut w.market, now);
        for (bid, escrow) in escrows(&w, id) {
            if before.get(&bid).is_none_or(|old| escrow > *old) {
                *fundings.entry(bid).or_default() += 1;
            }
        }
        let allocations = w.market.tick(now);
        w.jm.post_tick(&w.market, now, &allocations);
        now += dt;
    }
    assert_eq!(w.jm.job(id).unwrap().phase, JobPhase::Running);
    let cap = (N as f64 / (HIGH - LOW)).ceil() as u64 + 1;
    assert_eq!(fundings.len(), 2, "one bid per host: {fundings:?}");
    for (bid, n) in fundings {
        assert!(n <= cap, "bid {bid:?} funded {n} times in {N} ticks (cap {cap})");
    }
}

#[test]
fn live_bids_never_exhaust_while_the_sub_account_holds_money() {
    // Two users contend for two hosts, so neither job's rates sit at the
    // share-premium cap and a boost moves them freely.
    let mut w = world(2, 1000);
    let rival = GridIdentity::swegrid_user(7);
    let rival_acct = w.market.bank_mut().open_account(rival.public_key(), "rival");
    w.market.bank_mut().mint(rival_acct, Credits::from_whole(1000)).unwrap();
    let receipt = w
        .market
        .bank_mut()
        .transfer(rival_acct, w.jm.broker_account(), Credits::from_whole(300))
        .unwrap();
    let token = TransferToken::create(&rival, receipt, rival.dn());
    let text = format!(
        "&(executable=\"x\")(count=20)(cpuTime=\"600\")(transferToken=\"{}\")",
        token.to_hex()
    );
    let rival_spec = JobSpec::parse(&text, CHUNK_MHZ_SECS).unwrap();
    let spec = make_spec(&mut w, 100, 20, 600);
    let id = w.jm.submit(&mut w.market, SimTime::ZERO, &spec).unwrap();
    w.jm.submit(&mut w.market, SimTime::ZERO, &rival_spec).unwrap();

    let dt = SimDuration::from_secs(w.market.interval_secs() as u64);
    let mut now = SimTime::ZERO;
    for tick in 0..200 {
        let rates_before: Vec<f64> = w.jm.jobs[&id].slots.iter().map(|s| s.rate).collect();
        if tick == 100 {
            // Boost with twice what the job still holds: the next
            // re-bid triples its rates, far past the escrow they hold.
            let sub_account = w.jm.jobs[&id].sub_account;
            let held = w.market.bank().balance(sub_account).unwrap()
                + escrows(&w, id).into_values().sum::<Credits>();
            let extra = Credits::from_whole(2 * held.as_f64().ceil() as i64);
            let receipt = w
                .market
                .bank_mut()
                .transfer(w.user_acct, w.jm.broker_account(), extra)
                .unwrap();
            let token = TransferToken::create(&w.user, receipt, w.user.dn());
            w.jm.boost(&mut w.market, id, &token).unwrap();
        }
        w.jm.pre_tick(&mut w.market, now);
        if tick == 100 {
            let slots = &w.jm.jobs[&id].slots;
            for (slot, before) in slots.iter().zip(&rates_before) {
                assert!(slot.rate >= 2.9 * before, "re-bid {before} -> {}", slot.rate);
            }
        }
        // Every live bid now holds the low-water mark of its current
        // rate: enough for this tick's charge and then some.
        let interval = w.market.interval_secs();
        let held = escrows(&w, id);
        for slot in &w.jm.jobs[&id].slots {
            let escrow = held[&(slot.host, slot.bid.unwrap())];
            let low = Credits::from_f64(slot.rate * interval * LOW);
            assert!(escrow >= low, "tick {tick}: escrow {escrow} under low-water {low}");
        }
        let allocations = w.market.tick(now);
        for job in w.jm.jobs() {
            if !w.market.bank().balance(job.sub_account).unwrap().is_positive() {
                continue;
            }
            for (host, allocs) in &allocations {
                assert!(
                    allocs.iter().all(|a| a.user != job.user || !a.exhausted),
                    "tick {tick}: {:?}'s bid on {host:?} ran dry with money in its sub-account",
                    job.id
                );
            }
        }
        w.jm.post_tick(&w.market, now, &allocations);
        now += dt;
    }
    assert!(w.jm.jobs().all(|j| j.phase == JobPhase::Running));
}
