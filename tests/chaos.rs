//! Chaos suite (`DESIGN.md` §8): the market, grid and bank under injected
//! faults. Three angles:
//!
//! 1. A Table-1-style workload with fixed-time host crashes — every job
//!    completes on the survivors, money is conserved, and the metrics are
//!    byte-identical across same-seed runs.
//! 2. A property over *random* fault schedules — including mid-run bank
//!    kill/recover (`BankRestart`) interleaved with host crashes and bank
//!    outages — whatever the schedule, money is conserved and no sub-job
//!    is ever both completed and re-dispatched. Failing cases print the
//!    replay seed via `gm_des::check`.
//! 3. The transfer-token replay defence end to end: an idempotent bank
//!    transfer whose first reply is lost still mints exactly one receipt,
//!    and redeeming the resulting token twice fails.

use std::sync::Arc;

use gm_grid::{AgentConfig, GridIdentity, TransferToken};
use gridmarket::des::check::{check, Gen};
use gridmarket::des::{
    FaultEvent, FaultGenConfig, FaultKind, FaultMix, FaultPlan, SimDuration, SimTime,
};
use gridmarket::sched::TickCtx;
use gridmarket::scenario::{Scenario, ScenarioResult};
use gridmarket::telemetry::{ManualClock, Tracer};
use gridmarket::tycoon::{Credits, HostSpec, LiveMarket};
use gridmarket::{tycoon_policy, AllocationPolicy};

/// The Table-1 workload (equal funding) over 6 hosts with two hosts
/// crashing at fixed times mid-run; one recovers, one stays down.
fn table1_with_crashes(seed: u64) -> ScenarioResult {
    table1_with_crashes_sharded(seed, 1)
}

/// Same workload with the market's tick sweep split over `shards`
/// auctioneer shards (DESIGN.md §15).
fn table1_with_crashes_sharded(seed: u64, shards: usize) -> ScenarioResult {
    let mut plan = FaultPlan::new();
    plan.push(SimTime::from_secs(20 * 60), FaultKind::HostCrash { host: 0 })
        .push(SimTime::from_secs(80 * 60), FaultKind::HostRecover { host: 0 })
        .push(SimTime::from_secs(35 * 60), FaultKind::HostCrash { host: 3 });
    Scenario::builder()
        .seed(seed)
        .hosts(6)
        .chunk_minutes(15.0)
        .deadline_minutes(240)
        .horizon_hours(12)
        .equal_users(4, 120.0)
        .faults(plan)
        .sharding(shards)
        .run()
        .expect("chaos scenario runs")
}

/// Everything a regression cares about, rendered to one comparable string.
fn fingerprint(r: &ScenarioResult) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for u in &r.users {
        writeln!(
            s,
            "{} {:?} {:.9} {:.9} {:.9} {} {} {}/{}",
            u.label,
            u.phase,
            u.time_hours,
            u.charged,
            u.avg_nodes,
            u.nodes,
            u.latency_min_per_job,
            u.completed_subjobs,
            u.subjobs
        )
        .unwrap();
    }
    writeln!(
        s,
        "{:?} {:?} {} {:.9} {:.9}",
        r.finished_at, r.fault_counters, r.faults_injected, r.total_money, r.total_minted
    )
    .unwrap();
    s
}

#[test]
fn fixed_host_crashes_complete_on_survivors_and_replay_identically() {
    let r = table1_with_crashes(2006);

    // The faults actually bit: both crashes interrupted running work.
    assert_eq!(r.fault_counters.host_crashes, 2);
    assert!(
        r.fault_counters.subjobs_interrupted > 0,
        "crashes at 20/35 min must interrupt running sub-jobs"
    );
    assert_eq!(
        r.fault_counters.subjobs_interrupted, r.fault_counters.redispatched,
        "every interrupted sub-job is re-dispatched exactly once"
    );
    assert_eq!(r.crashed_hosts_at_end, 1, "host 3 never recovers");

    // ... and yet every job completed, on the surviving hosts.
    assert!(r.all_done(), "jobs must finish on survivors: {:?}", r.users);
    assert!(
        r.money_conserved(),
        "minted {} vs held {}",
        r.total_minted,
        r.total_money
    );
    assert!(r.recovery_invariant_ok);

    // Determinism: a second run with the same seed is byte-identical —
    // including the full telemetry export (counters, histograms, and the
    // timestamped fault-event trace).
    let again = table1_with_crashes(2006);
    assert_eq!(fingerprint(&r), fingerprint(&again));
    assert_eq!(r.telemetry_jsonl, again.telemetry_jsonl);
    assert!(r.telemetry_jsonl.contains("\"fault.host_crash\""));
    assert_eq!(r.metrics.counters["grid.host_crashes"], 2);

    // The guard's and the adversary library's instruments are lazy
    // (DESIGN.md §16): an honest chaos run never registers them, so the
    // default telemetry export stays byte-compatible with pre-guard
    // builds even while defenses are armed.
    assert!(!r.telemetry_jsonl.contains("market.guard"));
    assert!(!r.telemetry_jsonl.contains("adversary."));
}

#[test]
fn sharded_chaos_runs_are_byte_identical_at_any_shard_count() {
    // DESIGN.md §15: the slot-chunked sharded sweep re-imposes host-id
    // emission order, so the whole chaos report — per-user metrics,
    // money totals, and the timestamped telemetry export — is invariant
    // in the shard count even while hosts crash and recover mid-run.
    let base = table1_with_crashes(2006);
    for shards in [2, 8] {
        let sharded = table1_with_crashes_sharded(2006, shards);
        assert_eq!(
            fingerprint(&base),
            fingerprint(&sharded),
            "chaos metrics diverged at {shards} shards"
        );
        assert_eq!(
            base.telemetry_jsonl, sharded.telemetry_jsonl,
            "telemetry export diverged at {shards} shards"
        );
    }
}

#[test]
fn random_fault_schedules_conserve_money_and_never_double_complete() {
    check("chaos_schedule", 6, |g: &mut Gen| {
        let cfg = FaultGenConfig {
            hosts: 4,
            horizon: SimTime::from_secs(3 * 3600),
            mix: FaultMix {
                crashes: g.usize_in(0, 3) as u32,
                mean_downtime: SimDuration::from_minutes(g.usize_in(5, 40) as u64),
                vm_failures: g.usize_in(0, 3) as u32,
                bank_outages: g.usize_in(0, 1) as u32,
                outage_len: SimDuration::from_minutes(g.usize_in(2, 10) as u64),
                bank_restarts: g.usize_in(0, 2) as u32,
                link_outages: g.usize_in(0, 2) as u32,
                link_outage_len: SimDuration::from_minutes(g.usize_in(2, 10) as u64),
                adversary_arrivals: 0,
                ..FaultMix::default()
            },
        };
        let plan = FaultPlan::generate(g.u64(), cfg);
        let r = Scenario::builder()
            .seed(g.u64())
            .hosts(4)
            .chunk_minutes(10.0)
            .deadline_minutes(120)
            .horizon_hours(8)
            .equal_users(2, 100.0)
            .faults(plan)
            .run()
            .expect("chaos scenario runs");

        // Faults may stall a job (that is reported honestly), but they can
        // never create, destroy, or double-spend money ...
        assert!(
            r.money_conserved(),
            "minted {} vs held {} under fault schedule",
            r.total_minted,
            r.total_money
        );
        // ... and a sub-job is never both completed and re-dispatched.
        assert!(r.recovery_invariant_ok);
        // Honest reporting: a Done job really did all its sub-jobs.
        for u in &r.users {
            if u.phase == gridmarket::grid::JobPhase::Done {
                assert_eq!(u.completed_subjobs, u.subjobs);
            }
        }
    });
}

#[test]
fn replayed_transfer_token_is_rejected_even_with_lost_reply() {
    // A live bank whose reply to the first transfer attempt is lost: the
    // client times out, retries with the SAME request id, and the bank
    // replays the recorded outcome instead of debiting twice.
    let live = LiveMarket::spawn(b"replay", vec![HostSpec::testbed(0)]);
    let bank = live.bank();
    let user = GridIdentity::swegrid_user(1);
    let payer = bank.open_account(user.public_key(), "payer").unwrap();
    let broker = bank.open_account(user.public_key(), "broker").unwrap();
    bank.mint(payer, Credits::from_whole(100)).unwrap();

    bank.inject_drop_next_reply().unwrap();
    let receipt = bank
        .transfer_with_id(77, payer, broker, Credits::from_whole(40))
        .expect("retry after lost reply succeeds");

    // Exactly one debit despite the retry.
    assert_eq!(bank.balance(payer).unwrap(), Credits::from_whole(60));
    assert_eq!(bank.balance(broker).unwrap(), Credits::from_whole(40));

    // A deliberate re-send of the same request id is idempotent: same
    // receipt, no second debit.
    let replayed = bank
        .transfer_with_id(77, payer, broker, Credits::from_whole(40))
        .expect("replay returns the recorded outcome");
    assert_eq!(receipt, replayed, "replay must return the original receipt");
    assert_eq!(bank.balance(payer).unwrap(), Credits::from_whole(60));

    // The token minted from that receipt redeems once against the
    // bank's durable spent set — a second presentation (replay attack)
    // is rejected.
    let mut bank_state = live.shutdown();
    let token = TransferToken::create(&user, receipt, user.dn());
    assert!(token.verify(&bank_state, broker).is_ok());
    assert!(
        bank_state.record_token_spend(token.transfer_id()),
        "first redemption succeeds"
    );
    assert!(
        !bank_state.record_token_spend(token.transfer_id()),
        "second redemption must be refused as already spent"
    );
    assert!(bank_state.is_token_spent(token.transfer_id()));
}

#[test]
fn twin_cancellation_refunds_escrow_exactly_once_through_bank_outage() {
    // Gray-failure conservation regression (DESIGN.md §17): a chronic
    // slowdown forces a speculative twin; the race collapses while the
    // bank is unreachable, so the loser's escrow refund must be *kept
    // and retried* — not dropped (stranding escrow at the host) and not
    // re-cancelled (double refund) — and a later bank restart must
    // replay the same books. The residual is exactly zero, not epsilon.
    let mut plan = FaultPlan::new();
    plan.push(SimTime::from_secs(10 * 60), FaultKind::HostSlowdown { host: 0, permille: 20 })
        .push(SimTime::from_secs(12 * 60), FaultKind::HostSlowdown { host: 1, permille: 20 })
        .bank_outage(SimTime::from_secs(16 * 60), SimTime::from_secs(30 * 60))
        .push(SimTime::from_secs(45 * 60), FaultKind::BankRestart);
    let r = Scenario::builder()
        .seed(0x717)
        .hosts(6)
        .chunk_minutes(10.0)
        .deadline_minutes(75)
        .horizon_hours(2)
        .equal_users(3, 80.0)
        .faults(plan)
        .run()
        .expect("gray chaos scenario runs");

    // Speculation actually fired and at least one race was collapsed —
    // the refund path under test really executed.
    assert!(
        r.metrics.counters.get("grid.spec.twins").copied().unwrap_or(0) >= 1,
        "slowdown to 2% must trigger speculative twins: {:?}",
        r.metrics.counters
    );
    assert!(
        r.metrics.counters.get("grid.spec.cancels").copied().unwrap_or(0) >= 1,
        "a collapsed race retires the losing replica: {:?}",
        r.metrics.counters
    );

    // Exactly-once escrow refund: money is conserved to the fixed point,
    // with zero residual — a dropped refund or a double refund both
    // show up here.
    assert_eq!(
        r.total_money, r.total_minted,
        "twin escrow must come home exactly once through the outage"
    );
    assert!(r.recovery_invariant_ok);
    assert_eq!(r.metrics.counters["ledger.recoveries"], 1);
    assert_eq!(r.metrics.counters["ledger.audit_failures"], 0);
}

#[test]
fn honest_runs_never_register_gray_instruments() {
    // The health/speculation subsystem is armed by default, but its
    // telemetry is lazy (DESIGN.md §17): a fault-free run must export
    // neither `grid.health.*` nor `grid.spec.*`, keeping the honest
    // telemetry byte-compatible with pre-gray builds.
    let r = Scenario::builder()
        .seed(0x717)
        .hosts(6)
        .chunk_minutes(10.0)
        .deadline_minutes(75)
        .horizon_hours(2)
        .equal_users(3, 80.0)
        .run()
        .expect("honest scenario runs");
    assert!(r.all_done());
    assert!(!r.telemetry_jsonl.contains("grid.health"));
    assert!(!r.telemetry_jsonl.contains("grid.spec"));
}

#[test]
fn gray_faults_reach_hosts_above_65535() {
    // Gray faults once packed their host into 16 bits, so a slowdown
    // addressed to host 70,000 of a 100,000-host world slowed host 4,464
    // (70,000 mod 65,536). The policy traces the host it hands each
    // fault to the job manager.
    let hosts: Vec<HostSpec> = (0..100_000).map(HostSpec::testbed).collect();
    let tracer = Tracer::new(16, Arc::new(ManualClock::new()));
    let mut policy =
        tycoon_policy(1, &[], AgentConfig::default(), None, |_| {}).with_tracer(tracer.clone());
    let ctx = TickCtx {
        now: SimTime::ZERO,
        interval_secs: 10.0,
        hosts: &hosts,
    };
    for kind in [
        FaultKind::HostSlowdown { host: 70_000, permille: 250 },
        FaultKind::HostStall { host: 70_001, len: SimDuration::from_secs(600) },
        FaultKind::HostRestore { host: 70_002 },
    ] {
        policy.apply_fault(&ctx, &FaultEvent { at: SimTime::ZERO, kind });
    }
    let traced: Vec<String> = tracer.events().iter().map(|e| e.fields["host"].clone()).collect();
    assert_eq!(traced, ["70000", "70001", "70002"]);
}

#[test]
fn health_score_stays_bounded_under_arbitrary_observation_streams() {
    // Property suite for the §17 health tracker: for any observation
    // stream — including NaN/infinite/oversized samples, timeouts and
    // probation clock ticks — the score stays finite in [0, 1], EWMA
    // blending moves it monotonically toward the sample, probation only
    // engages below the enter bound with enough evidence, and releases
    // only above the exit bound or at the TTL (landing in the exit band).
    use gridmarket::tycoon::{HealthConfig, HealthScore};
    check("health_score", 8, |g: &mut Gen| {
        let cfg = HealthConfig {
            alpha: g.usize_in(1, 10) as f64 / 10.0,
            probation_enter: 0.35 + g.usize_in(0, 25) as f64 / 100.0,
            probation_exit: 0.65 + g.usize_in(0, 30) as f64 / 100.0,
            min_samples: g.usize_in(1, 5) as u32,
            timeout_penalty: g.usize_in(0, 10) as f64 / 10.0,
            probe_after: g.usize_in(0, 40) as u32,
            ..HealthConfig::default()
        };
        let mut h = HealthScore::new();
        for _ in 0..g.usize_in(1, 300) {
            let prev = h.score();
            let was_probated = h.on_probation();
            match g.usize_in(0, 9) {
                0 => {
                    // Garbage in, no sample recorded, score untouched.
                    let before = h.samples();
                    h.observe(f64::NAN, f64::NAN, &cfg);
                    h.observe(1.0, 0.0, &cfg);
                    h.observe(1.0, -3.0, &cfg);
                    assert_eq!(h.samples(), before);
                    assert_eq!(h.score(), prev);
                }
                1 => {
                    h.observe_timeout(&cfg);
                }
                2 => {
                    if h.tick_probation(&cfg) {
                        // TTL release lands in the exit band so one bad
                        // sample can re-probate a still-sick host.
                        assert!(!h.on_probation());
                        assert!(h.score() >= cfg.probation_exit);
                    }
                }
                3 => {
                    // A zero-progress sample never raises the score.
                    h.observe(0.0, 1.0, &cfg);
                    assert!(h.score() <= prev);
                }
                4 => {
                    // A nominal (or better) sample never lowers it.
                    h.observe(g.usize_in(1000, 2000) as f64, 1000.0, &cfg);
                    assert!(h.score() >= prev);
                }
                _ => {
                    h.observe(g.usize_in(0, 1500) as f64, 1000.0, &cfg);
                }
            }
            let s = h.score();
            assert!(s.is_finite() && (0.0..=1.0).contains(&s), "score {s} escaped [0,1]");
            if !was_probated && h.on_probation() {
                // Hysteresis: engagement needs evidence below the enter
                // bound — never a single sample on a fresh host.
                assert!(s < cfg.probation_enter);
                assert!(h.samples() >= cfg.min_samples);
            }
            if was_probated && !h.on_probation() {
                // Release is through the exit band (blend) or the TTL
                // probe (which itself lands at >= exit).
                assert!(s >= cfg.probation_exit || s > cfg.probation_exit - 1e-12);
            }
        }
    });
}

#[test]
fn random_gray_schedules_conserve_money_and_replay_identically() {
    // §17 property: whatever gray schedule the generator draws —
    // slowdowns, stalls, flapping hosts, interleaved with bank outages
    // and restarts — the armed agent conserves money exactly, never
    // double-completes a sub-job, and a same-seed replay is
    // byte-identical, speculation races and all.
    check("gray_schedule", 6, |g: &mut Gen| {
        let cfg = FaultGenConfig {
            hosts: 6,
            horizon: SimTime::from_secs(2 * 3600),
            mix: FaultMix {
                slowdowns: g.usize_in(0, 3) as u32,
                slowdown_len: SimDuration::from_minutes(g.usize_in(10, 60) as u64),
                slowdown_min_permille: 10,
                slowdown_max_permille: 300,
                stalls: g.usize_in(0, 2) as u32,
                stall_len: SimDuration::from_secs(g.usize_in(300, 3600) as u64),
                flapping_hosts: g.usize_in(0, 2) as u32,
                flap_cycles: g.usize_in(1, 3) as u32,
                flap_period: SimDuration::from_minutes(g.usize_in(10, 30) as u64),
                bank_outages: g.usize_in(0, 1) as u32,
                outage_len: SimDuration::from_minutes(g.usize_in(2, 10) as u64),
                bank_restarts: g.usize_in(0, 1) as u32,
                adversary_arrivals: 0,
                ..FaultMix::default()
            },
        };
        let plan_seed = g.u64();
        let seed = g.u64();
        let run = || {
            Scenario::builder()
                .seed(seed)
                .hosts(6)
                .chunk_minutes(10.0)
                .deadline_minutes(75)
                .horizon_hours(2)
                .equal_users(3, 80.0)
                .faults(FaultPlan::generate(plan_seed, cfg))
                .run()
                .expect("gray schedule runs")
        };
        let r = run();
        assert!(
            r.money_conserved(),
            "minted {} vs held {} under gray schedule",
            r.total_minted,
            r.total_money
        );
        assert!(r.recovery_invariant_ok);
        for u in &r.users {
            if u.phase == gridmarket::grid::JobPhase::Done {
                assert_eq!(u.completed_subjobs, u.subjobs);
            }
        }
        let again = run();
        assert_eq!(fingerprint(&r), fingerprint(&again));
        assert_eq!(r.telemetry_jsonl, again.telemetry_jsonl);
    });
}

#[test]
fn bank_restart_mid_run_recovers_ledger_and_conserves_money() {
    // A deterministic BankRestart in the middle of the Table-1 chaos
    // scenario: the bank is killed and rebuilt from its WAL while jobs
    // are running; the run completes and the books balance.
    let mut plan = FaultPlan::new();
    plan.push(SimTime::from_secs(20 * 60), FaultKind::HostCrash { host: 0 })
        .push(SimTime::from_secs(80 * 60), FaultKind::HostRecover { host: 0 })
        .push(SimTime::from_secs(50 * 60), FaultKind::BankRestart);
    let r = Scenario::builder()
        .seed(7)
        .hosts(6)
        .chunk_minutes(15.0)
        .deadline_minutes(240)
        .horizon_hours(12)
        .equal_users(4, 120.0)
        .faults(plan)
        .run()
        .expect("restart scenario runs");
    assert!(r.all_done(), "jobs must survive a bank restart: {:?}", r.users);
    assert!(r.money_conserved());
    assert!(r.recovery_invariant_ok);
    assert!(r.telemetry_jsonl.contains("\"fault.bank_restart\""));
    assert_eq!(r.metrics.counters["ledger.recoveries"], 1);
    assert_eq!(r.metrics.counters["ledger.audit_failures"], 0);
}
