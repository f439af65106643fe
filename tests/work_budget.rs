//! Work budgets: deterministic cost counters pinned per placed bid.
//!
//! Wall-clock budgets sit below the noise of a shared runner; counts do
//! not. A bid's escrow is refilled across a low/high-water band
//! (`DESIGN.md` §10), so the signed bank transfers a run makes scale with
//! the bids it places and how long they live, not with bids × ticks. This
//! suite runs a Table-1-style world with a journal attached and four
//! default chaos seeds, and bounds `market.bank_transfers /
//! market.bids_placed` in each, so a change that returns to per-tick
//! top-ups (about 215 transfers per bid on these worlds) fails here.
//!
//! The driver skips quiet spans (ticks with no running job and no live
//! bid) in one call, so the ticks it steps one by one scale with the
//! work, not with how far the fault plan reaches. The second test bounds
//! the share of ticks stepped on the same four chaos seeds, so a change
//! that steps every tick again fails here.
//!
//! `Scenario` checkpoints the bank journal every `LEDGER_SNAPSHOT_EVERY`
//! events, so a `BankRestart` recovery replays a snapshot plus a bounded
//! WAL tail rather than every event since the run began. The third test
//! bounds the records replayed per restart and the WAL left at the end
//! of the Table-1-style run and the same four chaos seeds, so a change
//! that stops checkpointing fails here. The chaos runs journal nothing
//! after their one restart, so the third test also restarts the
//! Table-1-style bank early in the run: a recovered bank that loses the
//! cadence (`Market::restart_bank` hands it over) ends that run with
//! every event in its WAL and fails the same bound.

use gm_des::{FaultKind, FaultPlan, SimTime};
use gm_ledger::SharedJournal;
use gridmarket::scenario::{Scenario, ScenarioResult, LEDGER_SNAPSHOT_EVERY};
use gridmarket::sched::DriverStats;
use gridmarket::ChaosConfig;

/// Signed transfers per placed bid, at most. The worlds below reach 28.0
/// (Table 1) and 29.9–31.6 (chaos); the bound rounds the worst up.
const MAX_TRANSFERS_PER_BID: f64 = 34.0;

fn assert_within_budget(world: &str, r: &ScenarioResult) {
    let c = &r.metrics.counters;
    let (transfers, bids) = (c["market.bank_transfers"], c["market.bids_placed"]);
    assert!(bids > 0, "{world}: the run placed no bids");
    let per_bid = transfers as f64 / bids as f64;
    assert!(
        per_bid <= MAX_TRANSFERS_PER_BID,
        "{world}: {transfers} signed transfers for {bids} placed bids \
         ({per_bid:.1} per bid, budget {MAX_TRANSFERS_PER_BID})"
    );
}

/// The kill-point sweep's world (`tests/ledger_recovery.rs`): small
/// enough to stay fast in a debug build.
fn table1_world() -> Scenario {
    Scenario::builder()
        .seed(2006)
        .hosts(3)
        .chunk_minutes(6.0)
        .deadline_minutes(90)
        .horizon_hours(4)
        .equal_users(2, 80.0)
}

#[test]
fn signed_transfers_per_placed_bid_stay_within_budget() {
    let table1 = table1_world()
        .ledger(SharedJournal::new())
        .run()
        .expect("ledger scenario runs");
    assert!(table1.all_done() && table1.money_conserved());
    assert_within_budget("table1", &table1);

    let cfg = ChaosConfig::default();
    for seed in 0..4u64 {
        let r = cfg.scenario(seed).run().expect("chaos scenario runs");
        assert!(
            r.money_conserved(),
            "chaos seed {seed}: money not conserved"
        );
        assert_within_budget(&format!("chaos seed {seed}"), &r);
    }
}

/// Share of ticks stepped one by one, at most. The four chaos seeds
/// below step 15.5–17.5% of their ticks; the bound is the worst plus
/// about 10%. Stepping every tick (100%) fails it.
const MAX_STEPPED_SHARE: f64 = 0.19;

#[test]
fn chaos_runs_step_only_a_bounded_share_of_their_ticks() {
    // The default chaos worlds, driven through the build/drive seam so
    // the driver's counters can be read.
    for seed in 0..4u64 {
        let mut s = DriverStats::default();
        let world = ChaosConfig::default().scenario(seed).build();
        world
            .run_with(|driver, policy, jobs| {
                let r = driver.run(policy, jobs);
                s = *driver.stats();
                r
            })
            .expect("chaos run");
        let stepped = s.ticks - s.quiet_ticks;
        let share = stepped as f64 / s.ticks as f64;
        assert!(
            share <= MAX_STEPPED_SHARE,
            "chaos seed {seed}: stepped {stepped} of {} ticks ({:.1}%, budget {:.1}%)",
            s.ticks,
            share * 100.0,
            MAX_STEPPED_SHARE * 100.0
        );
    }
}

/// When the table1 world's bank restarts: after setup and the first
/// tick, before its first checkpoint (15 events are journaled by then).
const EARLY_RESTART_SECS: u64 = 60;

/// Without checkpoints the table1 world's WAL ends with 186 records, and
/// chaos seed 0's one restart replays 596. With the early restart the
/// recovered bank journals the other 171 events of the table1 run.
#[test]
fn bank_restarts_replay_fewer_records_than_the_checkpoint_cadence() {
    let cfg = ChaosConfig::default();
    let mut early_restart = FaultPlan::new();
    early_restart.push(SimTime::from_secs(EARLY_RESTART_SECS), FaultKind::BankRestart);
    let worlds = [
        ("table1".to_owned(), table1_world(), false),
        (
            "table1 with an early bank restart".to_owned(),
            table1_world().faults(early_restart),
            true,
        ),
    ]
    .into_iter()
    .chain((0..4u64).map(|seed| (format!("chaos seed {seed}"), cfg.scenario(seed), false)));
    let mut restarts = 0;
    for (world, scenario, restarts_early) in worlds {
        let journal = SharedJournal::new();
        let r = scenario
            .ledger(journal.clone())
            .run()
            .expect("scenario runs");
        let c = &r.metrics.counters;
        let (replayed, recoveries) = (c["ledger.records_replayed"], c["ledger.recoveries"]);
        if restarts_early {
            // The restart precedes the first checkpoint, so its replay is
            // every event journaled before it; the rest came after it.
            let after = c["ledger.appends"] - replayed;
            println!("{world}: the recovered bank journaled {after} events");
            assert!(
                after > 2 * LEDGER_SNAPSHOT_EVERY,
                "{world}: the recovered bank journaled only {after} events"
            );
        }
        if recoveries > 0 {
            let per_restart = replayed as f64 / recoveries as f64;
            assert!(
                per_restart < LEDGER_SNAPSHOT_EVERY as f64,
                "{world}: {replayed} records replayed over {recoveries} restarts \
                 ({per_restart:.1} per restart, budget < {LEDGER_SNAPSHOT_EVERY})"
            );
        }
        restarts += recoveries;
        let wal = journal.record_count();
        assert!(
            wal < LEDGER_SNAPSHOT_EVERY as usize,
            "{world}: the WAL ends with {wal} records (budget < {LEDGER_SNAPSHOT_EVERY})"
        );
    }
    assert!(restarts > 0, "no world restarted the bank");
}
