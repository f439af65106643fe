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

use gm_ledger::SharedJournal;
use gridmarket::scenario::{Scenario, ScenarioResult};
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

#[test]
fn signed_transfers_per_placed_bid_stay_within_budget() {
    // The kill-point sweep's world (`tests/ledger_recovery.rs`): small
    // enough to stay fast in a debug build.
    let table1 = Scenario::builder()
        .seed(2006)
        .hosts(3)
        .chunk_minutes(6.0)
        .deadline_minutes(90)
        .horizon_hours(4)
        .equal_users(2, 80.0)
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
