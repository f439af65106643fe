//! Chaos demo: the Table-1 workload under an injected fault schedule —
//! host crashes and recoveries, VM failures and a bank outage — showing
//! interrupted sub-jobs re-dispatched onto survivors, money conserved and
//! byte-identical metrics across same-seed runs (DESIGN.md §8).
//!
//! ```sh
//! cargo run --release --example chaos_run [seed]
//! ```

use gridmarket::des::{FaultGenConfig, FaultMix, FaultPlan, SimDuration, SimTime};
use gridmarket::scenario::{Scenario, ScenarioResult};

const HOSTS: u32 = 8;

fn run(seed: u64) -> ScenarioResult {
    let plan = FaultPlan::generate(
        seed,
        FaultGenConfig {
            hosts: HOSTS,
            horizon: SimTime::from_secs(3 * 3600),
            mix: FaultMix {
                crashes: 3,
                mean_downtime: SimDuration::from_minutes(20),
                vm_failures: 3,
                bank_outages: 1,
                outage_len: SimDuration::from_minutes(5),
                bank_restarts: 1,
                link_outages: 1,
                link_outage_len: SimDuration::from_minutes(5),
                adversary_arrivals: 0,
                ..FaultMix::default()
            },
        },
    );
    Scenario::builder()
        .seed(seed)
        .hosts(HOSTS)
        .chunk_minutes(15.0)
        .deadline_minutes(240)
        .horizon_hours(12)
        .equal_users(4, 120.0)
        .faults(plan)
        .run()
        .expect("chaos scenario")
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2006);
    println!("chaos run, seed {seed}: {HOSTS} hosts, 4 users, generated fault schedule\n");

    let result = run(seed);
    println!("{}", gridmarket::report::render_users(&result.users));

    let fc = result.fault_counters;
    println!("fault schedule : {} events delivered", result.faults_injected);
    println!(
        "host crashes   : {} ({} still down at end)",
        fc.host_crashes, result.crashed_hosts_at_end
    );
    println!("vm failures    : {}", fc.vm_failures);
    println!(
        "sub-jobs       : {} interrupted, {} re-dispatched",
        fc.subjobs_interrupted, fc.redispatched
    );
    println!(
        "retry rounds   : {} without progress, {} jobs stalled",
        fc.redispatch_rounds_failed, fc.jobs_stalled_by_faults
    );
    println!(
        "money          : {:.6} minted, {:.6} in accounts — conserved: {}",
        result.total_minted,
        result.total_money,
        result.money_conserved()
    );
    println!(
        "all jobs done  : {} (finished at {:?})",
        result.all_done(),
        result.finished_at
    );

    // Determinism: the same seed reproduces the run bit for bit.
    let again = run(seed);
    let identical = again.finished_at == result.finished_at
        && again.fault_counters == result.fault_counters
        && again
            .users
            .iter()
            .zip(&result.users)
            .all(|(a, b)| a.time_hours == b.time_hours && a.charged == b.charged);
    println!("replay (same seed) byte-identical: {identical}");
}
