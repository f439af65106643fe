//! Telemetry demo (DESIGN.md §9): run a chaos scenario — host crashes, a
//! VM failure and a bank outage over the Table-1 workload — then render
//! the full metrics snapshot as a "top"-style table and the tail of the
//! deterministic JSONL export.
//!
//! ```sh
//! cargo run --release --example telemetry_top [seed]
//! ```

use gridmarket::des::{FaultKind, FaultPlan, SimTime};
use gridmarket::scenario::Scenario;
use gridmarket::telemetry::render_top;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2006);

    let mut plan = FaultPlan::new();
    plan.push(SimTime::from_secs(20 * 60), FaultKind::HostCrash { host: 0 })
        .push(SimTime::from_secs(80 * 60), FaultKind::HostRecover { host: 0 })
        .push(SimTime::from_secs(35 * 60), FaultKind::HostCrash { host: 3 })
        .push(SimTime::from_secs(30 * 60), FaultKind::VmFailure { host: 1 })
        .bank_outage(SimTime::from_secs(45 * 60), SimTime::from_secs(50 * 60));

    let result = Scenario::builder()
        .seed(seed)
        .hosts(6)
        .chunk_minutes(15.0)
        .deadline_minutes(240)
        .horizon_hours(12)
        .equal_users(4, 120.0)
        .faults(plan)
        .run()
        .expect("telemetry scenario");

    println!(
        "{}",
        render_top(&format!("gridmarket telemetry — seed {seed}"), &result.metrics)
    );

    println!("fault-event trace + export tail (telemetry_jsonl):");
    let lines: Vec<&str> = result.telemetry_jsonl.lines().collect();
    let tail = lines.len().saturating_sub(12);
    for line in &lines[tail..] {
        println!("  {line}");
    }
    println!(
        "\n{} JSONL lines total; same seed reproduces them byte-for-byte.",
        lines.len()
    );
}
