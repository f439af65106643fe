//! The Monte-Carlo chaos engine's end-to-end contract (`DESIGN.md` §13),
//! exercised over the *real* market stack:
//!
//! 1. **Byte determinism across thread counts** — the same seed list
//!    yields bit-identical per-seed metrics and identical rendered
//!    reports at 1, 2 and 8 worker threads, because results are
//!    assembled by seed index, never completion order.
//! 2. **Panic quarantine** — a deliberately detonating scenario becomes
//!    a `ScenarioFailure` with the right seed and a replay hint while
//!    every other seed completes.
//! 3. **The invariant sweep** — a random-fault batch completes with
//!    zero quarantined seeds and a conservation residual of exactly 0.
//! 4. **Lazy telemetry** — the `mc.*` counters appear only when a
//!    registry is attached.

use gm_telemetry::Registry;
use gridmarket::sched::seed_stream;
use gridmarket::{chaos_runner, chaos_scenario, ChaosConfig, ChaosMetrics};

/// One seed's metric row: the name/value pairs from `ChaosMetrics::rows`.
type MetricRow = Vec<(&'static str, f64)>;

/// Bit-exact fingerprint of one batch: every metric of every seed, as
/// raw f64 bits, in seed order.
fn fingerprint(outcomes: &[(u64, MetricRow)]) -> Vec<(u64, Vec<u64>)> {
    outcomes
        .iter()
        .map(|(seed, rows)| (*seed, rows.iter().map(|(_, v)| v.to_bits()).collect()))
        .collect()
}

fn run_batch(threads: usize, seeds: &[u64]) -> (Vec<(u64, MetricRow)>, String) {
    let cfg = ChaosConfig::default();
    let mc = chaos_runner(threads);
    let batch = mc.run(seeds, move |s| chaos_scenario(s, &cfg));
    let rows: Vec<(u64, MetricRow)> = batch
        .completed()
        .map(|(seed, m)| (seed, m.rows()))
        .collect();
    let rendered = batch.report(ChaosMetrics::rows).render();
    (rows, rendered)
}

#[test]
fn chaos_batches_are_byte_identical_across_thread_counts() {
    let seeds = seed_stream(0x9_0006, 6);
    let (rows1, report1) = run_batch(1, &seeds);
    assert_eq!(rows1.len(), 6, "all seeds complete");
    for threads in [2, 8] {
        let (rows_n, report_n) = run_batch(threads, &seeds);
        assert_eq!(
            fingerprint(&rows1),
            fingerprint(&rows_n),
            "per-seed results differ at {threads} threads"
        );
        assert_eq!(report1, report_n, "aggregate report differs at {threads} threads");
    }
}

#[test]
fn detonating_scenario_is_quarantined_with_its_seed() {
    let cfg = ChaosConfig::default();
    let seeds = seed_stream(0xD1E, 5);
    let bad = seeds[2];
    let mc = chaos_runner(4);
    let batch = mc.run(&seeds, move |s| {
        if s == bad {
            panic!("chaos test: allocator exploded");
        }
        chaos_scenario(s, &cfg)
    });
    assert_eq!(batch.quarantined_seeds(), vec![bad]);
    let failure = batch.failures().next().unwrap();
    assert_eq!(failure.panic_message, "chaos test: allocator exploded");
    assert!(
        failure.replay_hint.contains("crash_matrix") && failure.replay_hint.contains(&format!("{bad:#x}")),
        "replay hint must name the replaying example and the seed: {}",
        failure.replay_hint
    );
    // The other four seeds still completed and report real metrics.
    let report = batch.report(ChaosMetrics::rows);
    assert_eq!(report.completed, 4);
    assert_eq!(report.metric("conservation_residual").unwrap().max, 0.0);
}

#[test]
fn random_fault_sweep_holds_the_invariants() {
    // The CI smoke property in test form: a random-fault batch over the
    // full market stack — host crashes, VM failures, bank outages and
    // mid-run bank restarts — completes every seed and conserves money
    // exactly.
    let cfg = ChaosConfig::default();
    let mc = chaos_runner(2);
    let batch = mc.run(&seed_stream(0x51EE9, 16), move |s| chaos_scenario(s, &cfg));
    let report = batch.report(ChaosMetrics::rows);
    assert_eq!(report.completed, 16, "quarantined: {:?}", report.quarantined);
    let residual = report.metric("conservation_residual").unwrap();
    assert_eq!(residual.max, 0.0, "money leaked under chaos");
    assert!(
        report.metric("faults_injected").unwrap().min > 0.0,
        "every generated plan must actually fire"
    );
    assert!(report.metric("fairness").unwrap().mean > 0.5);
}

#[test]
fn telemetry_is_lazy_and_counts_scenarios() {
    let cfg = ChaosConfig::default();
    let registry = Registry::new();
    let mc = chaos_runner(2).with_registry(&registry);
    mc.run(&seed_stream(1, 3), move |s| chaos_scenario(s, &cfg));
    let snap = registry.snapshot();
    assert_eq!(snap.counters["mc.scenarios_started"], 3);
    assert_eq!(snap.counters["mc.scenarios_completed"], 3);
    assert_eq!(snap.counters["mc.scenarios_panicked"], 0);
    assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
}
