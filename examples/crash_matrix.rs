//! Crash-matrix runner (`just crash-matrix`): the kill-point sweep from
//! `DESIGN.md` §11 over one or more seeds, fanned out as a Monte-Carlo
//! batch (`DESIGN.md` §13). For each seed it runs a small Table-1-style
//! scenario with a durable bank ledger attached, then crashes the bank
//! at every WAL record boundary of the resulting journal, recovers it
//! from disk, and runs the conservation auditor on the recovered books.
//!
//! ```text
//! cargo run --release --example crash_matrix -- 2006 7 42
//! cargo run --release --example crash_matrix -- 0xdead 0xbeef
//! ```
//!
//! Seeds run in parallel through the deterministic scenario runner: a
//! failing seed is quarantined (with a replay hint naming this example)
//! instead of aborting the sweep, the report aggregates kill-point
//! counts over the whole batch, and the exit code is non-zero if any
//! seed failed.

use gm_ledger::SharedJournal;
use gm_tycoon::{Bank, ConservationAuditor};
use gridmarket::chaos_runner;
use gridmarket::scenario::Scenario;

/// One seed's sweep statistics (the Monte-Carlo metric row).
struct SweepStats {
    kill_points: usize,
    wal_bytes: usize,
}

fn sweep(seed: u64) -> Result<SweepStats, String> {
    let journal = SharedJournal::new();
    let r = Scenario::builder()
        .seed(seed)
        .hosts(3)
        .chunk_minutes(6.0)
        .deadline_minutes(90)
        .horizon_hours(4)
        .equal_users(2, 80.0)
        // Seed-dependent host speeds so each seed exercises a genuinely
        // different allocation schedule (and thus a different WAL).
        .heterogeneity(0.2)
        .ledger(journal.clone())
        .run()
        .map_err(|e| format!("seed {seed}: scenario failed: {e}"))?;
    if !r.money_conserved() {
        return Err(format!(
            "seed {seed}: live run not conserved (minted {} held {})",
            r.total_minted, r.total_money
        ));
    }
    if !r.recovery_invariant_ok {
        return Err(format!("seed {seed}: dispatch/requeue invariant broken"));
    }

    let disk = journal.to_journal();
    let seed_bytes = seed.to_be_bytes();
    let mut boundaries = vec![0usize];
    boundaries.extend_from_slice(disk.record_ends());
    let auditor = ConservationAuditor::default();
    let mut last_spent: Vec<u64> = Vec::new();

    for &cut in &boundaries {
        let crashed = SharedJournal::from_journal(disk.crash_at(cut));
        let (bank, report) = Bank::recover(&seed_bytes, &crashed)
            .map_err(|e| format!("seed {seed}: recovery at {cut} failed: {e}"))?;
        if report.torn_tail_bytes != 0 || report.corrupt_records != 0 {
            return Err(format!("seed {seed}: boundary {cut} misread as damage"));
        }
        let audit = auditor.audit(&bank, Some(&crashed));
        if !audit.ok() || !audit.forgery_rejected {
            return Err(format!("seed {seed}: audit failed at {cut}: {audit:?}"));
        }
        let spent = bank.spent_token_ids();
        if !last_spent.iter().all(|id| spent.contains(id)) {
            return Err(format!("seed {seed}: boundary {cut} forgot a spent token"));
        }
        last_spent = spent;
    }

    Ok(SweepStats {
        kill_points: boundaries.len(),
        wal_bytes: disk.wal_len(),
    })
}

fn parse_seed(a: &str) -> u64 {
    if let Some(hex) = a.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("seed must be a u64 (hex)")
    } else {
        a.parse().expect("seed must be a u64")
    }
}

fn main() {
    let mut seeds: Vec<u64> = std::env::args().skip(1).map(|a| parse_seed(&a)).collect();
    if seeds.is_empty() {
        seeds = vec![2006, 7, 42];
    }
    // Fan the per-seed sweeps across the scenario runner: a failing seed
    // panics inside its task, gets quarantined with its seed as the
    // replay key, and the other seeds still finish.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mc = chaos_runner(threads);
    let batch = mc.run(&seeds, |seed| match sweep(seed) {
        Ok(stats) => stats,
        Err(msg) => panic!("{msg}"),
    });
    // Per-seed lines after the batch, in seed order: printed from inside
    // the tasks they would come out in completion order.
    for (seed, s) in batch.completed() {
        println!(
            "seed {seed}: {} kill points over {} WAL bytes — all recovered, audited, spent set intact",
            s.kill_points, s.wal_bytes
        );
    }
    let report = batch.report(|s| {
        vec![
            ("kill_points", s.kill_points as f64),
            ("wal_bytes", s.wal_bytes as f64),
        ]
    });
    println!("{}", report.render());
    if report.completed != report.requested {
        eprintln!("crash-matrix FAILED: {} seed(s) quarantined", report.quarantined.len());
        for f in batch.failures() {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("crash-matrix: all {} seeds passed", report.requested);
}
