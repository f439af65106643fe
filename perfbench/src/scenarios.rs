//! The two scenario workloads: `table1_paper` and `chaos_sweep`.
//!
//! Both time their plain passes on the program's own path
//! (`Scenario::run`; `chaos_runner(1)` + `chaos_scenario`), which builds
//! its world and drives it in one call. The set-up builds the same worlds
//! from public APIs ([`World::build`]), so it can be timed apart from the
//! drive; a traced pass drives the world it built through
//! `PolicyDriver::run` behind the [`Timed`](crate::trace::Timed) wrapper.
//! The program's path runs once first as the warm-up and the reference,
//! and every pass, plain or traced, must reproduce it exactly.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gm_core::McBatch;
use gm_des::{Rng64, SplitMix64};
use gm_grid::JobPhase;
use gridmarket::scenario::ScenarioResult;
use gridmarket::{chaos_runner, chaos_scenario, ChaosConfig, ChaosMetrics};

use crate::stats::{mean, peak_rss_mb, quantile, Digest};
use crate::trace::Tally;
use crate::world::{same_result, user_digest, Spec, World};
use crate::{passes, Args, Layer, Outcome, PassClock, SetupClock};

/// Seeds in one `chaos_sweep` block. A seed costs 45–100 ms with a
/// coefficient of variation of ~0.14, so the block's cost varies by ~2.5%
/// from one workload seed to the next.
const CHAOS_BLOCK: usize = 32;
/// Seeds of the block the traced run re-runs as the puzzle variants.
const PUZZLE_SEEDS: usize = 8;
/// Passes per run: a Table-1 pass takes 1.1–1.5 s, a chaos block 2–3 s.
const TABLE1_PASSES: usize = 20;
const CHAOS_PASSES: usize = 14;
/// Builds per set-up batch: a Table-1 world takes ~65 µs, a chaos block
/// of worlds ~1.1–1.6 ms.
const TABLE1_BUILDS: usize = 64;
const CHAOS_BUILDS: usize = 8;

/// Counters read from each run's `MetricsSnapshot`. All but the two that
/// only feed ratios are also reported as exact counts.
const COUNTERS: [&str; 11] = [
    "driver.ticks",
    "market.bids_placed",
    "market.bids_rejected",
    "market.bank_transfers",
    "ledger.appends",
    "ledger.records_replayed",
    "grid.dispatches",
    "grid.redispatches",
    "grid.degraded_quotes",
    "predict.samples",
    "faults.injected",
];
const RATIO_ONLY: [&str; 2] = ["market.bids_rejected", "grid.redispatches"];

fn counters(r: &ScenarioResult) -> [u64; COUNTERS.len()] {
    COUNTERS.map(|n| r.metrics.counters.get(n).copied().unwrap_or(0))
}

/// Timings of the passes of a scenario workload.
struct Pass {
    setup: SetupClock,
    run: PassClock,
    traced: PassClock,
    report_s: f64,
    tally: Tally,
}

impl Pass {
    fn new(builds: usize) -> Pass {
        Pass {
            setup: SetupClock::new(builds),
            run: PassClock::default(),
            traced: PassClock::default(),
            report_s: 0.0,
            tally: Tally::default(),
        }
    }
}

/// Table 1's own checks: every job done, money conserved exactly, and
/// the late users (3–5) hold no more nodes on average than the early
/// ones (1–2).
fn table1_ok(r: &ScenarioResult) -> bool {
    let nodes = |us: &[gridmarket::UserReport]| {
        us.iter().map(|u| u.nodes as f64).sum::<f64>() / us.len() as f64
    };
    r.users.len() == 5
        && r.all_done()
        && r.total_money == r.total_minted
        && nodes(&r.users[2..]) <= nodes(&r.users[..2])
}

pub fn table1(args: &Args) -> Outcome {
    let spec = Spec::table1(SplitMix64::new(args.seed).next_u64());
    let reference = spec.scenario().run().expect("table1 scenario");
    let peak_rss_mb = peak_rss_mb();
    let mut correct = table1_ok(&reference);
    println!(
        "table1_paper: {} ticks, users digest {:016x}, checks {}",
        reference
            .metrics
            .counters
            .get("driver.ticks")
            .copied()
            .unwrap_or(0),
        user_digest(&reference),
        if correct { "ok" } else { "FAILED" }
    );
    let (mut jobs, mut unfinished) = (0u64, 0u64);
    let mut p = Pass::new(TABLE1_BUILDS);
    passes(args.seconds, TABLE1_PASSES, |i| {
        let traced = args.trace && i % 2 == 1;
        let world = p.setup.batch(|| World::build(&spec));
        let r = if traced {
            let mut tally = Tally::default();
            let t0 = Instant::now();
            let (r, report_s) = world.run(Some(&mut tally));
            p.traced.record(t0.elapsed().as_secs_f64(), &[]);
            p.report_s += report_s;
            p.tally.absorb(tally);
            r
        } else {
            drop(world);
            let scenario = spec.scenario();
            let t0 = Instant::now();
            let r = scenario.run().expect("table1 scenario");
            p.run.record(t0.elapsed().as_secs_f64(), &[]);
            r
        };
        correct &= same_result(&r, &reference) && table1_ok(&r);
        jobs += r.users.len() as u64;
        unfinished += r.users.iter().filter(|u| u.phase != JobPhase::Done).count() as u64;
    });
    let mut out = Outcome::new(correct, jobs, unfinished);
    if args.trace {
        scenario_layers(&mut out, "table1_paper", &p, &counters(&reference), &[]);
    } else {
        out.end_to_end(&p.run, &p.setup, peak_rss_mb);
    }
    out
}

/// One seed of a traced chaos pass.
struct SeedRun {
    rows: Vec<(&'static str, f64)>,
    digest: u64,
    counters: [u64; COUNTERS.len()],
    run_s: f64,
    report_s: f64,
    tally: Tally,
}

/// Drive `worlds` (one per seed) through the Monte-Carlo runner on one
/// worker behind the timing wrapper, with `chaos_scenario`'s safety
/// checks on every seed.
fn traced_chaos_pass(
    runner: &gm_core::MonteCarlo,
    seeds: &[u64],
    worlds: Vec<World>,
    deadline_minutes: u64,
) -> McBatch<SeedRun> {
    let slots = Arc::new(Mutex::new(worlds.into_iter().map(Some).collect::<Vec<_>>()));
    let items: Vec<(u64, usize)> = seeds.iter().copied().zip(0..).collect();
    runner.run_tagged(&items, move |seed, &i| {
        let world = slots.lock().expect("world slots")[i]
            .take()
            .expect("one world per seed");
        let mut tally = Tally::default();
        let t0 = Instant::now();
        let (r, report_s) = world.run(Some(&mut tally));
        let run_s = t0.elapsed().as_secs_f64();
        assert!(
            r.recovery_invariant_ok,
            "recovery invariant violated (seed {seed:#x})"
        );
        let m = ChaosMetrics::of(&r, deadline_minutes);
        assert!(
            m.conservation_residual < 1e-6,
            "money not conserved (seed {seed:#x})"
        );
        let mut d = Digest::new();
        d.u64(user_digest(&r));
        d.str(&r.telemetry_jsonl);
        SeedRun {
            rows: m.rows(),
            digest: d.finish(),
            counters: counters(&r),
            run_s,
            report_s,
            tally,
        }
    })
}

/// The program's own chaos path, `chaos_scenario` on every seed through
/// the runner, with the wall time of each seed. A quarantined seed reads
/// 0 s; it has already failed the checks.
fn chaos_pass(
    runner: &gm_core::MonteCarlo,
    seeds: &[u64],
    cfg: &ChaosConfig,
) -> (McBatch<ChaosMetrics>, Vec<f64>) {
    let seed_s = Arc::new(Mutex::new(vec![0.0; seeds.len()]));
    let items: Vec<(u64, usize)> = seeds.iter().copied().zip(0..).collect();
    let batch = {
        let (cfg, seed_s) = (cfg.clone(), Arc::clone(&seed_s));
        runner.run_tagged(&items, move |seed, &i| {
            let t0 = Instant::now();
            let m = chaos_scenario(seed, &cfg);
            seed_s.lock().expect("seed times")[i] = t0.elapsed().as_secs_f64();
            m
        })
    };
    let seed_s = seed_s.lock().expect("seed times").clone();
    (batch, seed_s)
}

fn rows_digest<'a>(rows: impl Iterator<Item = &'a Vec<(&'static str, f64)>>) -> u64 {
    let mut d = Digest::new();
    for row in rows {
        for (name, v) in row {
            d.str(name);
            d.f64(*v);
        }
    }
    d.finish()
}

pub fn chaos(args: &Args) -> Outcome {
    let cfg = ChaosConfig::default();
    let seeds = gm_core::seed_stream(args.seed, CHAOS_BLOCK);
    let (reference, _) = chaos_pass(&chaos_runner(1), &seeds, &cfg);
    let peak_rss_mb = peak_rss_mb();
    let ref_rows: Vec<Vec<(&'static str, f64)>> =
        reference.completed().map(|(_, m)| m.rows()).collect();
    let ref_digest = rows_digest(ref_rows.iter());
    let mut correct = reference.quarantined_seeds().is_empty();
    println!(
        "chaos_sweep: {} seeds, {} quarantined, metric rows digest {ref_digest:016x}",
        seeds.len(),
        reference.quarantined_seeds().len(),
    );
    drop(reference);
    let build_block = || {
        let worlds: Vec<World> = seeds
            .iter()
            .map(|&s| World::build(&Spec::chaos(&cfg, s)))
            .collect();
        (worlds, chaos_runner(1))
    };
    let (mut attempted, mut quarantined) = (0u64, 0u64);
    let mut p = Pass::new(CHAOS_BUILDS);
    let mut seed_ms = Vec::new();
    let mut run_digests: Option<Vec<u64>> = None;
    let mut block_counters = [0u64; COUNTERS.len()];
    passes(args.seconds, CHAOS_PASSES, |i| {
        let traced = args.trace && i % 2 == 1;
        let (worlds, runner) = p.setup.batch(build_block);
        let (rows, residual, failed) = if traced {
            let t0 = Instant::now();
            let batch = traced_chaos_pass(&runner, &seeds, worlds, cfg.deadline_minutes);
            let report = batch.report(|s| s.rows.clone());
            let secs = t0.elapsed().as_secs_f64();
            let seed_s: Vec<f64> = batch
                .outcomes
                .iter()
                .map(|o| o.result.as_ref().map_or(0.0, |s| s.run_s))
                .collect();
            let first = p.traced.passes() == 0;
            p.traced.record(secs, &seed_s);
            let digests: Vec<u64> = batch.completed().map(|(_, s)| s.digest).collect();
            correct &= *run_digests.get_or_insert_with(|| digests.clone()) == digests;
            let rows: Vec<_> = batch.completed().map(|(_, s)| s.rows.clone()).collect();
            let failed = batch.quarantined_seeds().len();
            for o in batch.outcomes {
                if let Ok(s) = o.result {
                    seed_ms.push(s.run_s * 1e3);
                    p.report_s += s.report_s;
                    if first {
                        for (acc, c) in block_counters.iter_mut().zip(s.counters) {
                            *acc += c;
                        }
                    }
                    p.tally.absorb(s.tally);
                }
            }
            (
                rows,
                report.metric("conservation_residual").map(|s| s.max),
                failed,
            )
        } else {
            drop(worlds);
            let t0 = Instant::now();
            let (batch, seed_s) = chaos_pass(&runner, &seeds, &cfg);
            let report = batch.report(|m| m.rows());
            p.run.record(t0.elapsed().as_secs_f64(), &seed_s);
            let rows: Vec<_> = batch.completed().map(|(_, m)| m.rows()).collect();
            let failed = batch.quarantined_seeds().len();
            (
                rows,
                report.metric("conservation_residual").map(|s| s.max),
                failed,
            )
        };
        attempted += seeds.len() as u64;
        quarantined += failed as u64;
        correct &= failed == 0 && residual == Some(0.0) && rows_digest(rows.iter()) == ref_digest;
    });
    let mut out = Outcome::new(correct, attempted, quarantined);
    if args.trace {
        let mc = [
            ("mc.seed_ms_p50", quantile(&seed_ms, 0.5), "ms"),
            ("mc.seed_ms_max", quantile(&seed_ms, 1.0), "ms"),
        ];
        scenario_layers(&mut out, "chaos_sweep", &p, &block_counters, &mc);
        puzzle(&cfg, &seeds[..PUZZLE_SEEDS]);
    } else {
        out.end_to_end(&p.run, &p.setup, peak_rss_mb);
    }
    out
}

/// The per-layer metrics and the hot-layer ranking of a traced scenario
/// workload. Times are per pass (one world, or one block of seeds).
fn scenario_layers(
    out: &mut Outcome,
    workload: &str,
    p: &Pass,
    counts: &[u64; COUNTERS.len()],
    extra: &[(&'static str, f64, &'static str)],
) {
    let n = p.traced.passes() as f64;
    let t = &p.tally;
    let run = p.traced.mean_pass_s();
    let per = |s: f64| s / n;
    let (restart_s, restarts) = t.restart();
    let hooks = per(t.hooks_s());
    let report = per(p.report_s);
    let driver_self = run - hooks - report;
    let c = |name: &str| {
        counts[COUNTERS
            .iter()
            .position(|&x| x == name)
            .expect("known counter")] as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let metrics = [
        ("driver.self_s", driver_self, "s"),
        ("report.assemble_s", report, "s"),
        ("grid.admit_s", per(t.admit_s), "s"),
        ("grid.admit_calls", per(t.admit_calls as f64), "count"),
        ("grid.pre_tick_s", per(t.pre_tick_s()), "s"),
        ("grid.pre_tick_us_p50", quantile(&t.pre_tick_us, 0.5), "us"),
        ("grid.pre_tick_us_p99", quantile(&t.pre_tick_us, 0.99), "us"),
        ("grid.fault_s", per(t.fault_s()), "s"),
        (
            "grid.redispatch_ratio",
            ratio(c("grid.redispatches"), c("grid.dispatches")),
            "ratio",
        ),
        ("market.advance_s", per(t.advance_s()), "s"),
        ("market.advance_us_p50", quantile(&t.advance_us, 0.5), "us"),
        ("ledger.audit_s", per(t.audit_s()), "s"),
        ("ledger.audits", per(t.audit_ms.len() as f64), "count"),
        ("ledger.audit_ms_mean", mean(&t.audit_ms), "ms"),
        ("ledger.restart_s", per(restart_s), "s"),
        ("ledger.restarts", per(restarts as f64), "count"),
        ("ledger.replayed_per_audit", mean(&t.audit_records), "count"),
        (
            "market.bid_reject_ratio",
            ratio(
                c("market.bids_rejected"),
                c("market.bids_placed") + c("market.bids_rejected"),
            ),
            "ratio",
        ),
        ("policy.glue_s", per(t.glue_s.get()), "s"),
        (
            "trace.overhead",
            p.traced.pass_s() / p.run.pass_s() - 1.0,
            "ratio",
        ),
    ];
    for m in metrics.into_iter().chain(extra.iter().copied()) {
        out.layer(m.0, m.1, m.2);
    }
    for (&name, &count) in COUNTERS.iter().zip(counts) {
        if !RATIO_ONLY.contains(&name) {
            out.layer(name, count as f64, "count");
        }
    }
    out.correct &= crate::print_ranking(
        workload,
        run,
        &[
            Layer::new(
                "gm-grid",
                "JobManager::pre_tick (place)",
                per(t.pre_tick_s()),
            ),
            Layer::new(
                "gm-tycoon",
                "Market::tick + post_tick (advance)",
                per(t.advance_s()),
            ),
            Layer::new(
                "gm-ledger",
                "hourly conservation audit (settle)",
                per(t.audit_s()),
            ),
            Layer::new(
                "gm-ledger",
                "BankRestart: Bank::recover + audit",
                per(restart_s),
            ),
            Layer::new("gm-grid", "fault handlers (apply_fault)", per(t.fault_s())),
            Layer::new("gm-grid", "token + xRSL + submit (admit)", per(t.admit_s)),
            Layer::new("gridmarket", "report assembly", report),
            Layer::new(
                "gridmarket",
                "policy glue (tick clock, price, settled)",
                per(t.glue_s.get()),
            ),
        ],
        driver_self,
    );
    for (kind, (s, k)) in &t.faults {
        println!(
            "  fault {kind:<16} {k:>5} calls  {:>10.3} ms per pass",
            per(*s) * 1e3
        );
    }
}

/// Why a gray-free chaos seed costs ~10× the honest run of the attack
/// bench (`BENCH_gray.json` against `BENCH_attack.json`): re-run seeds of
/// the block with the two differences removed one at a time. The attack
/// bench gives each user `cfg.subjobs` sub-jobs and runs without a bank
/// journal; a chaos world gets the `UserSetup` default of 15 sub-jobs
/// (`ChaosConfig::scenario` ignores `cfg.subjobs`) and the journal
/// `Scenario::run` attaches, which makes every hourly audit replay it and
/// every `BankRestart` recover from it.
fn puzzle(cfg: &ChaosConfig, seeds: &[u64]) {
    let variants = [
        ("chaos world: 15 sub-jobs, journal", None, true),
        ("cfg.subjobs sub-jobs, journal", Some(cfg.subjobs), true),
        ("cfg.subjobs sub-jobs, no journal", Some(cfg.subjobs), false),
    ];
    println!("puzzle, {} seeds of the block, per seed:", seeds.len());
    let mut per_seed_ms = Vec::new();
    for (label, subjobs, journal) in variants {
        let mut tally = Tally::default();
        let mut secs = 0.0;
        for &seed in seeds {
            let mut spec = Spec::chaos(cfg, seed);
            spec.journal = journal;
            if let Some(n) = subjobs {
                spec.users = spec.users.into_iter().map(|u| u.subjobs(n)).collect();
            }
            let world = World::build(&spec);
            let t0 = Instant::now();
            world.run(Some(&mut tally));
            secs += t0.elapsed().as_secs_f64();
        }
        let per = |s: f64| s * 1e3 / seeds.len() as f64;
        println!(
            "  {label:<36} {:>8.2} ms  (pre_tick {:.2}, audits {:.2}, restart {:.2}, {} ticks)",
            per(secs),
            per(tally.pre_tick_s()),
            per(tally.audit_s()),
            per(tally.restart().0),
            tally.pre_tick_us.len() / seeds.len()
        );
        per_seed_ms.push(per(secs));
    }
    println!(
        "  sub-job factor {:.2}x, journal factor {:.2}x, together {:.2}x",
        per_seed_ms[0] / per_seed_ms[1],
        per_seed_ms[1] / per_seed_ms[2],
        per_seed_ms[0] / per_seed_ms[2]
    );
}
