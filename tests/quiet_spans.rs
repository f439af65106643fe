//! Quiet-span skipping against the per-tick oracle.
//!
//! After each stepped tick the `PolicyDriver` lets `TycoonPolicy` advance
//! the ticks in which no job runs and no bid is live in one
//! `skip_quiet` call. That call must leave exactly what stepping those
//! ticks one by one leaves. Each case here runs one seeded world twice:
//! through `TycoonPolicy` itself, and through [`PerTick`], a wrapper that
//! forwards every hook except `skip_quiet` and so steps every tick. The
//! two runs must agree bit for bit on the price traces, the telemetry
//! JSONL, the job outcomes and driver price samples, the bank's totals
//! and state digest, the monitor page and the final clock.
//!
//! The worlds cover the default chaos distribution, gray faults
//! (slowdowns, stalls, flapping hosts, and the probation they cause),
//! the attack cohorts under the armed guard (whose circuit breaker cools
//! down over ticks with no bids), and widely staggered arrivals with
//! horizons that can cut the run off inside a quiet span.
//!
//! The last case drives `Scenario` worlds through the build/drive seam:
//! a world from `Scenario::build`, driven through [`PerTick`] or plainly,
//! must report exactly what `Scenario::run` reports, and its bank must
//! checkpoint on the `LEDGER_SNAPSHOT_EVERY` cadence.

use std::fmt::Write as _;
use std::sync::Arc;

use gm_experiments::adversary::AttackKind;
use gm_experiments::ext_attack::{attack_cfg, hostile_stream};
use gm_experiments::ext_gray::gray_cfg;
use gm_experiments::mc::{chaos_driver, job_stream};
use gm_ledger::SharedJournal;
use gridmarket::des::check::{check, Gen};
use gridmarket::des::{FaultEvent, FaultPlan, SimDuration, SimTime};
use gridmarket::grid::AgentConfig;
use gridmarket::scenario::LEDGER_SNAPSHOT_EVERY;
use gridmarket::sched::{AllocationPolicy, JobOutcome, JobRequest, PolicyError, TickCtx};
use gridmarket::telemetry::{metrics_jsonl, trace_jsonl, Clock, ManualClock, Registry, Tracer};
use gridmarket::tycoon::GuardConfig;
use gridmarket::{tycoon_policy, ChaosConfig, TycoonPolicy};

/// Steps every tick: forwards every hook except `skip_quiet`.
struct PerTick<'a>(&'a mut TycoonPolicy);

impl AllocationPolicy for PerTick<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn begin_tick(&mut self, ctx: &TickCtx) {
        self.0.begin_tick(ctx)
    }
    fn apply_fault(&mut self, ctx: &TickCtx, ev: &FaultEvent) {
        self.0.apply_fault(ctx, ev)
    }
    fn admit(&mut self, ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        self.0.admit(ctx, req)
    }
    fn place(&mut self, ctx: &TickCtx) {
        self.0.place(ctx)
    }
    fn advance(&mut self, ctx: &TickCtx) {
        self.0.advance(ctx)
    }
    fn settle(&mut self, ctx: &TickCtx) {
        self.0.settle(ctx)
    }
    fn price(&self, ctx: &TickCtx) -> Option<f64> {
        self.0.price(ctx)
    }
    fn all_settled(&self) -> bool {
        self.0.all_settled()
    }
    fn outcomes(&self, now: SimTime) -> Vec<JobOutcome> {
        self.0.outcomes(now)
    }
}

/// One seeded world: hosts from `cfg`, faults from `plan`.
struct World {
    seed: u64,
    cfg: ChaosConfig,
    horizon: SimTime,
    plan: FaultPlan,
    jobs: Vec<JobRequest>,
    guard: GuardConfig,
}

impl World {
    fn chaos(seed: u64, cfg: ChaosConfig) -> World {
        World {
            seed,
            horizon: SimTime::ZERO + SimDuration::from_hours(cfg.horizon_hours),
            plan: FaultPlan::generate(seed, cfg.fault_gen()),
            jobs: job_stream(&cfg),
            cfg,
            guard: GuardConfig::default(),
        }
    }
}

/// Everything a run exposes, floats as raw bits.
struct Observed {
    ticks: u64,
    quiet_ticks: u64,
    breaker_trips: u64,
    final_now: SimTime,
    /// The policy's telemetry clock when the driver returned.
    clock_at_end: u64,
    price_trace: String,
    telemetry: String,
    outcomes: String,
    bank: String,
    monitor: String,
}

fn run(w: &World, per_tick: bool) -> Observed {
    let registry = Registry::new();
    let clock = ManualClock::new();
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let tracer = Tracer::new(4096, Arc::clone(&shared));
    let mut driver = chaos_driver(w.seed, &w.cfg)
        .horizon(w.horizon)
        .faults(w.plan.clone())
        .with_registry(&registry);
    let hosts = driver.host_specs();
    let mut policy = tycoon_policy(w.seed, hosts, AgentConfig::default(), Some(&registry), |market| {
        market.set_guard(w.guard);
        market.attach_telemetry(&registry, shared);
        market.attach_ledger(SharedJournal::default());
    })
    .with_clock(clock.clone())
    .with_tracer(tracer.clone());
    let r = if per_tick {
        driver.run(&mut PerTick(&mut policy), &w.jobs)
    } else {
        driver.run(&mut policy, &w.jobs)
    }
    .expect("valid job stream");
    let stats = *driver.stats();

    let mut price_trace = String::new();
    for (key, series) in policy.market().price_trace().iter() {
        for (t, v) in series.iter() {
            writeln!(price_trace, "{key} {} {:016x}", t.as_micros(), v.to_bits()).unwrap();
        }
    }
    let mut outcomes = String::new();
    for o in &r.outcomes {
        let bits = [o.makespan_secs, o.value, o.cost, o.avg_nodes].map(f64::to_bits);
        writeln!(
            outcomes,
            "{} {:?} {bits:x?} {} {:?}",
            o.id, o.user, o.max_nodes, o.finished_at
        )
        .unwrap();
    }
    for (t, p) in &r.price_history {
        writeln!(outcomes, "price {} {:016x}", t.as_micros(), p.to_bits()).unwrap();
    }
    let clock_at_end = clock.now_micros();
    clock.set_micros(stats.final_now.as_micros());
    let metrics = registry.snapshot();
    let telemetry = format!("{}{}", metrics_jsonl(&metrics), trace_jsonl(&tracer));
    let (market, jm) = policy.into_parts();
    let bank = market.bank();
    Observed {
        ticks: stats.ticks,
        quiet_ticks: stats.quiet_ticks,
        breaker_trips: metrics
            .counters
            .get("market.guard.breaker_trips")
            .copied()
            .unwrap_or(0),
        final_now: stats.final_now,
        clock_at_end,
        price_trace,
        telemetry,
        outcomes,
        bank: format!(
            "{:?} {:?} {:x?}",
            bank.total_money(),
            bank.total_minted(),
            bank.state_digest()
        ),
        monitor: gridmarket::grid::monitor::render(&market, &jm, 15),
    }
}

/// The first line where two renderings part, for a readable failure.
fn first_difference(a: &str, b: &str) -> String {
    let (mut la, mut lb) = (a.lines(), b.lines());
    for i in 1.. {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => break,
            (x, y) => return format!("line {i}: skipping {x:?}, per tick {y:?}"),
        }
    }
    String::new()
}

/// Run `w` both ways, require identical observations, and return the
/// skipping run's.
fn assert_skip_matches_per_tick(name: &str, w: &World) -> Observed {
    let skip = run(w, false);
    let step = run(w, true);
    assert_eq!(step.quiet_ticks, 0, "{name}: the per-tick run skipped");
    assert_eq!(skip.ticks, step.ticks, "{name}: tick counts differ");
    assert_eq!(
        skip.final_now, step.final_now,
        "{name}: final clocks differ"
    );
    assert_eq!(
        skip.clock_at_end, step.clock_at_end,
        "{name}: telemetry clocks differ"
    );
    for (what, a, b) in [
        ("price trace", &skip.price_trace, &step.price_trace),
        ("telemetry", &skip.telemetry, &step.telemetry),
        ("outcomes", &skip.outcomes, &step.outcomes),
        ("bank", &skip.bank, &step.bank),
        ("monitor", &skip.monitor, &step.monitor),
    ] {
        assert!(
            a == b,
            "{name} (seed {:#x}): {what} differs, {}",
            w.seed,
            first_difference(a, b)
        );
    }
    skip
}

#[test]
fn default_chaos_skips_match_per_tick_stepping() {
    let mut quiet = 0;
    check("quiet_spans_chaos", 6, |g: &mut Gen| {
        let cfg = ChaosConfig {
            subjobs: g.u64_in(2, 15) as u32,
            ..ChaosConfig::default()
        };
        quiet += assert_skip_matches_per_tick("chaos", &World::chaos(g.u64(), cfg)).quiet_ticks;
    });
    assert!(quiet > 0, "no chaos case skipped a tick");
}

#[test]
fn gray_fault_skips_match_per_tick_stepping() {
    let mut quiet = 0;
    check("quiet_spans_gray", 6, |g: &mut Gen| {
        let scenario = ["slowdown", "stall", "flapping"][g.usize_in(0, 2)];
        let mut cfg = gray_cfg(scenario);
        // A longer horizon spreads the faults past the jobs' end, so
        // hosts still on probation meet quiet ticks.
        cfg.horizon_hours = [2, 6][g.usize_in(0, 1)];
        quiet += assert_skip_matches_per_tick(scenario, &World::chaos(g.u64(), cfg)).quiet_ticks;
    });
    assert!(quiet > 0, "no gray case skipped a tick");
}

#[test]
fn guarded_attack_skips_match_per_tick_stepping() {
    // The default guard, and a hair-trigger breaker that trips on honest
    // moves too, so cooldowns run on into ticks with no bids.
    let hair_trigger = GuardConfig {
        breaker_band: 1.5,
        breaker_floor: 1e-4,
        ..GuardConfig::default()
    };
    let (mut quiet, mut trips) = (0, 0);
    check("quiet_spans_attack", 2, |g: &mut Gen| {
        let seed = g.u64();
        for kind in AttackKind::ALL {
            for guard in [GuardConfig::default(), hair_trigger] {
                let mut w = World::chaos(seed, attack_cfg());
                w.jobs.extend(hostile_stream(kind, seed, &w.cfg));
                w.guard = guard;
                let r = assert_skip_matches_per_tick(kind.name(), &w);
                quiet += r.quiet_ticks;
                trips += r.breaker_trips;
            }
        }
    });
    assert!(quiet > 0, "no attack case skipped a tick");
    assert!(trips > 0, "no attack case tripped the breaker");
}

#[test]
fn staggered_arrival_skips_match_per_tick_stepping() {
    let mut quiet = 0;
    check("quiet_spans_staggered", 6, |g: &mut Gen| {
        let seed = g.u64();
        let mut w = World::chaos(seed, ChaosConfig::default());
        if g.bool() {
            w.plan = FaultPlan::new();
        }
        // Horizons off the hourly audit grid can cut arrivals off, so
        // runs also end inside a quiet span, not on a stepped tick.
        w.horizon = SimTime::from_secs(g.u64_in(600, 12 * 3600));
        let mut at = SimTime::ZERO;
        for job in &mut w.jobs {
            at += SimDuration::from_secs(g.u64_in(0, 3 * 3600));
            job.arrival = at;
        }
        quiet += assert_skip_matches_per_tick("staggered", &w).quiet_ticks;
    });
    assert!(quiet > 0, "no staggered case skipped a tick");
}

#[test]
fn built_scenario_worlds_match_scenario_run_driven_either_way() {
    let mut quiet = 0;
    check("quiet_spans_scenario", 4, |g: &mut Gen| {
        let seed = g.u64();
        let scenario = ChaosConfig::default().scenario(seed);
        // Every field of the result, one per line; `f64`'s `Debug`
        // round-trips, so equal text is equal bits.
        let reference = format!("{:#?}", scenario.clone().run().expect("scenario runs"));
        for per_tick in [false, true] {
            let r = scenario
                .clone()
                .build()
                .run_with(|driver, policy, jobs| {
                    let cadence = policy.market().bank().snapshot_every();
                    assert_eq!(cadence, LEDGER_SNAPSHOT_EVERY, "built bank's checkpoint cadence");
                    let r = if per_tick {
                        driver.run(&mut PerTick(policy), jobs)
                    } else {
                        driver.run(policy, jobs)
                    };
                    quiet += driver.stats().quiet_ticks;
                    r
                })
                .expect("built world runs");
            let what = if per_tick { "per tick" } else { "plainly" };
            let got = format!("{r:#?}");
            assert!(
                got == reference,
                "seed {seed:#x}: the built world driven {what} differs from Scenario::run, {}",
                first_difference(&reference, &got)
            );
        }
    });
    assert!(quiet > 0, "no built scenario skipped a tick");
}
