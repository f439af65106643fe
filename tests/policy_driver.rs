//! Cross-policy properties of the unified scheduler core: every
//! allocator runs under the same [`PolicyDriver`], so conservation
//! invariants and regression pins can be asserted uniformly.
//!
//! A toy policy pins the driver's quiet-span contract
//! ([`AllocationPolicy::skip_quiet`]) against stepping every tick.
//!
//! `tests/golden/policy_outcomes.txt` pins every outcome of every policy
//! bit for bit. Regenerate it (only for an intended, reviewed change):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test policy_driver
//! ```

mod common;

use std::fmt::Write as _;

use common::{drive, hosts, workload};
use gm_baselines::{FifoPolicy, GCommercePolicy, Placement, Pricing, SharePolicy, WtaPolicy};
use gm_optimal::VcgSlaPolicy;
use gridmarket::des::check::{check, Gen};
use gridmarket::des::{FaultGenConfig, FaultMix, FaultPlan, SimDuration, SimTime};
use gridmarket::grid::AgentConfig;
use gridmarket::sched::{AllocationPolicy, JobRequest, PolicyDriver, RunResult, TickCtx};
use gridmarket::tycoon_policy;
use gridmarket::tycoon::{UserId, DEFAULT_INTERVAL_SECS};

/// Work conservation under *every* policy: no allocator invents
/// capacity. Each subjob needs 600 s at a full vCPU, so no job can beat
/// that bound, and the total slot-seconds consumed must fit within the
/// inventory's slot-seconds up to the last completion.
#[test]
fn no_policy_invents_capacity() {
    let inventory = hosts(3);
    let jobs = workload();
    let horizon = SimTime::from_secs(6 * 3600);
    let total_slots: f64 = inventory.iter().map(|h| h.cpus as f64).sum();
    // 4 jobs × 3 subjobs × 600 s of full-vCPU work.
    let total_slot_secs = 12.0 * 600.0;

    let mut fifo = FifoPolicy::default();
    let mut share = SharePolicy::new(Placement::LeastLoaded);
    let mut gc = GCommercePolicy::default();
    let mut wta = WtaPolicy::new(Pricing::FirstPrice);
    let mut ty = tycoon_policy(5, &inventory, AgentConfig::default(), None, |_| {});
    let policies: Vec<(&str, &mut dyn AllocationPolicy)> = vec![
        ("fifo", &mut fifo),
        ("share", &mut share),
        ("gcommerce", &mut gc),
        ("wta", &mut wta),
        ("tycoon", &mut ty),
    ];

    for (name, policy) in policies {
        let r = drive(policy, &inventory, &jobs, horizon);
        assert!(r.all_finished(), "{name}: workload must complete");
        for o in &r.outcomes {
            assert!(
                o.makespan_secs >= 600.0 - 1e-6,
                "{name}: job {} finished in {:.0}s — faster than physics",
                o.id,
                o.makespan_secs
            );
        }
        let last_done = r
            .outcomes
            .iter()
            .filter_map(|o| o.finished_at)
            .max()
            .expect("all finished")
            .since(SimTime::ZERO)
            .as_secs_f64();
        assert!(
            total_slots * last_done >= total_slot_secs - 1e-6,
            "{name}: {total_slot_secs} slot·s of work done in only {last_done:.0}s of wall clock"
        );
    }
}

/// Money conservation under the Tycoon policy: the bank's total holdings
/// equal the total ever minted once the run settles — escrows unwind,
/// charges move credits but never create or destroy them.
#[test]
fn tycoon_conserves_money_through_the_driver() {
    let inventory = hosts(3);
    let jobs = workload();
    let mut ty = tycoon_policy(5, &inventory, AgentConfig::default(), None, |_| {});
    let r = drive(&mut ty, &inventory, &jobs, SimTime::from_secs(6 * 3600));
    assert!(r.all_finished());

    let bank = ty.market().bank();
    let money = bank.total_money().as_f64();
    let minted = bank.total_minted().as_f64();
    assert!(
        (money - minted).abs() < 1e-6,
        "money not conserved: {money} in accounts vs {minted} minted"
    );
    // Charges are real and bounded by the token funding.
    for (o, j) in r.outcomes.iter().zip(&jobs) {
        assert!(o.cost > 0.0);
        assert!(o.cost <= j.budget + 1e-6, "job {} overspent its token", o.id);
    }
}

/// Regression pin: FIFO through the shared driver reproduces the exact
/// schedule of the dedicated pre-refactor `run()` loop. With 3 dual-CPU
/// hosts (6 exclusive slots) and 12 600-second subjobs arriving in 3-job
/// batches, the first two jobs run immediately and the last two queue
/// behind them.
#[test]
fn fifo_schedule_is_unchanged_by_the_driver_port() {
    let r = drive(
        &mut FifoPolicy::default(),
        &hosts(3),
        &workload(),
        SimTime::from_secs(6 * 3600),
    );
    assert!(r.all_finished());
    assert_eq!(r.batch_makespan_secs(), 1140.0);
    let finished: Vec<u64> = r
        .outcomes
        .iter()
        .map(|o| o.finished_at.unwrap().since(SimTime::ZERO).as_secs_f64() as u64)
        .collect();
    assert_eq!(finished, vec![630, 660, 1230, 1260]);
    let makespans: Vec<f64> = r.outcomes.iter().map(|o| o.makespan_secs).collect();
    assert_eq!(makespans, vec![600.0, 600.0, 1140.0, 1140.0]);
    for o in &r.outcomes {
        assert_eq!(o.max_nodes, 3, "every job ran all subjobs concurrently");
        assert!((o.avg_nodes - 3.0).abs() < 1e-9);
    }
}

/// The driver admits in `(arrival, id)` order and reruns are
/// deterministic: identical outcomes tick for tick.
#[test]
fn driver_runs_are_deterministic() {
    let run = || {
        drive(
            &mut SharePolicy::new(Placement::LeastLoaded),
            &hosts(2),
            &workload(),
            SimTime::from_secs(6 * 3600),
        )
    };
    let a = run();
    let b = run();
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.finished_at, ob.finished_at);
        assert_eq!(oa.makespan_secs, ob.makespan_secs);
        assert_eq!(oa.cost, ob.cost);
    }
}

/// Jobs whose arrival lies past the horizon are reported as synthesized
/// zero outcomes rather than dropped.
#[test]
fn late_arrivals_get_zero_outcomes() {
    let mut jobs = workload();
    jobs[3].arrival = SimTime::from_secs(10 * 3600); // past the horizon
    let r = drive(
        &mut FifoPolicy::default(),
        &hosts(3),
        &jobs,
        SimTime::from_secs(2 * 3600),
    );
    assert!(!r.all_finished());
    let late = &r.outcomes[3];
    assert_eq!(late.finished_at, None);
    assert_eq!(late.cost, 0.0);
    assert_eq!(late.max_nodes, 0);
    for o in &r.outcomes[..3] {
        assert!(o.finished_at.is_some(), "on-time jobs still complete");
    }
}

/// The VCG chaos run of `tests/vcg_policy.rs` (`run_chaos`): four
/// 4-subjob jobs on four hosts under crashes, a VM failure, a bank
/// outage and restart, and a link outage.
fn vcg_chaos(seed: u64) -> RunResult {
    let jobs: Vec<JobRequest> = (0..4)
        .map(|i| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: 4,
            work_per_subjob: 1.5e6,
            arrival: SimTime::ZERO + SimDuration::from_secs(30 * u64::from(i)),
            budget: 50.0 + 25.0 * f64::from(i),
            deadline_secs: 3600.0,
        })
        .collect();
    let plan = FaultPlan::generate(
        seed,
        FaultGenConfig {
            hosts: 4,
            horizon: SimTime::ZERO + SimDuration::from_secs(3600),
            mix: FaultMix {
                crashes: 2,
                mean_downtime: SimDuration::from_secs(600),
                vm_failures: 1,
                bank_outages: 1,
                outage_len: SimDuration::from_secs(300),
                bank_restarts: 1,
                link_outages: 1,
                link_outage_len: SimDuration::from_secs(300),
                adversary_arrivals: 0,
                ..FaultMix::default()
            },
        },
    );
    PolicyDriver::new(hosts(4), DEFAULT_INTERVAL_SECS)
        .horizon(SimTime::ZERO + SimDuration::from_secs(6 * 3600))
        .faults(plan)
        .run(&mut VcgSlaPolicy::new(seed), &jobs)
        .expect("valid jobs")
}

/// Every outcome field and price sample of one run, floats as raw bits.
fn dump(out: &mut String, name: &str, r: &RunResult) {
    writeln!(out, "== {name}").unwrap();
    for o in &r.outcomes {
        let [m, v, c, a] = [o.makespan_secs, o.value, o.cost, o.avg_nodes].map(f64::to_bits);
        let (id, user, peak) = (o.id, o.user.0, o.max_nodes);
        let done = o.finished_at.map(|t| t.as_micros());
        writeln!(
            out,
            "job {id} user {user} makespan {m:016x} value {v:016x} cost {c:016x} \
             avg_nodes {a:016x} max_nodes {peak} finished_at {done:?}"
        )
        .unwrap();
    }
    for (t, p) in &r.price_history {
        writeln!(out, "price {} {:016x}", t.as_micros(), p.to_bits()).unwrap();
    }
}

/// Byte-identity pin of every policy's outcome bookkeeping (makespan,
/// value, cost, average and peak concurrency, completion time) and price
/// series, recorded before the policies shared one outcome constructor.
#[test]
fn every_policy_outcome_matches_the_golden_bits() {
    const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/policy_outcomes.txt");
    let inventory = hosts(3);
    let jobs = workload();
    let horizon = SimTime::from_secs(6 * 3600);
    let mut policies: Vec<(&str, Box<dyn AllocationPolicy>)> = vec![
        ("fifo", Box::new(FifoPolicy::default())),
        ("share least-loaded", Box::new(SharePolicy::new(Placement::LeastLoaded))),
        ("share round-robin", Box::new(SharePolicy::new(Placement::RoundRobin))),
        ("gcommerce", Box::new(GCommercePolicy::default())),
        ("wta first-price", Box::new(WtaPolicy::new(Pricing::FirstPrice))),
        ("wta second-price", Box::new(WtaPolicy::new(Pricing::SecondPrice))),
        ("tycoon seed 5", Box::new(tycoon_policy(5, &inventory, AgentConfig::default(), None, |_| {}))),
        ("vcg seed 7", Box::new(VcgSlaPolicy::new(7))),
    ];
    let mut out = String::new();
    for (name, policy) in &mut policies {
        dump(&mut out, name, &drive(policy.as_mut(), &inventory, &jobs, horizon));
    }
    dump(&mut out, "vcg chaos seed 0xBEEF", &vcg_chaos(0xBEEF));
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN, &out).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden snapshot missing; run GOLDEN_REGEN=1 cargo test --test policy_driver");
    for (i, (want, got)) in golden.lines().zip(out.lines()).enumerate() {
        assert_eq!(want, got, "golden mismatch at line {}", i + 1);
    }
    assert_eq!(golden, out, "golden mismatch: line counts differ");
}

/// A toy policy for the quiet-span contract. Each admitted job needs a
/// number of ticks of work, each fault a few ticks of repair; in between
/// the toy is idle and, when `skips` is set, skips every tick it is
/// offered (at most `cap` per call). It logs each hook with its tick,
/// and logs a skipped tick as the hooks an idle tick would have run.
struct Toy {
    skips: bool,
    cap: u64,
    work: Vec<u64>,
    repair: u64,
    done: u32,
    log: Vec<String>,
    /// What the toy checks each offer against: the plan's fault times,
    /// the arrival times in admission order, the horizon, the tick.
    fault_times: Vec<SimTime>,
    faults_seen: usize,
    arrivals: Vec<SimTime>,
    dt: SimDuration,
    horizon: SimTime,
}

impl Toy {
    fn idle(&self) -> bool {
        self.repair == 0 && self.work.iter().all(|&w| w == 0)
    }

    /// Ticks `now, now + dt, …` strictly before `t`.
    fn ticks_before(&self, now: SimTime, t: SimTime) -> u64 {
        let dt = self.dt.as_micros();
        t.as_micros().saturating_sub(now.as_micros()).div_ceil(dt)
    }
}

impl AllocationPolicy for Toy {
    fn name(&self) -> &'static str {
        "toy"
    }
    fn begin_tick(&mut self, ctx: &TickCtx) {
        self.log.push(format!("begin {}", ctx.now.as_micros()));
    }
    fn apply_fault(&mut self, ctx: &TickCtx, ev: &gridmarket::des::FaultEvent) {
        self.faults_seen += 1;
        self.repair += 1 + u64::from(ev.target % 3);
        self.log.push(format!("fault {} {:?}", ctx.now.as_micros(), ev.kind));
    }
    fn admit(&mut self, ctx: &TickCtx, req: &JobRequest) -> Result<(), gridmarket::PolicyError> {
        self.work.push(u64::from(req.subjobs));
        self.log.push(format!("admit {} {}", ctx.now.as_micros(), req.id));
        Ok(())
    }
    fn place(&mut self, ctx: &TickCtx) {
        self.log.push(format!("place {}", ctx.now.as_micros()));
    }
    fn advance(&mut self, ctx: &TickCtx) {
        self.repair = self.repair.saturating_sub(1);
        if let Some(w) = self.work.iter_mut().find(|w| **w > 0) {
            *w -= 1;
            if *w == 0 {
                self.done += 1;
            }
        }
        self.log.push(format!("advance {}", ctx.now.as_micros()));
    }
    fn settle(&mut self, ctx: &TickCtx) {
        self.log.push(format!("settle {}", ctx.now.as_micros()));
    }
    fn price(&self, _ctx: &TickCtx) -> Option<f64> {
        // Posts on even counts only, so skipped spans cover `None` too.
        self.done.is_multiple_of(2).then_some(f64::from(self.done) * 0.25)
    }
    fn skip_quiet(&mut self, ctx: &TickCtx, max: u64) -> u64 {
        let next_fault = self.fault_times.get(self.faults_seen).copied();
        let next_arrival = self.arrivals.get(self.work.len()).copied();
        let allowed = [next_fault, next_arrival, Some(self.horizon)]
            .into_iter()
            .flatten()
            .map(|t| self.ticks_before(ctx.now, t))
            .min()
            .unwrap_or(0);
        assert!(max > 0, "offered an empty span at {:?}", ctx.now);
        assert_eq!(max, allowed, "offered {max} ticks at {:?}, {allowed} lie before the next event", ctx.now);
        if !self.skips || !self.idle() {
            return 0;
        }
        let k = max.min(self.cap);
        for i in 0..k {
            let t = (ctx.now + self.dt * i).as_micros();
            for hook in ["begin", "place", "advance", "settle"] {
                self.log.push(format!("{hook} {t}"));
            }
        }
        k
    }
    fn all_settled(&self) -> bool {
        self.idle()
    }
    fn outcomes(&self, _now: SimTime) -> Vec<gridmarket::sched::JobOutcome> {
        Vec::new()
    }
}

/// The driver's quiet-span contract: a policy that skips whenever it is
/// offered a span ends with the same tick count, final clock, price
/// samples and hook sequence as the same policy stepped tick by tick,
/// and is never offered a span that reaches a due fault, an arrival or
/// the horizon (the toy asserts each offer is exactly the ticks before
/// the nearest of the three).
#[test]
fn skipping_quiet_spans_matches_stepping_every_tick() {
    let mut skipped = 0;
    check("driver_quiet_spans", 300, |g: &mut Gen| {
        let dt = SimDuration::from_micros(g.u64_in(1, 30) * 500_000);
        let horizon = SimTime::from_secs(g.u64_in(0, 4 * 3600));
        let jobs: Vec<JobRequest> = (0..g.u64_in(0, 5) as u32)
            .map(|id| JobRequest {
                id,
                user: UserId(id + 1),
                subjobs: g.u64_in(1, 40) as u32,
                work_per_subjob: 1.0,
                arrival: SimTime::from_micros(g.u64_in(0, 5 * 3600 * 1_000_000)),
                budget: 1.0,
                deadline_secs: 60.0,
            })
            .collect();
        let mut plan = FaultPlan::new();
        for _ in 0..g.u64_in(0, 6) {
            let at = SimTime::from_micros(g.u64_in(0, 5 * 3600 * 1_000_000));
            plan.host_crash(at, g.u64_in(0, 5) as u32);
        }
        let mut arrivals: Vec<(SimTime, u32)> = jobs.iter().map(|j| (j.arrival, j.id)).collect();
        arrivals.sort();
        let cap = if g.bool() { u64::MAX } else { g.u64_in(1, 50) };
        let run = |skips: bool| {
            let mut toy = Toy {
                skips,
                cap,
                work: Vec::new(),
                repair: 0,
                done: 0,
                log: Vec::new(),
                fault_times: plan.events().iter().map(|e| e.at).collect(),
                faults_seen: 0,
                arrivals: arrivals.iter().map(|a| a.0).collect(),
                dt,
                horizon,
            };
            let mut driver = PolicyDriver::new(hosts(2), dt.as_secs_f64())
                .horizon(horizon)
                .faults(plan.clone());
            let r = driver.run(&mut toy, &jobs).expect("valid jobs");
            (*driver.stats(), r.price_history, toy.log)
        };
        let (skip, skip_prices, skip_log) = run(true);
        let (step, step_prices, step_log) = run(false);
        assert_eq!(step.quiet_ticks, 0);
        assert_eq!(
            (skip.ticks, skip.final_now, skip.admitted, skip.faults_injected),
            (step.ticks, step.final_now, step.admitted, step.faults_injected)
        );
        assert_eq!(skip_prices, step_prices, "price samples differ");
        assert_eq!(skip_log, step_log, "hook sequences differ");
        skipped += skip.quiet_ticks;
    });
    assert!(skipped > 0, "no case skipped a tick");
}
