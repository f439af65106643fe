//! End-to-end experiment scenarios (the paper's §5 setup).
//!
//! A [`Scenario`] assembles the whole stack — market, hosts, broker, grid
//! users with bank accounts, the bio workload, transfer tokens — and runs
//! it on the deterministic clock: users are "launched in sequence with a
//! slight delay to allow the best response selection to take the previous
//! job funding into account" (§5.2), the market reallocates every 10 s,
//! and the result carries exactly the metrics of Tables 1–2: **Time** (h),
//! **Cost** ($/h), **Latency** (min/job) and **Nodes**.
//!
//! Building is apart from driving: [`Scenario::build`] assembles a
//! [`World`], [`World::run_with`] drives it with the caller's drive step
//! (the plain `driver.run`, or the policy behind a timing or per-tick
//! wrapper) and reports, and [`Scenario::run`] does both.

use std::sync::Arc;

use gm_bio::workload::BioWorkload;
use gm_bio::CHUNK_MINUTES_AT_FULL_CPU;
use gm_core::{JobRequest, PolicyDriver, PolicyError, RunResult};
use gm_des::{FaultPlan, SimDuration, SimTime, Trace};
use gm_grid::{AgentConfig, FaultCounters, GridError, JobId, JobPhase};
use gm_ledger::SharedJournal;
use gm_telemetry::{metrics_jsonl, trace_jsonl, Clock, ManualClock, MetricsSnapshot, Registry, Tracer};
use gm_tycoon::{GuardConfig, HostSpec, UserId};

use crate::policy::{tycoon_policy, TycoonJobSetup, TycoonPolicy};

/// Capacity of the scenario's fault-event trace ring. Fault plans are
/// hand-written schedules, so this is far more than any run produces.
const TRACE_CAPACITY: usize = 4096;

/// The bank checkpoints its journal after this many journaled events
/// (`Bank::set_snapshot_every`), so a `BankRestart` recovery and each
/// hourly audit replay a snapshot plus fewer than this many WAL records.
/// DESIGN.md §11 gives the measurements behind the value.
pub const LEDGER_SNAPSHOT_EVERY: u64 = 64;

/// The seeded heterogeneous testbed every scenario runs on: `n` hosts
/// with CPU speeds jittered uniformly in `base·(1 ± heterogeneity)`,
/// deterministically from the seed. Exposed so baseline policies (which
/// build their host lists outside [`Scenario`]) can run on the
/// *identical* hardware world for a given seed — the Monte-Carlo
/// per-policy comparison depends on it.
pub fn jittered_hosts(seed: u64, n: u32, heterogeneity: f64) -> Vec<HostSpec> {
    let mut host_rng = gm_des::Pcg32::new(seed, 0x05f5);
    let mut specs = Vec::with_capacity(n as usize);
    for i in 0..n {
        let mut spec = HostSpec::testbed(i);
        if heterogeneity > 0.0 {
            use gm_des::Rng64;
            let jitter = 1.0 + heterogeneity * (2.0 * host_rng.next_f64() - 1.0);
            spec.cpu_mhz *= jitter;
        }
        specs.push(spec);
    }
    specs
}

/// Per-user scenario parameters.
#[derive(Clone, Debug)]
pub struct UserSetup {
    /// Credits attached to the job's transfer token.
    pub funding: f64,
    /// Number of sub-jobs (defaults to the paper's 15).
    pub subjobs: u32,
    /// Display label.
    pub label: String,
    /// Submission delay after the previous user (seconds).
    pub stagger_secs: u64,
}

impl UserSetup {
    /// A user funding its job with `funding` credits.
    pub fn new(funding: f64) -> UserSetup {
        UserSetup {
            funding,
            subjobs: 15,
            label: String::new(),
            stagger_secs: 30,
        }
    }

    /// Set the number of sub-jobs.
    pub fn subjobs(mut self, n: u32) -> Self {
        self.subjobs = n;
        self
    }

    /// Set the display label.
    pub fn label(mut self, l: &str) -> Self {
        self.label = l.to_owned();
        self
    }

    /// Set the submission stagger after the previous user.
    pub fn stagger_secs(mut self, s: u64) -> Self {
        self.stagger_secs = s;
        self
    }
}

/// Scenario builder; defaults mirror §5.2 (30 dual-CPU hosts, ≤15 nodes
/// per user, 212 min/chunk, 5.5 h deadline, 10 s reallocation).
#[derive(Clone, Debug)]
pub struct Scenario {
    seed: u64,
    hosts: u32,
    users: Vec<UserSetup>,
    chunk_minutes: f64,
    deadline_minutes: u64,
    horizon_hours: u64,
    agent: AgentConfig,
    interval_secs: f64,
    heterogeneity: f64,
    faults: FaultPlan,
    ledger: Option<SharedJournal>,
    sharding: usize,
    guard: Option<GuardConfig>,
}

impl Scenario {
    /// Start building a scenario.
    pub fn builder() -> Scenario {
        Scenario {
            seed: 2006,
            hosts: 30,
            users: Vec::new(),
            chunk_minutes: CHUNK_MINUTES_AT_FULL_CPU,
            deadline_minutes: 330,
            horizon_hours: 24,
            agent: AgentConfig::default(),
            interval_secs: 10.0,
            heterogeneity: 0.0,
            faults: FaultPlan::new(),
            ledger: None,
            sharding: 1,
            guard: None,
        }
    }

    /// Deterministic seed for the market/bank keys.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Number of testbed hosts.
    pub fn hosts(mut self, n: u32) -> Self {
        self.hosts = n;
        self
    }

    /// Add a user.
    pub fn user(mut self, u: UserSetup) -> Self {
        self.users.push(u);
        self
    }

    /// Add `n` users with identical funding (Table 1's equal
    /// distribution).
    pub fn equal_users(mut self, n: u32, funding: f64) -> Self {
        for _ in 0..n {
            self.users
                .push(UserSetup::new(funding).label(&format!("user{}", self.users.len() + 1)));
        }
        self
    }

    /// Minutes per chunk at a full vCPU.
    pub fn chunk_minutes(mut self, m: f64) -> Self {
        self.chunk_minutes = m;
        self
    }

    /// Job deadline (xRSL `cpuTime`) in minutes.
    pub fn deadline_minutes(mut self, m: u64) -> Self {
        self.deadline_minutes = m;
        self
    }

    /// Simulation horizon in hours.
    pub fn horizon_hours(mut self, h: u64) -> Self {
        self.horizon_hours = h;
        self
    }

    /// Override the agent configuration.
    pub fn agent(mut self, a: AgentConfig) -> Self {
        self.agent = a;
        self
    }

    /// Override the reallocation interval (seconds).
    pub fn interval_secs(mut self, s: f64) -> Self {
        self.interval_secs = s;
        self
    }

    /// Per-host capacity jitter in `[0, 1)`: host CPU speeds are drawn
    /// uniformly from `base·(1 ± h)` (deterministically from the seed).
    /// Real clusters are never perfectly homogeneous, and heterogeneous
    /// price/performance ratios are what make Best Response *selective*
    /// about hosts (the paper's "too expensive to fund more than a very
    /// low number of hosts" effect).
    pub fn heterogeneity(mut self, h: f64) -> Self {
        assert!((0.0..1.0).contains(&h), "heterogeneity in [0,1)");
        self.heterogeneity = h;
        self
    }

    /// Inject a fault schedule (see `gm_des::FaultPlan` and DESIGN.md §8).
    /// Fault targets are interpreted modulo the host count.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attach a durable bank ledger (WAL + snapshot). The bank journals
    /// every monetary event into it, `FaultKind::BankRestart` events
    /// recover the bank from it mid-run, and callers keep a handle to
    /// crash-test arbitrary prefixes afterwards (DESIGN.md §11). The bank
    /// checkpoints into it every [`LEDGER_SNAPSHOT_EVERY`] events, so
    /// the WAL it ends with holds only the events since the last
    /// checkpoint. When not set, `build` attaches a fresh private journal
    /// so restarts work in randomly generated fault schedules too.
    pub fn ledger(mut self, journal: SharedJournal) -> Self {
        self.ledger = Some(journal);
        self
    }

    /// Split the market's tick sweep into `shards` host-range shards run
    /// on scoped workers. The sharded sweep is byte-identical to the
    /// sequential one at any shard count (DESIGN.md §15), so this is a
    /// pure wall-clock knob — results, traces and telemetry don't change.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn sharding(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        self.sharding = shards;
        self
    }

    /// Override the market's guard layer (rate limiter, price-band
    /// circuit breaker, quarantine — DESIGN.md §16). The default guard is
    /// enabled with thresholds honest workloads never reach; pass
    /// `GuardConfig::disabled()` for an undefended market or a tightened
    /// config for defense experiments.
    pub fn guard(mut self, cfg: GuardConfig) -> Self {
        self.guard = Some(cfg);
        self
    }

    /// Build the world [`Scenario::run`] drives, without driving it: the
    /// market with its hosts, guard, telemetry and checkpointed ledger
    /// (every [`LEDGER_SNAPSHOT_EVERY`] events), the endowed users and
    /// their job requests, and the driver with the horizon and faults.
    ///
    /// # Panics
    /// Panics if the scenario has no user.
    pub fn build(self) -> World {
        assert!(!self.users.is_empty(), "scenario needs at least one user");
        // Telemetry rides the simulation clock: `sim_clock` is advanced in
        // lockstep with the driver's `now` (via `TycoonPolicy::begin_tick`),
        // so the same seed yields a byte-identical JSONL export
        // (DESIGN.md §9).
        let registry = Registry::new();
        let sim_clock = ManualClock::new();
        let clock: Arc<dyn Clock> = Arc::new(sim_clock.clone());
        let tracer = Tracer::new(TRACE_CAPACITY, Arc::clone(&clock));
        let host_specs = jittered_hosts(self.seed, self.hosts, self.heterogeneity);
        let mut policy = tycoon_policy(self.seed, &host_specs, self.agent, Some(&registry), |market| {
            market.set_interval_secs(self.interval_secs);
            market.set_sharding(self.sharding);
            if let Some(cfg) = self.guard {
                market.set_guard(cfg);
            }
            market.attach_telemetry(&registry, clock);
            market.attach_ledger(self.ledger.clone().unwrap_or_default());
            market.bank_mut().set_snapshot_every(LEDGER_SNAPSHOT_EVERY);
        })
        .with_clock(sim_clock.clone())
        .with_tracer(tracer.clone());

        // Users, accounts, endowments and submission times. The driver
        // owns the arrival stream; the policy owns the funded identities.
        let mut meta = Vec::with_capacity(self.users.len());
        let mut requests = Vec::with_capacity(self.users.len());
        let mut t = SimTime::ZERO;
        for (i, setup) in self.users.iter().enumerate() {
            let (identity, account) = policy.open_user(i as u32 + 1, setup.funding);
            t += SimDuration::from_secs(setup.stagger_secs);
            let workload = BioWorkload {
                subjobs: setup.subjobs,
                chunk_minutes: self.chunk_minutes,
                deadline_minutes: self.deadline_minutes,
            };
            requests.push(JobRequest {
                id: i as u32,
                user: UserId(i as u32 + 1),
                subjobs: setup.subjobs,
                work_per_subjob: workload.work_mhz_secs_per_subjob(),
                arrival: t,
                budget: setup.funding,
                deadline_secs: self.deadline_minutes as f64 * 60.0,
            });
            meta.push(UserMeta {
                label: setup.label.clone(),
                dn: identity.dn().to_owned(),
                funding: setup.funding,
            });
            let label = if setup.label.is_empty() {
                "bio-scan".to_owned()
            } else {
                setup.label.clone()
            };
            policy.prepare(
                i as u32,
                TycoonJobSetup {
                    identity,
                    account,
                    label,
                    workload,
                },
            );
        }

        // The unified driver runs the market exactly like every baseline:
        // faults, then arrivals, then place/advance — tick for tick.
        let driver = PolicyDriver::new(host_specs, self.interval_secs)
            .horizon(SimTime::ZERO + SimDuration::from_hours(self.horizon_hours))
            .faults(self.faults)
            .with_registry(&registry);
        World {
            policy,
            driver,
            requests,
            meta,
            registry,
            sim_clock,
            tracer,
        }
    }

    /// Run the scenario to completion (or the horizon).
    pub fn run(self) -> Result<ScenarioResult, GridError> {
        self.build().run_with(|driver, policy, jobs| driver.run(policy, jobs))
    }
}

/// A user's report labels, kept from build to report.
struct UserMeta {
    label: String,
    dn: String,
    funding: f64,
}

/// A built, not yet driven [`Scenario`] ([`Scenario::build`]).
pub struct World {
    policy: TycoonPolicy,
    driver: PolicyDriver,
    requests: Vec<JobRequest>,
    meta: Vec<UserMeta>,
    registry: Registry,
    sim_clock: ManualClock,
    tracer: Tracer,
}

impl World {
    /// Drive the world with `drive`, which is handed the driver, the
    /// policy and the job requests and must run them, e.g.
    /// `|driver, policy, jobs| driver.run(policy, jobs)` — or with the
    /// policy behind a wrapper of the caller's. Then assemble the report.
    pub fn run_with(
        self,
        drive: impl FnOnce(&mut PolicyDriver, &mut TycoonPolicy, &[JobRequest]) -> Result<RunResult, PolicyError>,
    ) -> Result<ScenarioResult, GridError> {
        let World {
            mut policy,
            mut driver,
            requests,
            meta,
            registry,
            sim_clock,
            tracer,
        } = self;
        if let Err(e) = drive(&mut driver, &mut policy, &requests) {
            // Submission failures carry a typed `GridError`; anything
            // else (request validation) is a bad job description.
            return Err(policy
                .take_error()
                .unwrap_or_else(|| GridError::BadDescription(e.to_string())));
        }
        let now = driver.stats().final_now;
        let faults_injected = driver.stats().faults_injected;
        let job_ids: Vec<JobId> = (0..requests.len() as u32)
            .map(|i| policy.grid_job_id(i).expect("submitted"))
            .collect();
        let (mut market, jm) = policy.into_parts();

        // Collect per-user reports.
        let users = meta
            .iter()
            .zip(&job_ids)
            .map(|(m, &jid)| {
                let job = jm.job(jid).expect("job exists");
                let makespan_h = job.makespan(now).as_hours_f64();
                let charged = job.charged.as_f64();
                let nodes = job.max_nodes();
                let avg_nodes = job.avg_nodes();
                UserReport {
                    label: m.label.clone(),
                    dn: m.dn.clone(),
                    funding: m.funding,
                    phase: job.phase,
                    time_hours: makespan_h,
                    cost_per_hour: if makespan_h > 0.0 { charged / makespan_h } else { 0.0 },
                    charged,
                    latency_min_per_job: if avg_nodes > 0.0 {
                        makespan_h * 60.0 / avg_nodes
                    } else {
                        0.0
                    },
                    nodes,
                    avg_nodes,
                    completed_subjobs: job.completed_subjobs(),
                    subjobs: job.subjobs.len(),
                }
            })
            .collect();

        let monitor = gm_grid::monitor::render(&market, &jm, 15);
        sim_clock.set_micros(now.as_micros());
        let metrics = registry.snapshot();
        let telemetry_jsonl = format!("{}{}", metrics_jsonl(&metrics), trace_jsonl(&tracer));
        Ok(ScenarioResult {
            users,
            price_trace: market.take_price_trace(),
            finished_at: now,
            monitor,
            total_money: market.bank().total_money().as_f64(),
            total_minted: market.bank().total_minted().as_f64(),
            faults_injected,
            fault_counters: jm.fault_counters(),
            crashed_hosts_at_end: market.crashed_host_ids().len(),
            recovery_invariant_ok: jm.recovery_invariant_ok(),
            metrics,
            telemetry_jsonl,
        })
    }
}

/// Per-user outcome with the paper's Table 1–2 metrics.
#[derive(Clone, Debug)]
pub struct UserReport {
    /// Display label.
    pub label: String,
    /// Grid DN.
    pub dn: String,
    /// Token funding in credits.
    pub funding: f64,
    /// Final job phase.
    pub phase: JobPhase,
    /// **Time**: wall-clock hours to complete the task.
    pub time_hours: f64,
    /// **Cost**: credits spent per hour.
    pub cost_per_hour: f64,
    /// Total credits charged.
    pub charged: f64,
    /// **Latency**: minutes per job (makespan·60 / average nodes — the
    /// paper's arithmetic, see `EXPERIMENTS.md`).
    pub latency_min_per_job: f64,
    /// **Nodes**: peak concurrent nodes.
    pub nodes: usize,
    /// Average concurrent nodes.
    pub avg_nodes: f64,
    /// Sub-jobs completed.
    pub completed_subjobs: usize,
    /// Sub-jobs total.
    pub subjobs: usize,
}

/// The outcome of a scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Per-user reports in submission order.
    pub users: Vec<UserReport>,
    /// Spot-price history of every host.
    pub price_trace: Trace,
    /// Simulated end time.
    pub finished_at: SimTime,
    /// ARC-monitor snapshot at the end of the run.
    pub monitor: String,
    /// Total credits in the bank at the end (conservation check).
    pub total_money: f64,
    /// Total credits ever minted.
    pub total_minted: f64,
    /// Fault events delivered from the schedule.
    pub faults_injected: usize,
    /// The job manager's fault-recovery counters.
    pub fault_counters: FaultCounters,
    /// Hosts still offline when the run ended.
    pub crashed_hosts_at_end: usize,
    /// Fault-recovery bookkeeping invariant (see
    /// [`gm_grid::JobManager::recovery_invariant_ok`]): no sub-job was
    /// both completed and re-dispatched.
    pub recovery_invariant_ok: bool,
    /// Final metrics snapshot (market, grid and fault counters, tick and
    /// latency histograms) — see DESIGN.md §9 for the naming scheme.
    pub metrics: MetricsSnapshot,
    /// Complete telemetry export: one JSON object per line, metrics first
    /// then the fault-event trace. Byte-identical across runs with the
    /// same seed and fault plan.
    pub telemetry_jsonl: String,
}

impl ScenarioResult {
    /// Did every user's job finish?
    pub fn all_done(&self) -> bool {
        self.users.iter().all(|u| u.phase == JobPhase::Done)
    }

    /// Money conservation invariant (minted == sum of balances + escrows
    /// returns to balances at settlement).
    pub fn money_conserved(&self) -> bool {
        (self.total_money - self.total_minted).abs() < 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::FaultKind;

    fn small_scenario() -> Scenario {
        Scenario::builder()
            .seed(1)
            .hosts(4)
            .chunk_minutes(10.0)
            .deadline_minutes(120)
            .horizon_hours(6)
    }

    #[test]
    fn single_user_completes() {
        let r = small_scenario()
            .user(UserSetup::new(50.0).subjobs(4).label("solo"))
            .run()
            .unwrap();
        assert!(r.all_done());
        assert!(r.money_conserved(), "{} vs {}", r.total_money, r.total_minted);
        let u = &r.users[0];
        assert_eq!(u.completed_subjobs, 4);
        assert!(u.time_hours > 0.1 && u.time_hours < 2.0, "{}", u.time_hours);
        assert!(u.nodes >= 1 && u.nodes <= 4);
        assert!(u.charged > 0.0);
    }

    #[test]
    fn result_is_deterministic() {
        let run = || {
            small_scenario()
                .user(UserSetup::new(50.0).subjobs(4))
                .user(UserSetup::new(100.0).subjobs(4))
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.finished_at, b.finished_at);
        for (ua, ub) in a.users.iter().zip(&b.users) {
            assert_eq!(ua.time_hours, ub.time_hours);
            assert_eq!(ua.charged, ub.charged);
            assert_eq!(ua.nodes, ub.nodes);
        }
    }

    #[test]
    fn five_equal_users_show_late_loser_pattern() {
        // Table 1's qualitative shape: later users get fewer or equal
        // nodes than the first users (prices have risen by the time they
        // submit).
        let r = small_scenario()
            .hosts(6)
            .equal_users(5, 60.0)
            .run()
            .unwrap();
        assert!(r.all_done());
        let first = r.users[0].avg_nodes;
        let last = r.users[4].avg_nodes;
        assert!(
            last <= first + 0.5,
            "late user got more nodes ({last:.2}) than early ({first:.2})"
        );
    }

    #[test]
    fn price_trace_covers_all_hosts() {
        let r = small_scenario()
            .user(UserSetup::new(50.0).subjobs(2))
            .run()
            .unwrap();
        assert_eq!(r.price_trace.len(), 4, "one series per host");
        for (_, series) in r.price_trace.iter() {
            assert!(!series.is_empty());
        }
    }

    #[test]
    fn monitor_snapshot_renders() {
        let r = small_scenario()
            .user(UserSetup::new(50.0).subjobs(2))
            .run()
            .unwrap();
        assert!(r.monitor.contains("Tycoon Grid Monitor"));
        assert!(r.monitor.contains("FINISHED"));
    }

    #[test]
    fn heterogeneous_hosts_still_complete_deterministically() {
        let run = || {
            small_scenario()
                .heterogeneity(0.25)
                .user(UserSetup::new(80.0).subjobs(3))
                .user(UserSetup::new(200.0).subjobs(3))
                .run()
                .unwrap()
        };
        let a = run();
        assert!(a.all_done());
        assert!(a.money_conserved());
        let b = run();
        assert_eq!(a.finished_at, b.finished_at, "jitter must be seeded");
        // Host capacities really differ: spot prices per MHz diverge.
        let first_prices: Vec<f64> = a
            .price_trace
            .iter()
            .filter_map(|(_, s)| s.values().last().copied())
            .collect();
        assert!(first_prices.len() >= 2);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_scenario_rejected() {
        let _ = Scenario::builder().run();
    }

    #[test]
    fn faulty_scenario_completes_conserves_and_is_deterministic() {
        let run = || {
            let mut plan = FaultPlan::new();
            plan.push(SimTime::from_secs(300), FaultKind::HostCrash { host: 0 })
                .push(SimTime::from_secs(2_400), FaultKind::HostRecover { host: 0 })
                .push(SimTime::from_secs(500), FaultKind::VmFailure { host: 1 })
                .bank_outage(SimTime::from_secs(700), SimTime::from_secs(900));
            small_scenario()
                .user(UserSetup::new(60.0).subjobs(4))
                .user(UserSetup::new(120.0).subjobs(4))
                .faults(plan)
                .run()
                .unwrap()
        };
        let a = run();
        assert!(a.all_done(), "jobs must finish despite the faults");
        assert!(a.money_conserved(), "{} vs {}", a.total_money, a.total_minted);
        // crash + recover + vm failure + outage start/end.
        assert_eq!(a.faults_injected, 5);
        assert_eq!(a.fault_counters.host_crashes, 1);
        assert_eq!(a.crashed_hosts_at_end, 0);
        // The telemetry sees the same world: derived counters agree and
        // the fault-event trace carries the schedule.
        assert_eq!(a.metrics.counters["faults.injected"], 5);
        assert_eq!(a.metrics.counters["grid.host_crashes"], 1);
        assert_eq!(a.metrics.counters["grid.vm_failures"], 1);
        assert_eq!(a.metrics.counters["market.bank_outages"], 1);
        assert!(a.metrics.counters["market.ticks"] > 0);
        assert!(a.metrics.histograms["grid.subjob_latency_us"].count >= 8);
        assert!(a.telemetry_jsonl.contains("\"fault.host_crash\""));
        assert!(a.telemetry_jsonl.contains("\"fault.bank_restore\""));
        // Byte-identical metrics on a re-run with the same plan.
        let b = run();
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.fault_counters, b.fault_counters);
        assert_eq!(
            a.telemetry_jsonl, b.telemetry_jsonl,
            "same seed must give a byte-identical telemetry export"
        );
        for (ua, ub) in a.users.iter().zip(&b.users) {
            assert_eq!(ua.time_hours, ub.time_hours);
            assert_eq!(ua.charged, ub.charged);
            assert_eq!(ua.nodes, ub.nodes);
        }
    }
}
