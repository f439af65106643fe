//! A scenario world built from public APIs, split at the set-up/run
//! boundary.
//!
//! `Scenario::run` builds its world (market, journal, hosts, job
//! manager, funded accounts, request stream, fault plan) and drives it in
//! one call, so its set-up cannot be timed apart from its run. [`World`]
//! performs the same construction in [`World::build`] and the same drive
//! and report assembly in [`World::run`], step for step, so the benchmark
//! can time the two separately and wrap the policy for the layer trace.
//! `table1_paper` checks every pass against `Scenario::run` for the same
//! [`Spec`] (user rows, the complete telemetry export, the monitor and
//! the money totals); `chaos_sweep` checks every pass's metric rows
//! against `chaos_scenario` and its users and telemetry against the
//! first pass.

use std::sync::Arc;
use std::time::Instant;

use gm_bio::workload::BioWorkload;
use gm_core::{JobRequest, PolicyDriver};
use gm_des::{FaultPlan, SimDuration, SimTime};
use gm_grid::{AgentConfig, GridIdentity, JobId, JobManager, VmConfig};
use gm_telemetry::{metrics_jsonl, trace_jsonl, Clock, ManualClock, Registry, Tracer};
use gm_tycoon::{Credits, Market, UserId};
use gridmarket::scenario::{jittered_hosts, Scenario, ScenarioResult, UserReport, UserSetup};
use gridmarket::{ChaosConfig, TycoonJobSetup, TycoonPolicy};

use crate::trace::{Tally, Timed};

/// Capacity of the fault-event trace ring, as in `Scenario::run`.
const TRACE_CAPACITY: usize = 4096;
/// The monitor's virtual-CPU cap per host, as in `Scenario::run`.
const MONITOR_VMS_PER_HOST: u32 = 15;

/// The inputs of one scenario world (the fields of the `Scenario`
/// builder the workloads set; agent, VM, interval and guard keep their
/// defaults and the market runs unsharded).
#[derive(Clone, Debug)]
pub struct Spec {
    pub seed: u64,
    pub hosts: u32,
    pub users: Vec<UserSetup>,
    pub chunk_minutes: f64,
    pub deadline_minutes: u64,
    pub horizon_hours: u64,
    pub heterogeneity: f64,
    pub faults: FaultPlan,
    /// Attach a bank journal, as `Scenario::run` always does.
    pub journal: bool,
}

impl Spec {
    /// The paper's §5.3 Table 1 run: 30 hosts, five equally funded users
    /// with 15 sub-jobs of 212 min each, a 330 min deadline, no faults.
    pub fn table1(seed: u64) -> Spec {
        Spec {
            seed,
            hosts: 30,
            users: (1..=5)
                .map(|i| UserSetup::new(100.0).subjobs(15).label(&format!("user{i}")))
                .collect(),
            chunk_minutes: 212.0,
            deadline_minutes: 330,
            horizon_hours: 48,
            heterogeneity: 0.0,
            faults: FaultPlan::new(),
            journal: true,
        }
    }

    /// The world `ChaosConfig::scenario(seed)` builds. Its users come from
    /// `Scenario::equal_users`, which leaves the sub-job count at the
    /// `UserSetup` default rather than `cfg.subjobs`.
    pub fn chaos(cfg: &ChaosConfig, seed: u64) -> Spec {
        Spec {
            seed,
            hosts: cfg.hosts,
            users: (1..=cfg.users)
                .map(|i| UserSetup::new(cfg.funding).label(&format!("user{i}")))
                .collect(),
            chunk_minutes: cfg.chunk_minutes,
            deadline_minutes: cfg.deadline_minutes,
            horizon_hours: cfg.horizon_hours,
            heterogeneity: cfg.heterogeneity,
            faults: FaultPlan::generate(seed, cfg.fault_gen()),
            journal: true,
        }
    }

    /// The same world as a `Scenario`, the program's own reference path.
    pub fn scenario(&self) -> Scenario {
        assert!(self.journal, "Scenario::run always attaches a journal");
        self.users.iter().fold(
            Scenario::builder()
                .seed(self.seed)
                .hosts(self.hosts)
                .chunk_minutes(self.chunk_minutes)
                .deadline_minutes(self.deadline_minutes)
                .horizon_hours(self.horizon_hours)
                .heterogeneity(self.heterogeneity)
                .faults(self.faults.clone()),
            |s, u| s.user(u.clone()),
        )
    }
}

struct UserMeta {
    label: String,
    dn: String,
    funding: f64,
}

/// A fully built, not yet driven scenario world.
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
    /// Build everything `Scenario::run` builds before its driver starts.
    pub fn build(spec: &Spec) -> World {
        let registry = Registry::new();
        let sim_clock = ManualClock::new();
        let clock: Arc<dyn Clock> = Arc::new(sim_clock.clone());
        let tracer = Tracer::new(TRACE_CAPACITY, Arc::clone(&clock));
        let mut market = Market::new(&spec.seed.to_be_bytes());
        market.set_interval_secs(gm_tycoon::market::DEFAULT_INTERVAL_SECS);
        market.set_sharding(1);
        market.attach_telemetry(&registry, Arc::clone(&clock));
        if spec.journal {
            market.attach_ledger(gm_ledger::SharedJournal::default());
        }
        let host_specs = jittered_hosts(spec.seed, spec.hosts, spec.heterogeneity);
        for h in &host_specs {
            market.add_host(h.clone());
        }
        let jm = JobManager::with_registry(
            &mut market,
            AgentConfig::default(),
            VmConfig::default(),
            &registry,
        );

        let mut meta = Vec::with_capacity(spec.users.len());
        let mut requests = Vec::with_capacity(spec.users.len());
        let mut setups = Vec::with_capacity(spec.users.len());
        let mut t = SimTime::ZERO;
        for (i, u) in spec.users.iter().enumerate() {
            let identity = GridIdentity::swegrid_user(i as u32 + 1);
            let account = market
                .bank_mut()
                .open_account(identity.public_key(), &format!("user{}", i + 1));
            market
                .bank_mut()
                .mint(account, Credits::from_f64(u.funding * 10.0 + 1.0))
                .expect("endowment");
            t += SimDuration::from_secs(u.stagger_secs);
            let workload = BioWorkload {
                subjobs: u.subjobs,
                chunk_minutes: spec.chunk_minutes,
                deadline_minutes: spec.deadline_minutes,
            };
            requests.push(JobRequest {
                id: i as u32,
                user: UserId(i as u32 + 1),
                subjobs: u.subjobs,
                work_per_subjob: workload.work_mhz_secs_per_subjob(),
                arrival: t,
                budget: u.funding,
                deadline_secs: spec.deadline_minutes as f64 * 60.0,
            });
            meta.push(UserMeta {
                label: u.label.clone(),
                dn: identity.dn().to_owned(),
                funding: u.funding,
            });
            let label = if u.label.is_empty() {
                "bio-scan".to_owned()
            } else {
                u.label.clone()
            };
            setups.push(TycoonJobSetup {
                identity,
                account,
                label,
                workload,
            });
        }
        let mut policy = TycoonPolicy::new(market, jm)
            .with_clock(sim_clock.clone())
            .with_tracer(tracer.clone());
        for (i, s) in setups.into_iter().enumerate() {
            policy.prepare(i as u32, s);
        }
        let driver = PolicyDriver::new(host_specs, gm_tycoon::market::DEFAULT_INTERVAL_SECS)
            .horizon(SimTime::ZERO + SimDuration::from_hours(spec.horizon_hours))
            .faults(spec.faults.clone())
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

    /// Drive the world to completion and assemble the result exactly as
    /// `Scenario::run` does. With a tally the driver runs the policy
    /// behind the timing wrapper, which records every hook into it.
    /// Returns the result and the seconds spent assembling the report
    /// after the driver finished.
    pub fn run(self, tally: Option<&mut Tally>) -> (ScenarioResult, f64) {
        let World {
            mut policy,
            mut driver,
            requests,
            meta,
            registry,
            sim_clock,
            tracer,
        } = self;
        match tally {
            Some(tally) => {
                let audits = registry.counter("ledger.audits");
                driver.run(&mut Timed::new(&mut policy, tally, audits), &requests)
            }
            None => driver.run(&mut policy, &requests),
        }
        .expect("scenario run");
        let t0 = Instant::now();
        let now = driver.stats().final_now;
        let faults_injected = driver.stats().faults_injected;
        let job_ids: Vec<JobId> = (0..requests.len() as u32)
            .map(|i| policy.grid_job_id(i).expect("submitted"))
            .collect();
        let (market, jm) = policy.into_parts();
        let users = meta
            .iter()
            .zip(&job_ids)
            .map(|(m, &jid)| {
                let job = jm.job(jid).expect("job exists");
                let makespan_h = job.makespan(now).as_hours_f64();
                let charged = job.charged.as_f64();
                let avg_nodes = job.avg_nodes();
                UserReport {
                    label: m.label.clone(),
                    dn: m.dn.clone(),
                    funding: m.funding,
                    phase: job.phase,
                    time_hours: makespan_h,
                    cost_per_hour: if makespan_h > 0.0 {
                        charged / makespan_h
                    } else {
                        0.0
                    },
                    charged,
                    latency_min_per_job: if avg_nodes > 0.0 {
                        makespan_h * 60.0 / avg_nodes
                    } else {
                        0.0
                    },
                    nodes: job.max_nodes(),
                    avg_nodes,
                    completed_subjobs: job.completed_subjobs(),
                    subjobs: job.subjobs.len(),
                }
            })
            .collect();
        let monitor = gm_grid::monitor::render(&market, &jm, MONITOR_VMS_PER_HOST);
        sim_clock.set_micros(now.as_micros());
        let metrics = registry.snapshot();
        let telemetry_jsonl = format!("{}{}", metrics_jsonl(&metrics), trace_jsonl(&tracer));
        let result = ScenarioResult {
            users,
            price_trace: market.price_trace().clone(),
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
        };
        (result, t0.elapsed().as_secs_f64())
    }
}

/// Fold the user rows of a result into a digest: every field the paper's
/// tables print, bit for bit.
pub fn user_digest(r: &ScenarioResult) -> u64 {
    let mut d = crate::stats::Digest::new();
    for u in &r.users {
        d.str(&u.label);
        d.str(&format!("{:?}", u.phase));
        for x in [
            u.time_hours,
            u.cost_per_hour,
            u.charged,
            u.latency_min_per_job,
            u.avg_nodes,
        ] {
            d.f64(x);
        }
        d.u64(u.nodes as u64);
        d.u64(u.completed_subjobs as u64);
        d.u64(u.subjobs as u64);
    }
    d.finish()
}

/// True when two results agree exactly on everything a user or the
/// telemetry export can see.
pub fn same_result(a: &ScenarioResult, b: &ScenarioResult) -> bool {
    user_digest(a) == user_digest(b)
        && a.telemetry_jsonl == b.telemetry_jsonl
        && a.finished_at == b.finished_at
        && a.total_money.to_bits() == b.total_money.to_bits()
        && a.total_minted.to_bits() == b.total_minted.to_bits()
        && a.monitor == b.monitor
}
