//! The Tycoon market as an [`AllocationPolicy`] (the paper's allocator,
//! §3, behind the same driver as the §6 baselines).
//!
//! [`TycoonPolicy`] adapts the full grid stack — `Market`, `JobManager`,
//! transfer tokens, VMs — to the policy hooks of `gm_core`, so the
//! [`PolicyDriver`](gm_core::PolicyDriver) can run it under exactly the
//! same arrival stream and fault plan as FIFO, equal-share, G-commerce
//! and winner-takes-all. [`Scenario`](crate::scenario::Scenario) routes
//! through this adapter too: one tick loop serves the whole repo.
//!
//! Hook mapping (one driver tick ⇔ one market interval):
//!
//! | driver hook  | grid stack action                                   |
//! |--------------|-----------------------------------------------------|
//! | `begin_tick` | sync the telemetry `ManualClock` to sim time        |
//! | `apply_fault`| crash/recover hosts, fail VMs, bank outage/restore/restart |
//! | `admit`      | [`submit_funded`]: token, xRSL, `JobManager::submit` |
//! | `place`      | `JobManager::pre_tick` (bids, escrows, dispatch)    |
//! | `advance`    | `Market::tick` + `JobManager::post_tick`            |
//! | `settle`     | hourly online conservation audit (`ledger.audits`)  |
//! | `price`      | mean spot price across the host inventory           |
//! | `skip_quiet` | `Market::tick_quiet` over ticks with no running job and no live bid |

use std::collections::BTreeMap;

use gm_bio::workload::{bio_job_spec, fund_token, BioWorkload, REFERENCE_VCPU_MHZ};
use gm_core::{AllocationPolicy, JobOutcome, JobRequest, PolicyError, TickCtx};
use gm_des::{FaultEvent, FaultKind, SimTime};
use gm_grid::{AgentConfig, GridError, GridIdentity, JobId, JobManager, VmConfig};
use gm_telemetry::{ManualClock, Registry, Tracer};
use gm_tycoon::{AccountId, Credits, HostId, HostSpec, Market};

/// A prepared Tycoon submission for one [`JobRequest`] id: the grid
/// identity that signs the transfer token, its funded bank account, the
/// xRSL job label, and the exact workload shape.
///
/// [`Scenario`](crate::scenario::Scenario) registers one per user via
/// [`TycoonPolicy::prepare`]; requests without a prepared setup get an
/// auto-generated identity and endowment so the policy also runs on raw
/// `JobRequest` streams (the cross-policy comparison tests).
pub struct TycoonJobSetup {
    /// Grid identity whose DN the transfer token is bound to.
    pub identity: GridIdentity,
    /// The identity's bank account (already endowed).
    pub account: AccountId,
    /// xRSL `jobName`.
    pub label: String,
    /// Workload shape rendered into the xRSL.
    pub workload: BioWorkload,
}

/// The one way a funded job reaches the market (PAPER.md §1): draw a
/// transfer token of `funding` from the setup's account to the broker,
/// render the bio xRSL around it, and submit it to the job manager.
pub fn submit_funded(
    market: &mut Market,
    jm: &mut JobManager,
    now: SimTime,
    setup: &TycoonJobSetup,
    funding: Credits,
) -> Result<JobId, GridError> {
    let broker = jm.broker_account();
    let token = fund_token(market.bank_mut(), &setup.identity, setup.account, broker, funding)?;
    let spec = bio_job_spec(&setup.workload, &token, &setup.label)?;
    jm.submit(market, now, &spec)
}

/// The one constructor of a Tycoon world from a seed and a host
/// inventory: a market keyed by `seed` ticking every 10 s, adjusted by
/// `tune` (interval, guard, telemetry, ledger) before `hosts` join, and
/// a job manager with `agent` and the default VM model, recording its
/// `grid.*` metrics into `registry` when one is given.
pub fn tycoon_policy(
    seed: u64,
    hosts: &[HostSpec],
    agent: AgentConfig,
    registry: Option<&Registry>,
    tune: impl FnOnce(&mut Market),
) -> TycoonPolicy {
    let mut market = Market::new(&seed.to_be_bytes());
    market.set_interval_secs(10.0);
    tune(&mut market);
    for h in hosts {
        market.add_host(h.clone());
    }
    let registry = registry.cloned().unwrap_or_default();
    let jm = JobManager::with_registry(&mut market, agent, VmConfig::default(), &registry);
    TycoonPolicy::new(market, jm)
}

/// The Tycoon grid stack behind the [`AllocationPolicy`] hooks.
pub struct TycoonPolicy {
    market: Market,
    jm: JobManager,
    clock: Option<ManualClock>,
    tracer: Option<Tracer>,
    setups: BTreeMap<u32, TycoonJobSetup>,
    jobs: BTreeMap<u32, JobId>,
    /// Per-request `(budget, deadline_secs, arrival)` recorded at
    /// admission — the inputs of the shared on-time value rule.
    value_terms: BTreeMap<u32, (f64, f64, SimTime)>,
    last_error: Option<GridError>,
    ticks: u64,
}

/// Ticks between online conservation audits in [`TycoonPolicy::settle`]
/// (360 ten-second intervals = one sim hour).
const AUDIT_EVERY_TICKS: u64 = 360;

impl TycoonPolicy {
    /// Wrap an assembled market and job manager. The market must already
    /// hold the host inventory the driver is constructed with; build
    /// both with [`tycoon_policy`].
    pub fn new(market: Market, jm: JobManager) -> TycoonPolicy {
        TycoonPolicy {
            market,
            jm,
            clock: None,
            tracer: None,
            setups: BTreeMap::new(),
            jobs: BTreeMap::new(),
            value_terms: BTreeMap::new(),
            last_error: None,
            ticks: 0,
        }
    }

    /// Sync this `ManualClock` to sim time at every tick start, so
    /// telemetry timestamps ride the simulation clock (DESIGN.md §9).
    pub fn with_clock(mut self, clock: ManualClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Record fault events (`fault.host_crash`, ...) into this tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Register the prepared submission for request `id` (consumed at
    /// admission).
    pub fn prepare(&mut self, id: u32, setup: TycoonJobSetup) {
        self.setups.insert(id, setup);
    }

    /// The wrapped market (read access).
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// The grid job id a request was admitted as.
    pub fn grid_job_id(&self, request_id: u32) -> Option<JobId> {
        self.jobs.get(&request_id).copied()
    }

    /// Take the `GridError` behind the most recent admission rejection
    /// (the driver surfaces it as a rendered [`PolicyError::Rejected`];
    /// callers that need the typed error recover it here).
    pub fn take_error(&mut self) -> Option<GridError> {
        self.last_error.take()
    }

    /// Tear down into the market and job manager for report assembly.
    pub fn into_parts(self) -> (Market, JobManager) {
        (self.market, self.jm)
    }

    /// Open the bank account of grid user `n` (identity
    /// `swegrid_user(n)`, account `user{n}`) and endow it generously:
    /// the token carries the `funding`, the endowment just covers it.
    pub fn open_user(&mut self, n: u32, funding: f64) -> (GridIdentity, AccountId) {
        let identity = GridIdentity::swegrid_user(n);
        let bank = self.market.bank_mut();
        let account = bank.open_account(identity.public_key(), &format!("user{n}"));
        bank.mint(account, Credits::from_f64(funding * 10.0 + 1.0))
            .expect("endowment");
        (identity, account)
    }

    /// Identity, account and workload for a request nobody prepared:
    /// deterministic per-id identity, endowment covering the budget.
    fn auto_setup(&mut self, req: &JobRequest) -> TycoonJobSetup {
        let (identity, account) = self.open_user(req.id + 1, req.budget);
        let workload = BioWorkload {
            subjobs: req.subjobs,
            chunk_minutes: req.work_per_subjob / (60.0 * REFERENCE_VCPU_MHZ),
            deadline_minutes: ((req.deadline_secs / 60.0).ceil()).max(1.0) as u64,
        };
        TycoonJobSetup {
            identity,
            account,
            label: format!("job{}", req.id),
            workload,
        }
    }
}

impl AllocationPolicy for TycoonPolicy {
    fn name(&self) -> &'static str {
        "tycoon"
    }

    fn begin_tick(&mut self, ctx: &TickCtx) {
        if let Some(clock) = &self.clock {
            clock.set_micros(ctx.now.as_micros());
        }
    }

    fn apply_fault(&mut self, ctx: &TickCtx, ev: &FaultEvent) {
        // Fault hosts are interpreted modulo the host count.
        let on = |host: u32| HostId(host % (ctx.hosts.len() as u32).max(1));
        let trace = |name: &str, fields: &[(&str, String)]| {
            if let Some(t) = &self.tracer {
                t.event_with(name, fields);
            }
        };
        match ev.kind {
            FaultKind::HostCrash { host } => {
                let host = on(host);
                trace("fault.host_crash", &[("host", host.0.to_string())]);
                if self.market.crash_host(host).is_ok() {
                    self.jm.handle_host_crash(host, ctx.now);
                }
            }
            FaultKind::HostRecover { host } => {
                let host = on(host);
                trace("fault.host_recover", &[("host", host.0.to_string())]);
                let _ = self.market.recover_host(host);
            }
            FaultKind::VmFailure { host } => {
                let host = on(host);
                trace("fault.vm_fail", &[("host", host.0.to_string())]);
                let _ = self.jm.handle_vm_failure_any(host, ctx.now);
            }
            FaultKind::BankOutage => {
                trace("fault.bank_outage", &[]);
                self.market.set_bank_online(false);
            }
            FaultKind::BankRestore => {
                trace("fault.bank_restore", &[]);
                self.market.set_bank_online(true);
            }
            FaultKind::BankRestart => {
                trace("fault.bank_restart", &[]);
                // Kill the bank and bring it back from its durable
                // ledger (DESIGN.md §11); without an attached ledger
                // this degrades to a bank-restore. The recovered bank's
                // journaled spent-token set is the manager's only
                // double-spend check, so nothing else needs rebuilding.
                let _ = self.market.restart_bank();
            }
            FaultKind::LinkDown => {
                trace("fault.link_down", &[]);
                // Quotes become unreachable: the manager falls back to
                // last-known/predicted prices and defers re-dispatch
                // (DESIGN.md §12).
                self.market.set_links_degraded(true);
            }
            FaultKind::LinkUp => {
                trace("fault.link_up", &[]);
                self.market.set_links_degraded(false);
            }
            FaultKind::AdversaryArrival { index } => {
                // The adversary library materialises the hostile job
                // requests for these seeded times (`gm_experiments::adversary`); the
                // policy only traces that a cohort went live so the
                // telemetry timeline lines up with the attack.
                trace("fault.adversary_arrival", &[("adversary", index.to_string())]);
            }
            FaultKind::HostSlowdown { host, permille } => {
                let host = on(host);
                let permille = permille.clamp(1, 1000);
                trace(
                    "fault.host_slowdown",
                    &[
                        ("host", host.0.to_string()),
                        ("permille", permille.to_string()),
                    ],
                );
                self.jm.apply_host_slowdown(host, permille);
            }
            FaultKind::HostRestore { host } => {
                let host = on(host);
                trace("fault.host_restore", &[("host", host.0.to_string())]);
                self.jm.clear_host_gray(host);
            }
            FaultKind::HostStall { host, len } => {
                let host = on(host);
                trace(
                    "fault.host_stall",
                    &[
                        ("host", host.0.to_string()),
                        ("secs", len.as_secs_f64().to_string()),
                    ],
                );
                self.jm.apply_host_stall(host, ctx.now + len);
            }
        }
    }

    fn admit(&mut self, ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        let setup = match self.setups.remove(&req.id) {
            Some(s) => s,
            None => self.auto_setup(req),
        };
        let funding = Credits::from_f64(req.budget);
        match submit_funded(&mut self.market, &mut self.jm, ctx.now, &setup, funding) {
            Ok(id) => {
                self.jobs.insert(req.id, id);
                self.value_terms
                    .insert(req.id, (req.budget, req.deadline_secs, req.arrival));
                Ok(())
            }
            Err(e) => {
                let reason = e.to_string();
                self.last_error = Some(e);
                Err(PolicyError::Rejected {
                    job: req.id,
                    reason,
                })
            }
        }
    }

    fn place(&mut self, ctx: &TickCtx) {
        self.jm.pre_tick(&mut self.market, ctx.now);
    }

    fn advance(&mut self, ctx: &TickCtx) {
        let allocations = self.market.tick(ctx.now);
        self.jm.post_tick(&self.market, ctx.now, &allocations);
    }

    fn settle(&mut self, _ctx: &TickCtx) {
        // Charging and refunds happen inside `post_tick` (`advance`).
        // Every sim hour the online conservation auditor sweeps the
        // books: Σbalances == minted, journal replays, signatures hold
        // (`ledger.audits` / `ledger.audit_failures` count outcomes).
        self.ticks += 1;
        if self.ticks.is_multiple_of(AUDIT_EVERY_TICKS) {
            let report = self.market.audit_ledger();
            debug_assert!(report.ok(), "online conservation audit failed: {report:?}");
        }
    }

    fn price(&self, _ctx: &TickCtx) -> Option<f64> {
        let prices = self.market.spot_prices();
        if prices.is_empty() {
            return None;
        }
        Some(prices.iter().map(|(_, p)| *p).sum::<f64>() / prices.len() as f64)
    }

    /// Skip ticks while no job runs and no bid is live (in the chaos
    /// worlds, the hours between the last settled job and the last
    /// fault). Stops one tick short of the next hourly audit, so every
    /// audit still runs on its own stepped tick.
    fn skip_quiet(&mut self, ctx: &TickCtx, max: u64) -> u64 {
        let to_audit = AUDIT_EVERY_TICKS - self.ticks % AUDIT_EVERY_TICKS;
        let k = max.min(to_audit - 1);
        if k == 0 || !self.jm.is_quiet() || !self.market.is_quiet() {
            return 0;
        }
        // On a quiet market a tick only samples the spot prices, so the
        // allocations are empty and `post_tick` would have nothing to do.
        let dt = ctx.interval();
        self.market.tick_quiet(ctx.now, dt, k);
        self.ticks += k;
        if let Some(clock) = &self.clock {
            clock.set_micros((ctx.now + dt * (k - 1)).as_micros());
        }
        k
    }

    fn all_settled(&self) -> bool {
        self.jm.all_settled()
    }

    fn outcomes(&self, now: SimTime) -> Vec<JobOutcome> {
        self.jobs
            .iter()
            .filter_map(|(&rid, &jid)| {
                let job = self.jm.job(jid)?;
                let (budget, deadline_secs, arrival) =
                    self.value_terms.get(&rid).copied().unwrap_or_default();
                Some(JobOutcome {
                    id: rid,
                    user: job.user,
                    finished_at: job.finished_at,
                    makespan_secs: job.makespan(now).as_secs_f64(),
                    value: gm_core::workload::on_time_value(
                        budget,
                        deadline_secs,
                        arrival,
                        job.finished_at,
                    ),
                    cost: job.charged.as_f64(),
                    max_nodes: job.max_nodes(),
                    avg_nodes: job.avg_nodes(),
                })
            })
            .collect()
    }
}
