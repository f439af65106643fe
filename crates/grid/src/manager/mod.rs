//! The ARC-facing job manager with the Tycoon scheduler plugin (§3).
//!
//! This is the "scheduling agent" of Fig. 1: it verifies transfer tokens,
//! opens funded sub-accounts, runs Best Response to place bids, provisions
//! VMs, handles stage-in/execution/monitoring/boosting/stage-out, and
//! refunds unspent balances — "Tycoon only charges for resources actually
//! used not bid for".
//!
//! The manager is driven in two phases around each market allocation
//! interval:
//!
//! * [`JobManager::pre_tick`] — agent actions: (re)distribute bid rates to
//!   spend the remaining budget by the deadline, refill escrows that ran
//!   low, start queued sub-jobs on freed hosts, finalize staged-out
//!   sub-jobs and completed jobs.
//! * `market.tick(now)` — the auctioneers allocate and charge.
//! * [`JobManager::post_tick`] — account the allocations into sub-job
//!   progress and detect completions.
//!
//! The implementation is split by concern: `jobs` (job/sub-job state and
//! xRSL submission parsing), `funding` (budget/deadline bid planning and
//! boosts), `dispatch` (slot placement and VM binding), `recovery`
//! (failure handling, retry/backoff), `accounts` (token redemption and
//! allocation/refund accounting). `JobManager` itself is a thin
//! orchestrator over those parts.

#![deny(clippy::too_many_lines)]

mod accounts;
mod degraded;
mod dispatch;
mod funding;
mod gray;
mod jobs;
mod recovery;

#[cfg(test)]
mod testutil;
#[cfg(test)]
mod tests_lifecycle;
#[cfg(test)]
mod tests_recovery;

use std::collections::BTreeMap;

use gm_des::{SimDuration, SimTime};
use gm_tycoon::{AccountId, HealthConfig, HealthScore, HostId, Market, UserId};

use crate::identity::GridIdentity;
use crate::telemetry::GridInstruments;
use crate::vm::{VmConfig, VmManager};

pub use crate::telemetry::FaultCounters;
pub use gray::SpeculationConfig;
pub use jobs::{GridError, Job, JobId, JobKind, JobPhase, JobSpec, SubJob};

/// Hard cap on concurrent nodes per job (the experiments use 15).
const MAX_NODES: usize = 15;
/// Stage-in duration per sub-job.
const STAGE_IN: SimDuration = SimDuration::from_secs(30);
/// Stage-out duration per sub-job.
const STAGE_OUT: SimDuration = SimDuration::from_secs(15);

/// Tuning knobs of the scheduling agent.
#[derive(Clone, Copy, Debug)]
pub struct AgentConfig {
    /// Re-balance bid rates across a job's hosts every interval.
    pub rebid: bool,
    /// Cap each bid rate at `max_share_premium × (others' bids)`: bidding
    /// 9× the rest of the market already buys a 90 % share, so anything
    /// beyond is waste (the paper makes the same diminishing-returns
    /// observation about Fig. 3: "it would not make sense for the user to
    /// spend more than roughly $60/day"). Unspent budget stays in the
    /// sub-account and is refunded.
    pub max_share_premium: f64,
    /// Per-host gray-failure health scoring (`DESIGN.md` §17).
    pub health: HealthConfig,
    /// Speculative re-dispatch of deadline-missing sub-jobs (§17).
    pub speculation: SpeculationConfig,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            rebid: true,
            max_share_premium: 9.0,
            health: HealthConfig::default(),
            speculation: SpeculationConfig::default(),
        }
    }
}

/// The job manager / Tycoon ARC plugin.
pub struct JobManager {
    broker: GridIdentity,
    broker_account: AccountId,
    vms: VmManager,
    jobs: BTreeMap<JobId, Job>,
    users: BTreeMap<String, UserId>,
    next_job: u64,
    next_user: u32,
    config: AgentConfig,
    telemetry: GridInstruments,
    /// Last-known / predicted prices used while the links are degraded
    /// (`DESIGN.md` §12); fed from every healthy quote batch.
    degraded: degraded::DegradedPricer,
    /// Gray-fault state per afflicted host (slowdown factor, stall
    /// window) — fed by the fault plan, empty in honest runs (§17).
    gray: BTreeMap<HostId, gray::GrayState>,
    /// Online health trackers, one per observed host (§17). Trackers
    /// are created on first progress observation; in fault-free runs
    /// every score stays at exactly `1.0`.
    health: BTreeMap<HostId, HealthScore>,
}

impl JobManager {
    /// Create the manager, opening the broker's bank account in `market`.
    /// Telemetry records into a private registry; use
    /// [`JobManager::with_registry`] to export `grid.*` metrics.
    pub fn new(market: &mut Market, config: AgentConfig, vm_config: VmConfig) -> JobManager {
        Self::with_registry(market, config, vm_config, &gm_telemetry::Registry::new())
    }

    /// Like [`JobManager::new`], but recording `grid.*` metrics (dispatch,
    /// requeue, retry, token and sub-job latency instrumentation) into the
    /// shared `telemetry_registry`.
    pub fn with_registry(
        market: &mut Market,
        config: AgentConfig,
        vm_config: VmConfig,
        telemetry_registry: &gm_telemetry::Registry,
    ) -> JobManager {
        let broker = GridIdentity::from_dn("/O=Grid/O=Tycoon/CN=resource-broker");
        let broker_account = market
            .bank_mut()
            .open_account(broker.public_key(), "resource-broker");
        JobManager {
            broker,
            broker_account,
            vms: VmManager::new(vm_config),
            jobs: BTreeMap::new(),
            users: BTreeMap::new(),
            next_job: 0,
            next_user: 1,
            config,
            telemetry: GridInstruments::new(telemetry_registry),
            degraded: degraded::DegradedPricer::new(),
            gray: BTreeMap::new(),
            health: BTreeMap::new(),
        }
    }

    /// Cumulative fault-handling counters, derived from the manager's
    /// telemetry counters.
    pub fn fault_counters(&self) -> FaultCounters {
        self.telemetry.fault_counters()
    }

    /// The broker's bank account (transfer tokens must pay into it).
    pub fn broker_account(&self) -> AccountId {
        self.broker_account
    }

    /// The VM manager (read access for monitoring).
    pub fn vms(&self) -> &VmManager {
        &self.vms
    }

    /// All jobs in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Look up one job.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Market user id bound to a DN (created on first submission).
    pub fn user_of_dn(&self, dn: &str) -> Option<UserId> {
        self.users.get(dn).copied()
    }

    /// Submit a job: validate its description, redeem its transfer
    /// token, open the funded sub-account, run Best Response and place the
    /// initial bids. A rejected description leaves the token unspent.
    pub fn submit(
        &mut self,
        market: &mut Market,
        now: SimTime,
        spec: &JobSpec,
    ) -> Result<JobId, GridError> {
        let token = jobs::extract_token(&spec.xrsl)?;
        let parsed = jobs::parse_submission(spec)?;

        // Security: bank signature, broker account, payer key, DN binding,
        // then the bank's journaled double-spend set.
        self.redeem_token(market, &token)?;

        // Funded sub-account per §3.1.
        let (sub_account, _receipt) = market.bank_mut().open_sub_account(
            self.broker_account,
            self.broker.public_key(),
            &format!("job:{}", parsed.name),
            token.amount(),
        )?;

        let user = self.user_for_dn(&token.dn);
        let id = JobId(self.next_job);
        self.next_job += 1;

        let mut job = jobs::Job::build(id, user, &token, parsed, now, sub_account);

        self.place_initial_bids(market, now, &mut job)?;
        self.jobs.insert(id, job);
        Ok(id)
    }

    /// Agent phase before the market allocates: finalize staged-out
    /// sub-jobs, rebalance rates, refill low escrows, fill freed slots.
    pub fn pre_tick(&mut self, market: &mut Market, now: SimTime) {
        self.age_probations();
        self.publish_health(market);
        let interval = market.interval_secs();
        let job_ids: Vec<JobId> = self.jobs.keys().copied().collect();
        for id in job_ids {
            let mut job = self.jobs.remove(&id).expect("job exists");
            if job.phase == JobPhase::Running {
                self.finalize_staged_out(market, &mut job, now);
                self.retire_speculative_slots(market, &mut job);
                if job.phase == JobPhase::Running {
                    self.redispatch(market, &mut job, now);
                }
                if job.phase == JobPhase::Running {
                    self.rebalance(market, &mut job, now, interval);
                    self.speculate(market, &mut job, now);
                    // Concurrency sample for the Nodes metric.
                    let active = job.slots.iter().filter(|s| s.subjob.is_some()).count();
                    job.nodes.sample(active as f64);
                }
            }
            self.jobs.insert(id, job);
        }
    }

    /// Convenience driver: run `pre_tick`, the market tick and `post_tick`
    /// for one interval starting at `now`.
    pub fn step(&mut self, market: &mut Market, now: SimTime) {
        self.pre_tick(market, now);
        let allocations = market.tick(now);
        self.post_tick(market, now, &allocations);
    }

    /// True when no job is in the `Running` phase.
    pub fn all_settled(&self) -> bool {
        self.jobs.values().all(|j| j.phase != JobPhase::Running)
    }

    /// True when a `pre_tick` + `post_tick` round would change nothing:
    /// no job is `Running`, and no host is on probation, so
    /// `age_probations` has no clock to advance and `publish_health`
    /// republishes the scores the last round already published. (A
    /// score leaves probation with its probation count reset, so "not on
    /// probation" also means "holding no probation count".)
    pub fn is_quiet(&self) -> bool {
        self.all_settled() && !self.health.values().any(HealthScore::on_probation)
    }
}
