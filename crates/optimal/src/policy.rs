//! [`VcgSlaPolicy`]: the optimization tier behind the shared
//! [`PolicyDriver`](gm_core::PolicyDriver).
//!
//! Every [`VcgSlaPolicy::DEFAULT_REPLAN_TICKS`] driver ticks the policy
//! opens a *planning
//! window*: it compiles the active jobs' remaining SLA curves and the
//! live host inventory into a [`WelfareProgram`], solves the welfare
//! LP, prices every job by its externality ([`vcg`]), and then executes
//! the fluid plan tick by tick. At the window's end each job is charged
//! its VCG payment pro-rated by the value it actually realized (faults
//! can only shrink a bill, never grow it), settled through a real
//! journaled [`Bank`] so the suite's conservation auditing covers the
//! optimization tier with zero special cases.
//!
//! Fault handling mirrors the Tycoon adapter's semantics through the
//! same generic [`AllocationPolicy::apply_fault`] hook:
//!
//! * `HostCrash`/`HostRecover` — capacity drops to 0 / returns; the
//!   next window replans around it, the current window just loses that
//!   host's deliveries.
//! * `VmFailure` — the targeted host delivers nothing this tick.
//! * `BankOutage`/`BankRestore` — settlement operations queue while
//!   the bank is down and drain in order on restore.
//! * `BankRestart` — the in-memory bank is discarded and recovered
//!   from its durable journal ([`Bank::recover`], DESIGN.md §11).
//! * link/message faults — no-ops (this tier has no network layer).
//!
//! Economic invariants the settlement layer maintains *exactly*:
//! every job's lifetime charges stay ≤ its minted budget, every window
//! charge stays ≤ the value realized in that window (individual
//! rationality), and `Σ balances == total minted` at all times.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gm_core::policy::{AllocationPolicy, PolicyError, TickCtx};
use gm_core::{JobOutcome, JobRequest};
use gm_crypto::Keypair;
use gm_des::{FaultEvent, FaultKind, NodeStat, SimTime};
use gm_ledger::SharedJournal;
use gm_tycoon::{AccountId, Bank, Credits, UserId};

use crate::program::{WelfareApp, WelfareProgram};
use crate::sla::SlaCurve;
use crate::vcg::vcg;

/// Work-comparison epsilon: a job is finished when its remaining work
/// drops below this many MHz·seconds.
const WORK_EPS: f64 = 1e-6;

/// One admitted job's running state.
struct JobState {
    user: UserId,
    arrival: SimTime,
    budget: f64,
    deadline_secs: f64,
    subjobs: u32,
    curve: SlaCurve,
    /// Total work delivered (on time or not).
    delivered: f64,
    /// Work delivered before the deadline — the curve's argument.
    on_time_delivered: f64,
    /// `curve(on_time_delivered)`, maintained incrementally.
    value_accrued: f64,
    /// Credits actually charged so far.
    charged: Credits,
    finished_at: Option<SimTime>,
    account: AccountId,
    /// Concurrency, sampled on ticks that delivered work.
    nodes: NodeStat,
}

impl JobState {
    fn total_work(&self) -> f64 {
        self.curve.total_work()
    }

    fn remaining(&self) -> f64 {
        (self.total_work() - self.delivered).max(0.0)
    }

    fn deadline_at(&self) -> Option<SimTime> {
        (self.deadline_secs > 0.0)
            .then(|| self.arrival + gm_des::SimDuration::from_secs_f64(self.deadline_secs))
    }
}

/// The per-window fluid plan being executed.
struct WindowPlan {
    /// Job ids in program order.
    jobs: Vec<u32>,
    /// `rate[a][h]`: MHz·seconds per tick job `a` draws from host `h`
    /// (the LP allocation plus deterministic backfill, spread evenly
    /// over the window's ticks).
    rate: Vec<Vec<f64>>,
    /// Planned on-time value per job over the window.
    planned_value: Vec<f64>,
    /// VCG payment per job if the whole planned value is realized.
    planned_payment: Vec<f64>,
    /// On-time value actually realized so far this window.
    actual_value: Vec<f64>,
    /// Mean host-capacity shadow price (the posted price sample).
    price: f64,
    ticks_total: u64,
    ticks_done: u64,
}

/// A deferred bank operation (settlement survives bank outages by
/// queueing client-side and draining in FIFO order on restore).
enum BankOp {
    /// Fund a user account with a job's budget.
    Mint {
        /// Destination account.
        to: AccountId,
        /// Amount to mint.
        amount: Credits,
    },
    /// Charge a job's VCG payment to the provider.
    Pay {
        /// Job being settled (its `charged` tally absorbs the amount).
        job: u32,
        /// The owning user's account.
        from: AccountId,
        /// Amount to charge.
        amount: Credits,
    },
}

/// The optimization-tier allocator: welfare-LP planning, VCG pricing,
/// bank-settled payments — an [`AllocationPolicy`] like any other.
pub struct VcgSlaPolicy {
    bank: Bank,
    bank_online: bool,
    journal: SharedJournal,
    bank_seed: Vec<u8>,
    provider: AccountId,
    accounts: BTreeMap<UserId, AccountId>,
    /// Registered curves consumed at admission (defaults to
    /// [`SlaCurve::linear`] over the request's work and budget).
    curves: BTreeMap<u32, SlaCurve>,
    jobs: BTreeMap<u32, JobState>,
    crashed: BTreeSet<usize>,
    vm_failed: BTreeSet<usize>,
    /// Gray-degraded hosts: delivered rate in permille of nominal
    /// (`HostSlowdown`/`HostRestore`, DESIGN.md §17).
    gray: BTreeMap<usize, u16>,
    /// Hosts delivering nothing until the stall window expires.
    stalled_until: BTreeMap<usize, SimTime>,
    queue: VecDeque<BankOp>,
    plan: Option<WindowPlan>,
    last_price: Option<f64>,
}

impl VcgSlaPolicy {
    /// Default planning-window length in driver ticks.
    pub const DEFAULT_REPLAN_TICKS: u64 = 6;

    /// New policy with its own journaled bank, deterministically keyed
    /// by `seed`.
    pub fn new(seed: u64) -> VcgSlaPolicy {
        let bank_seed = {
            let mut s = b"vcg-sla-bank".to_vec();
            s.extend_from_slice(&seed.to_le_bytes());
            s
        };
        let mut bank = Bank::new(&bank_seed);
        let journal = SharedJournal::new();
        bank.attach_ledger(journal.clone());
        let provider_key = Keypair::from_seed(&bank_seed).public;
        let provider = bank.open_account(provider_key, "vcg-provider");
        VcgSlaPolicy {
            bank,
            bank_online: true,
            journal,
            bank_seed,
            provider,
            accounts: BTreeMap::new(),
            curves: BTreeMap::new(),
            jobs: BTreeMap::new(),
            crashed: BTreeSet::new(),
            vm_failed: BTreeSet::new(),
            gray: BTreeMap::new(),
            stalled_until: BTreeMap::new(),
            queue: VecDeque::new(),
            plan: None,
            last_price: None,
        }
    }

    /// Register an SLA value curve for request `id` (consumed at
    /// admission). Unregistered jobs default to the linear curve with
    /// `total_value == budget`, the shape that makes welfare directly
    /// comparable with the all-or-nothing baselines.
    pub fn with_curve(mut self, id: u32, curve: SlaCurve) -> Self {
        self.curves.insert(id, curve);
        self
    }

    /// The settlement bank (read access — audits, balances).
    pub fn bank(&self) -> &Bank {
        &self.bank
    }

    /// `|total_minted − Σ balances|` in credits — the conservation
    /// invariant says this is exactly 0 at every point in the run.
    pub fn conservation_residual(&self) -> f64 {
        (self.bank.total_minted().as_f64() - self.bank.total_money().as_f64()).abs()
    }

    fn account_for(&mut self, user: UserId) -> AccountId {
        if let Some(&a) = self.accounts.get(&user) {
            return a;
        }
        let mut key_seed = self.bank_seed.clone();
        key_seed.extend_from_slice(&user.0.to_le_bytes());
        let key = Keypair::from_seed(&key_seed).public;
        let a = self.bank.open_account(key, &format!("vcg-user{}", user.0));
        self.accounts.insert(user, a);
        a
    }

    /// Apply one settlement op to the bank; charges are capped at the
    /// payer's balance at drain time (by construction they never exceed
    /// it — budgets are minted before any charge against them).
    fn apply_op(&mut self, op: &BankOp) {
        match *op {
            BankOp::Mint { to, amount } => {
                if amount.is_positive() {
                    self.bank.mint(to, amount).expect("mint to open account");
                }
            }
            BankOp::Pay { job, from, amount } => {
                let balance = self.bank.balance(from).unwrap_or(Credits::ZERO);
                let amount = amount.min(balance);
                if amount.is_positive() {
                    self.bank
                        .transfer(from, self.provider, amount)
                        .expect("settlement transfer");
                    if let Some(j) = self.jobs.get_mut(&job) {
                        j.charged += amount;
                    }
                }
            }
        }
    }

    fn drain_queue(&mut self) {
        while self.bank_online {
            let Some(op) = self.queue.pop_front() else { break };
            self.apply_op(&op);
        }
    }

    fn enqueue(&mut self, op: BankOp) {
        if self.bank_online && self.queue.is_empty() {
            self.apply_op(&op);
        } else {
            self.queue.push_back(op);
        }
    }

    /// Host capacity (MHz·seconds) over `secs`, 0 when crashed.
    fn host_capacity(&self, ctx: &TickCtx, h: usize, secs: f64) -> f64 {
        if self.crashed.contains(&h) {
            0.0
        } else {
            let spec = &ctx.hosts[h];
            f64::from(spec.cpus) * spec.vcpu_capacity_mhz() * secs
        }
    }

    /// Build, solve and price the next window; install the plan.
    fn replan(&mut self, ctx: &TickCtx) {
        let window_secs = Self::DEFAULT_REPLAN_TICKS as f64 * ctx.interval_secs;
        let hosts: Vec<f64> = (0..ctx.hosts.len())
            .map(|h| self.host_capacity(ctx, h, window_secs))
            .collect();
        let vcpu_max = ctx
            .hosts
            .iter()
            .map(gm_tycoon::HostSpec::vcpu_capacity_mhz)
            .fold(0.0, f64::max);

        let mut program = WelfareProgram::new(hosts.clone());
        let mut job_ids: Vec<u32> = Vec::new();
        for (&id, job) in &self.jobs {
            if job.finished_at.is_some() {
                continue;
            }
            // Fluid parallelism bound: each sub-job is sequential, so
            // the job can absorb at most `subjobs` vCPUs worth of work.
            let parallel_rate = f64::from(job.subjobs) * vcpu_max;
            let cap = job.remaining().min(parallel_rate * window_secs);
            // Value only attaches to work that can still land before
            // the deadline; later delivery is allowed but worthless.
            let time_left = match job.deadline_at() {
                Some(d) if d > ctx.now => d.since(ctx.now).as_secs_f64(),
                Some(_) => 0.0,
                None => window_secs,
            };
            let value_limit = cap.min(parallel_rate * time_left.min(window_secs));
            let segments = job
                .curve
                .remaining_segments(job.on_time_delivered, value_limit);
            program.add_app(WelfareApp {
                id,
                segments,
                cap,
            });
            job_ids.push(id);
        }

        let Some(out) = vcg(&program) else {
            // A non-finite capacity or curve (unreachable from finite job
            // specs): skip this window rather than panic; the next one
            // re-tries.
            self.plan = None;
            return;
        };
        let mut alloc = program.place(&out.solution.delivered);

        // Work-conserving backfill: leftover host capacity goes to
        // unfinished jobs in id order (worthless-by-the-curve delivery
        // still finishes jobs — completion is a metric, not a value).
        for (h, &cap) in hosts.iter().enumerate() {
            let mut left = cap - alloc.iter().map(|row| row[h]).sum::<f64>();
            for (row, app) in alloc.iter_mut().zip(program.apps()) {
                if left <= WORK_EPS {
                    break;
                }
                let planned: f64 = row.iter().sum();
                let headroom = (app.cap - planned).max(0.0);
                let take = headroom.min(left);
                if take > 0.0 {
                    row[h] += take;
                    left -= take;
                }
            }
        }

        let ticks = Self::DEFAULT_REPLAN_TICKS as f64;
        self.plan = Some(WindowPlan {
            jobs: job_ids,
            rate: alloc
                .iter()
                .map(|row| row.iter().map(|x| x / ticks).collect())
                .collect(),
            planned_value: out.receipts.iter().map(|r| r.value).collect(),
            planned_payment: out.receipts.iter().map(|r| r.payment).collect(),
            actual_value: vec![0.0; out.receipts.len()],
            price: {
                let p = &out.solution.host_prices;
                if p.is_empty() {
                    0.0
                } else {
                    p.iter().sum::<f64>() / p.len() as f64
                }
            },
            ticks_total: Self::DEFAULT_REPLAN_TICKS,
            ticks_done: 0,
        });
        self.last_price = self.plan.as_ref().map(|p| p.price);
    }

    /// Charge every job of the finished window its VCG payment,
    /// pro-rated by realized value; then retire the plan.
    fn settle_window(&mut self) {
        let Some(plan) = self.plan.take() else { return };
        for (a, &id) in plan.jobs.iter().enumerate() {
            let planned = plan.planned_value[a];
            let ratio = if planned > WORK_EPS {
                (plan.actual_value[a] / planned).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let payment = plan.planned_payment[a] * ratio;
            if payment <= 0.0 {
                continue;
            }
            let Some(job) = self.jobs.get(&id) else { continue };
            // Exact caps: lifetime charges never exceed the minted
            // budget; the Credits floor keeps rounding on the user's
            // side of both inequalities.
            let budget_cap = Credits::from_f64(job.budget).saturating_sub_at_zero(job.charged);
            let amount = Credits::from_f64(payment).min(budget_cap);
            let from = job.account;
            self.enqueue(BankOp::Pay {
                job: id,
                from,
                amount,
            });
        }
    }
}

impl AllocationPolicy for VcgSlaPolicy {
    fn name(&self) -> &'static str {
        "vcg"
    }

    fn begin_tick(&mut self, _ctx: &TickCtx) {
        self.vm_failed.clear();
    }

    fn apply_fault(&mut self, ctx: &TickCtx, ev: &FaultEvent) {
        let on = |host: u32| host as usize % ctx.hosts.len().max(1);
        match ev.kind {
            FaultKind::HostCrash { host } => {
                self.crashed.insert(on(host));
            }
            FaultKind::HostRecover { host } => {
                self.crashed.remove(&on(host));
            }
            FaultKind::VmFailure { host } => {
                self.vm_failed.insert(on(host));
            }
            FaultKind::BankOutage => {
                self.bank_online = false;
            }
            FaultKind::BankRestore => {
                self.bank_online = true;
                self.drain_queue();
            }
            FaultKind::BankRestart => {
                // The in-memory bank dies; recover from the journal.
                // Queued client-side ops survive in the policy and
                // drain against the recovered state.
                let (mut bank, _report) = Bank::recover(&self.bank_seed, &self.journal)
                    .expect("bank journal recovery");
                bank.attach_ledger(self.journal.clone());
                self.bank = bank;
                self.bank_online = true;
                self.drain_queue();
            }
            // Gray faults degrade a host's delivered rate without taking
            // it out of the plan (the LP keeps allocating it at nominal
            // capacity — the failure is silent, exactly as in the Tycoon
            // tier).
            FaultKind::HostSlowdown { host, permille } => {
                self.gray.insert(on(host), permille.clamp(1, 1000));
            }
            FaultKind::HostRestore { host } => {
                self.gray.remove(&on(host));
                self.stalled_until.remove(&on(host));
            }
            FaultKind::HostStall { host, len } => {
                let until = ctx.now + len;
                let entry = self.stalled_until.entry(on(host)).or_insert(until);
                *entry = (*entry).max(until);
            }
            // Adversary cohorts arrive as extra job requests through the
            // shared driver; the fault event itself needs no VCG action.
            FaultKind::LinkDown | FaultKind::LinkUp | FaultKind::AdversaryArrival { .. } => {}
        }
    }

    fn admit(&mut self, _ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        let total_work = req.total_work();
        let curve = match self.curves.remove(&req.id) {
            Some(c) => c,
            None if req.budget > 0.0 => SlaCurve::linear(total_work, req.budget),
            // Zero-budget jobs carry no market value: a degenerate flat
            // curve keeps them schedulable via backfill.
            None => SlaCurve::new(vec![(total_work, 0.0)]).expect("flat curve"),
        };
        let account = self.account_for(req.user);
        self.enqueue(BankOp::Mint {
            to: account,
            amount: Credits::from_f64(req.budget),
        });
        self.jobs.insert(
            req.id,
            JobState {
                user: req.user,
                arrival: req.arrival,
                budget: req.budget,
                deadline_secs: req.deadline_secs,
                subjobs: req.subjobs,
                curve,
                delivered: 0.0,
                on_time_delivered: 0.0,
                value_accrued: 0.0,
                charged: Credits::ZERO,
                finished_at: None,
                account,
                nodes: NodeStat::default(),
            },
        );
        Ok(())
    }

    fn place(&mut self, ctx: &TickCtx) {
        let consumed = self
            .plan
            .as_ref()
            .is_none_or(|p| p.ticks_done >= p.ticks_total);
        if consumed {
            // A consumed plan is settled in `settle`; if everything
            // finished mid-window it was settled early there too.
            self.replan(ctx);
        }
    }

    fn advance(&mut self, ctx: &TickCtx) {
        let Some(plan) = &mut self.plan else { return };
        let tick_end = ctx.tick_end();
        for (a, &id) in plan.jobs.iter().enumerate() {
            let Some(job) = self.jobs.get_mut(&id) else { continue };
            if job.finished_at.is_some() {
                continue;
            }
            // Work arriving this tick: the planned per-tick rate minus
            // hosts that are down or whose VM failed this tick.
            let mut got = 0.0;
            let mut nodes = 0.0;
            for (h, &r) in plan.rate[a].iter().enumerate() {
                if r <= 0.0 || self.crashed.contains(&h) || self.vm_failed.contains(&h) {
                    continue;
                }
                if self.stalled_until.get(&h).is_some_and(|&t| ctx.now < t) {
                    continue; // gray stall: nothing delivered this tick
                }
                // Gray slowdown: the planned rate arrives scaled down.
                let frac = self
                    .gray
                    .get(&h)
                    .map_or(1.0, |&p| f64::from(p.min(1000)) / 1000.0);
                got += r * frac;
                nodes += r * frac / (ctx.hosts[h].vcpu_capacity_mhz() * ctx.interval_secs);
            }
            let applied = got.min(job.remaining());
            job.delivered += applied;
            let on_time = job.deadline_at().is_none_or(|d| tick_end <= d);
            if on_time && applied > 0.0 {
                job.on_time_delivered += applied;
                let v = job.curve.value(job.on_time_delivered);
                plan.actual_value[a] += v - job.value_accrued;
                job.value_accrued = v;
            }
            if job.remaining() <= WORK_EPS {
                job.finished_at = Some(tick_end);
            }
            if applied > 0.0 && job.finished_at.is_none() {
                job.nodes.sample(nodes);
            }
        }
        plan.ticks_done += 1;
    }

    fn settle(&mut self, _ctx: &TickCtx) {
        self.drain_queue();
        let window_over = self
            .plan
            .as_ref()
            .is_some_and(|p| p.ticks_done >= p.ticks_total);
        let all_done = self.jobs.values().all(|j| j.finished_at.is_some());
        if window_over || (self.plan.is_some() && all_done) {
            self.settle_window();
            self.drain_queue();
        }
    }

    fn price(&self, _ctx: &TickCtx) -> Option<f64> {
        self.last_price
    }

    fn all_settled(&self) -> bool {
        self.jobs.values().all(|j| j.finished_at.is_some())
            && self.plan.is_none()
            && self.queue.is_empty()
            && self.bank_online
    }

    fn outcomes(&self, now: SimTime) -> Vec<JobOutcome> {
        self.jobs
            .iter()
            .map(|(&id, j)| {
                let (value, cost) = (j.value_accrued, j.charged.as_f64());
                JobOutcome::new(id, j.user, j.arrival, j.finished_at, now, value, cost, &j.nodes)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_core::PolicyDriver;
    use gm_des::SimDuration;
    use gm_tycoon::HostSpec;

    fn hosts(n: u32) -> Vec<HostSpec> {
        (0..n).map(HostSpec::testbed).collect()
    }

    fn job(id: u32, subjobs: u32, work_secs: f64, budget: f64, deadline_secs: f64) -> JobRequest {
        JobRequest {
            id,
            user: UserId(id + 1),
            subjobs,
            work_per_subjob: work_secs * 2910.0,
            arrival: SimTime::ZERO,
            budget,
            deadline_secs,
        }
    }

    fn run(
        policy: &mut VcgSlaPolicy,
        hosts: &[HostSpec],
        jobs: &[JobRequest],
        horizon_secs: u64,
    ) -> gm_core::RunResult {
        PolicyDriver::new(hosts.to_vec(), 10.0)
            .horizon(SimTime::ZERO + SimDuration::from_secs(horizon_secs))
            .run(policy, jobs)
            .expect("valid jobs")
    }

    #[test]
    fn single_job_completes_and_earns_its_budget() {
        let mut p = VcgSlaPolicy::new(1);
        let r = run(&mut p, &hosts(2), &[job(0, 4, 100.0, 50.0, 3600.0)], 20_000);
        assert!(r.all_finished(), "{:?}", r.outcomes);
        let o = &r.outcomes[0];
        assert!((o.value - 50.0).abs() < 1e-6, "full on-time delivery = budget, got {}", o.value);
        // Alone on the grid: zero externality, zero payment.
        assert!(o.cost < 1e-9, "uncontended job paid {}", o.cost);
        assert_eq!(p.conservation_residual(), 0.0);
    }

    #[test]
    fn contended_window_charges_vcg_but_stays_rational() {
        // 1 host (2 cpus), two big competing jobs, tight deadlines.
        let jobs = [
            job(0, 8, 400.0, 100.0, 2400.0),
            job(1, 8, 400.0, 40.0, 2400.0),
        ];
        let mut p = VcgSlaPolicy::new(2);
        let r = run(&mut p, &hosts(1), &jobs, 40_000);
        for o in &r.outcomes {
            assert!(o.cost <= o.value + 1e-6, "job {} charged above realized value", o.id);
            assert!(o.cost >= 0.0);
        }
        // Contention ⇒ someone pays something.
        assert!(r.revenue() > 0.0, "VCG revenue must be positive under contention");
        assert_eq!(p.conservation_residual(), 0.0);
    }

    #[test]
    fn runs_are_byte_deterministic() {
        let jobs = [
            job(0, 4, 150.0, 60.0, 2000.0),
            job(1, 2, 90.0, 30.0, 1500.0),
        ];
        let fingerprint = |r: &gm_core::RunResult| -> Vec<(u32, u64, u64)> {
            r.outcomes
                .iter()
                .map(|o| (o.id, o.value.to_bits(), o.cost.to_bits()))
                .collect()
        };
        let a = run(&mut VcgSlaPolicy::new(7), &hosts(2), &jobs, 20_000);
        let b = run(&mut VcgSlaPolicy::new(7), &hosts(2), &jobs, 20_000);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(
            a.price_history.iter().map(|(_, p)| p.to_bits()).collect::<Vec<_>>(),
            b.price_history.iter().map(|(_, p)| p.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn expired_jobs_finish_via_backfill_but_earn_nothing() {
        // Deadline already passed relative to any feasible schedule.
        let mut p = VcgSlaPolicy::new(3);
        let r = run(&mut p, &hosts(1), &[job(0, 2, 300.0, 20.0, 1.0)], 40_000);
        let o = &r.outcomes[0];
        assert!(o.finished_at.is_some(), "backfill must still finish the job");
        assert!(o.value < 1e-9, "late delivery is worthless");
        assert!(o.cost < 1e-9, "worthless delivery is free");
    }

    #[test]
    fn custom_concave_curve_earns_partial_credit() {
        // A front-loaded curve on an over-tight deadline: the job can
        // only land part of its work on time, but that part still pays.
        let curve = SlaCurve::front_loaded(2.0 * 300.0 * 2910.0, 80.0, 0.5, 0.8);
        let mut p = VcgSlaPolicy::new(4).with_curve(0, curve);
        let r = run(&mut p, &hosts(1), &[job(0, 2, 300.0, 80.0, 200.0)], 40_000);
        let o = &r.outcomes[0];
        assert!(o.value > 0.0, "partial on-time delivery must earn partial credit");
        assert!(o.value < 80.0, "but not the full value");
    }

    #[test]
    fn gray_faults_reach_hosts_above_65535() {
        // Gray faults once packed their host into 16 bits, so a slowdown
        // addressed to host 70,000 of a 100,000-host world slowed host
        // 4,464 (70,000 mod 65,536).
        let hosts = hosts(100_000);
        let ctx = TickCtx {
            now: SimTime::ZERO,
            interval_secs: 10.0,
            hosts: &hosts,
        };
        let mut p = VcgSlaPolicy::new(5);
        let len = SimDuration::from_secs(600);
        for kind in [
            FaultKind::HostSlowdown { host: 70_000, permille: 250 },
            FaultKind::HostStall { host: 70_001, len },
        ] {
            p.apply_fault(&ctx, &FaultEvent { at: SimTime::ZERO, kind });
        }
        assert_eq!(p.gray.get(&70_000), Some(&250));
        assert_eq!(p.stalled_until.get(&70_001), Some(&(SimTime::ZERO + len)));
        assert!(!p.gray.contains_key(&4_464) && !p.stalled_until.contains_key(&4_465));
    }

    #[test]
    fn bank_queue_defers_settlement_through_an_outage() {
        use gm_des::FaultPlan;
        let mut plan = FaultPlan::new();
        plan.bank_outage(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(600))
            .push(SimTime::ZERO + SimDuration::from_secs(900), FaultKind::BankRestart);
        let jobs = [
            job(0, 8, 400.0, 100.0, 2400.0),
            job(1, 8, 400.0, 40.0, 2400.0),
        ];
        let mut p = VcgSlaPolicy::new(5);
        let r = PolicyDriver::new(hosts(1), 10.0)
            .horizon(SimTime::ZERO + SimDuration::from_secs(40_000))
            .faults(plan)
            .run(&mut p, &jobs)
            .expect("valid jobs");
        assert!(r.revenue() > 0.0);
        assert_eq!(p.conservation_residual(), 0.0, "conservation across outage+restart");
        assert!(p.queue.is_empty(), "queue must drain after restore");
    }
}
