//! The [`AllocationPolicy`] trait and the unified [`PolicyDriver`].
//!
//! Every allocator in the suite — Tycoon's bid-based proportional-share
//! market as well as the FIFO, equal-share, G-commerce, and
//! winner-takes-all baselines — implements one trait, and a single
//! per-tick loop drives them all:
//!
//! ```text
//! per tick:  begin_tick → faults → admit arrivals → place → advance
//!            → settle → price sample → now += interval
//!            → skip_quiet (up to the next fault, arrival or horizon)
//! ```
//!
//! After each stepped tick the driver offers the policy a *quiet span*:
//! every tick strictly before the next due fault, the next arrival and
//! the horizon. A policy whose next ticks would change nothing but its
//! clocks, counters and price samples advances them in one
//! [`AllocationPolicy::skip_quiet`] call, and the driver books the
//! skipped ticks exactly as if it had stepped them. The default steps
//! every tick, so the per-tick path is the reference that any skipping
//! policy is tested against.
//!
//! The driver owns everything policy-independent: the host inventory,
//! the interval, the horizon, the arrival stream ordering (by
//! `(arrival, id)`), the fault schedule, and the telemetry counters.
//! Because those are shared, two policies run under *identical* arrival
//! streams and fault plans — the A/B comparison in the paper's Tables
//! 1/2 is apples to apples by construction.

use gm_des::{FaultEvent, FaultPlan, NodeStat, SimDuration, SimTime};
use gm_telemetry::{Counter, Registry};
use gm_tycoon::HostSpec;

use crate::workload::{JobOutcome, JobRequest, RunResult};

/// Error from validation, admission, or a policy-internal failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A [`JobRequest`] failed validation before the run started.
    Invalid(String),
    /// A policy refused or failed to admit a job mid-run.
    Rejected {
        /// Id of the offending job.
        job: u32,
        /// Policy-specific reason (for Tycoon, the rendered `GridError`).
        reason: String,
    },
}

impl PolicyError {
    /// Shorthand for a validation failure.
    pub fn invalid(msg: impl Into<String>) -> Self {
        PolicyError::Invalid(msg.into())
    }
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Invalid(msg) => write!(f, "invalid job request: {msg}"),
            PolicyError::Rejected { job, reason } => {
                write!(f, "job {job} rejected by policy: {reason}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// The shared host-capacity + clock view handed to every hook.
///
/// `hosts` is the full inventory in index order; policies that model
/// host failure internally (Tycoon) also receive [`FaultEvent`]s via
/// [`AllocationPolicy::apply_fault`], while capacity-oblivious baselines
/// may simply read specs off this slice each tick.
#[derive(Debug, Clone, Copy)]
pub struct TickCtx<'a> {
    /// Start of the current tick.
    pub now: SimTime,
    /// Tick length in seconds.
    pub interval_secs: f64,
    /// Host inventory (stable order and length for the whole run).
    pub hosts: &'a [HostSpec],
}

impl TickCtx<'_> {
    /// Tick length as a [`SimDuration`].
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.interval_secs)
    }

    /// End of the current tick (`now + interval`).
    pub fn tick_end(&self) -> SimTime {
        self.now + self.interval()
    }

    /// Total CPU slots across the inventory.
    pub fn total_slots(&self) -> usize {
        self.hosts.iter().map(|h| h.cpus as usize).sum()
    }
}

/// An allocator that can be driven tick by tick by the [`PolicyDriver`].
///
/// Hook order within one tick is fixed (see the module docs). All hooks
/// except [`admit`](AllocationPolicy::admit) are infallible: a policy
/// that cannot serve a job reports that through its
/// [`outcomes`](AllocationPolicy::outcomes) (unfinished job), exactly
/// like the paper's stalled-job semantics.
pub trait AllocationPolicy {
    /// Short stable name (`"tycoon"`, `"fifo"`, ...): used in reports,
    /// telemetry labels, and the policy-matrix CI gate.
    fn name(&self) -> &'static str;

    /// Called first every tick, before faults and arrivals. Policies
    /// carrying their own clock (Tycoon's telemetry `ManualClock`)
    /// synchronise it here; stateless baselines can ignore it.
    fn begin_tick(&mut self, _ctx: &TickCtx) {}

    /// Deliver one scheduled fault event. The default ignores faults —
    /// the conventional baselines model an idealised failure-free
    /// cluster, which is itself a documented comparison bias in their
    /// favour. Events flow through generically: `FaultKind::BankRestart`
    /// (kill the economy's bank and recover it from its durable ledger,
    /// DESIGN.md §11) reaches a market-backed policy through this same
    /// hook with no driver-side special casing.
    fn apply_fault(&mut self, _ctx: &TickCtx, _ev: &FaultEvent) {}

    /// Admit a newly arrived job. Called in `(arrival, id)` order, at
    /// the first tick with `req.arrival <= now`.
    fn admit(&mut self, ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError>;

    /// Claim capacity for admitted work (queue → slots, bids, market
    /// orders). Runs before [`advance`](AllocationPolicy::advance).
    fn place(&mut self, ctx: &TickCtx);

    /// Advance running work by one interval (burn CPU, move sub-jobs to
    /// completion, run the market's auction tick).
    fn advance(&mut self, ctx: &TickCtx);

    /// Post-advance bookkeeping: charging, refunds, posted-price
    /// adjustment, concurrency sampling.
    fn settle(&mut self, ctx: &TickCtx);

    /// The price to record for this tick, if the policy posts one
    /// (`None` ⇒ no sample; FIFO and equal-share never post).
    fn price(&self, ctx: &TickCtx) -> Option<f64>;

    /// Advance up to `max` ticks at once, starting with the tick at
    /// `ctx.now`, and return how many were advanced (at most `max`).
    ///
    /// The driver offers only ticks strictly before the next fault, the
    /// next arrival and the horizon. A policy may skip a tick only when
    /// running the full hook sequence for it would change nothing but
    /// clocks, counters and samples; skipping must leave exactly the
    /// state that stepping those ticks would, and [`price`] must return
    /// the same value at every skipped tick. The default skips nothing.
    ///
    /// [`price`]: AllocationPolicy::price
    fn skip_quiet(&mut self, _ctx: &TickCtx, _max: u64) -> u64 {
        0
    }

    /// True when every admitted job has reached a terminal state and no
    /// money/slots remain in flight — the driver's early-exit condition.
    fn all_settled(&self) -> bool;

    /// Report one [`JobOutcome`] per admitted job. `now` is the
    /// driver's final clock value, used as the horizon for unfinished
    /// jobs' makespans.
    fn outcomes(&self, now: SimTime) -> Vec<JobOutcome>;
}

/// How many ticks `now, now + dt, …` fall strictly before `t`.
fn ticks_before(now: SimTime, dt: SimDuration, t: SimTime) -> u64 {
    let dt = dt.as_micros();
    if t <= now || dt == 0 {
        return 0;
    }
    (t.as_micros() - now.as_micros()).div_ceil(dt)
}

/// Counters the driver maintains across one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Ticks executed, stepped or skipped.
    pub ticks: u64,
    /// Ticks of `ticks` the policy skipped as quiet
    /// ([`AllocationPolicy::skip_quiet`]) instead of stepping them.
    pub quiet_ticks: u64,
    /// Jobs admitted (≤ requests when some arrive past the horizon).
    pub admitted: usize,
    /// Fault events delivered to the policy.
    pub faults_injected: usize,
    /// The driver's clock when the run ended (horizon or early exit).
    /// Callers that report makespans against the run end must use this
    /// value: recomputing `ticks × interval` drifts for non-integral
    /// intervals, while this is the exact repeatedly-advanced clock.
    pub final_now: SimTime,
}

/// Telemetry handles the driver increments when a registry is attached.
struct DriverInstruments {
    ticks: Counter,
    admitted: Counter,
    faults_injected: Counter,
}

/// The one simulation loop shared by every policy.
///
/// Construct with the host inventory and tick interval, optionally add
/// a horizon, fault plan, and telemetry registry, then [`run`] a policy
/// over a request stream.
///
/// [`run`]: PolicyDriver::run
pub struct PolicyDriver {
    hosts: Vec<HostSpec>,
    interval_secs: f64,
    horizon: SimTime,
    faults: FaultPlan,
    instruments: Option<DriverInstruments>,
    stats: DriverStats,
}

impl PolicyDriver {
    /// Default horizon: generous enough for every in-repo workload.
    pub const DEFAULT_HORIZON_HOURS: u64 = 6;

    /// New driver over `hosts` ticking every `interval_secs`.
    pub fn new(hosts: Vec<HostSpec>, interval_secs: f64) -> Self {
        PolicyDriver {
            hosts,
            interval_secs,
            horizon: SimTime::ZERO + SimDuration::from_secs(Self::DEFAULT_HORIZON_HOURS * 3600),
            faults: FaultPlan::new(),
            instruments: None,
            stats: DriverStats::default(),
        }
    }

    /// Set the simulation horizon (the run also ends early once all
    /// work is settled and the fault plan exhausted).
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Attach a fault schedule; events are delivered to the policy's
    /// [`AllocationPolicy::apply_fault`] hook in time order.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attach a telemetry registry: the driver maintains the
    /// `driver.ticks`, `driver.jobs_admitted`, and `faults.injected`
    /// counters (the last name matches the pre-refactor scenario
    /// telemetry, so existing dashboards and tests keep working).
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.instruments = Some(DriverInstruments {
            ticks: registry.counter("driver.ticks"),
            admitted: registry.counter("driver.jobs_admitted"),
            faults_injected: registry.counter("faults.injected"),
        });
        self
    }

    /// Counters from the most recent [`run`](PolicyDriver::run).
    pub fn stats(&self) -> &DriverStats {
        &self.stats
    }

    /// Host inventory the driver hands to policies each tick.
    pub fn host_specs(&self) -> &[HostSpec] {
        &self.hosts
    }

    /// Drive `policy` over `requests` until everything settles or the
    /// horizon is reached. Requests are admitted in `(arrival, id)`
    /// order regardless of slice order; outcomes come back in slice
    /// order. Ids must be unique.
    pub fn run(
        &mut self,
        policy: &mut dyn AllocationPolicy,
        requests: &[JobRequest],
    ) -> Result<RunResult, PolicyError> {
        for req in requests {
            req.validate()?;
        }
        let mut seen = std::collections::BTreeSet::new();
        for req in requests {
            if !seen.insert(req.id) {
                return Err(PolicyError::invalid(format!("duplicate job id {}", req.id)));
            }
        }
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].arrival, requests[i].id));

        self.stats = DriverStats::default();
        let mut faults = self.faults.clone();
        let dt = SimDuration::from_secs_f64(self.interval_secs);
        let mut now = SimTime::ZERO;
        let mut next = 0usize;
        let mut price_history: Vec<(SimTime, f64)> = Vec::new();

        while now < self.horizon {
            let ctx = TickCtx {
                now,
                interval_secs: self.interval_secs,
                hosts: &self.hosts,
            };
            policy.begin_tick(&ctx);
            for ev in faults.take_due(now) {
                self.stats.faults_injected += 1;
                if let Some(ins) = &self.instruments {
                    ins.faults_injected.inc();
                }
                policy.apply_fault(&ctx, &ev);
            }
            while next < order.len() && requests[order[next]].arrival <= now {
                policy.admit(&ctx, &requests[order[next]])?;
                self.stats.admitted += 1;
                if let Some(ins) = &self.instruments {
                    ins.admitted.inc();
                }
                next += 1;
            }
            policy.place(&ctx);
            policy.advance(&ctx);
            policy.settle(&ctx);
            if let Some(p) = policy.price(&ctx) {
                price_history.push((now, p));
            }
            self.stats.ticks += 1;
            if let Some(ins) = &self.instruments {
                ins.ticks.inc();
            }
            now += dt;
            if next == order.len() && faults.is_exhausted() && policy.all_settled() {
                break;
            }
            let arrival = order.get(next).map(|&i| requests[i].arrival);
            // `ticks_before` grows with `t`, so the earliest stop bounds the span.
            let until = [faults.next_at(), arrival]
                .into_iter()
                .flatten()
                .fold(self.horizon, SimTime::min);
            let max = ticks_before(now, dt, until);
            if max == 0 {
                continue;
            }
            let ctx = TickCtx {
                now,
                interval_secs: self.interval_secs,
                hosts: &self.hosts,
            };
            let k = policy.skip_quiet(&ctx, max);
            assert!(k <= max, "{} skipped {k} ticks of {max}", policy.name());
            if k == 0 {
                continue;
            }
            let last = TickCtx {
                now: now + dt * (k - 1),
                ..ctx
            };
            if let Some(p) = policy.price(&last) {
                price_history.extend((0..k).map(|i| (now + dt * i, p)));
            }
            self.stats.ticks += k;
            self.stats.quiet_ticks += k;
            if let Some(ins) = &self.instruments {
                ins.ticks.add(k);
            }
            now += dt * k;
        }

        self.stats.final_now = now;
        Ok(Self::collect(policy, requests, now, price_history))
    }

    /// Assemble the [`RunResult`]: policy outcomes matched back to the
    /// request slice order, plus synthesised zero outcomes for requests
    /// that never arrived within the horizon.
    fn collect(
        policy: &dyn AllocationPolicy,
        requests: &[JobRequest],
        now: SimTime,
        price_history: Vec<(SimTime, f64)>,
    ) -> RunResult {
        let mut by_id: std::collections::BTreeMap<u32, JobOutcome> = policy
            .outcomes(now)
            .into_iter()
            .map(|o| (o.id, o))
            .collect();
        let outcomes = requests
            .iter()
            .map(|req| {
                by_id.remove(&req.id).unwrap_or_else(|| {
                    let nodes = NodeStat::default();
                    JobOutcome::new(req.id, req.user, req.arrival, None, now, 0.0, 0.0, &nodes)
                })
            })
            .collect();
        RunResult {
            outcomes,
            price_history,
        }
    }
}
