//! # gm-baselines — comparison schedulers
//!
//! The schedulers the paper positions itself against (§2.1, §6), usable as
//! baselines in the benchmark harness:
//!
//! * [`fifo`] — a traditional PBS/LSF-style space-shared batch queue
//!   ("traditional queueing and batch scheduling algorithms assume that
//!   job priorities can simply be set by administrative means", §2.1).
//! * [`share`] — administratively equal processor sharing with
//!   least-loaded or round-robin placement (the no-market strawman).
//! * [`gcommerce`] — a G-commerce-style commodity market (Wolski et al.):
//!   posted per-slot prices adjusted toward supply/demand equilibrium.
//! * [`wta`] — per-host winner-takes-all auctions, first-price (the
//!   auction model G-commerce simulated: "winner-takes-it-all auctions and
//!   not proportional share, leading to reduced fairness", §6) or
//!   second-price sealed-bid (Spawn, the paper's ancestor system).
//!
//! Each baseline is one type, an implementation of
//! [`gm_core::policy::AllocationPolicy`]: [`FifoPolicy`], [`SharePolicy`],
//! [`GCommercePolicy`] and [`WtaPolicy`]. None has a loop of its own; the
//! caller hands it to `gm_core`'s shared
//! [`PolicyDriver`](gm_core::PolicyDriver) (usually ticking every
//! `gm_tycoon::DEFAULT_INTERVAL_SECS`), so every policy — including the
//! Tycoon market via `gridmarket::policy::TycoonPolicy` — runs under
//! identical arrival streams, fault plans, and clocks. Every baseline
//! keeps the same per-job record (the request, completion time, spend
//! and [`NodeStat`]) and reports it through the one
//! [`JobOutcome::new`]; the workload and outcome types live in
//! [`gm_core::workload`].

use gm_core::{JobOutcome, JobRequest};
use gm_des::{NodeStat, SimTime};

pub mod fifo;
pub mod gcommerce;
pub mod share;
pub mod wta;

pub use fifo::FifoPolicy;
pub use gcommerce::GCommercePolicy;
pub use share::{Placement, SharePolicy};
pub use wta::{Pricing, WtaPolicy};

/// What every baseline records about an admitted job, whatever its own
/// progress state: the request, when it finished, what it paid and how
/// many sub-jobs ran at once.
struct JobRecord {
    req: JobRequest,
    finished_at: Option<SimTime>,
    /// Credits charged so far (0 for the non-market baselines).
    spent: f64,
    nodes: NodeStat,
}

impl JobRecord {
    fn new(req: &JobRequest) -> JobRecord {
        JobRecord {
            req: req.clone(),
            finished_at: None,
            spent: 0.0,
            nodes: NodeStat::default(),
        }
    }

    /// The job's outcome with the run's clock at `now`, valued by the
    /// shared on-time rule.
    fn outcome(&self, now: SimTime) -> JobOutcome {
        let r = &self.req;
        let (done, value) = (self.finished_at, r.on_time_value(self.finished_at));
        JobOutcome::new(r.id, r.user, r.arrival, done, now, value, self.spent, &self.nodes)
    }
}

#[cfg(test)]
mod testkit {
    use gm_core::{AllocationPolicy, JobRequest, PolicyDriver, RunResult};
    use gm_des::SimTime;
    use gm_tycoon::{HostSpec, DEFAULT_INTERVAL_SECS};

    pub fn hosts(n: u32) -> Vec<HostSpec> {
        (0..n).map(HostSpec::testbed).collect()
    }

    /// Drive `policy` over `jobs` on `hosts` until done or `horizon_s`.
    pub fn run(
        mut policy: impl AllocationPolicy,
        hosts: &[HostSpec],
        jobs: &[JobRequest],
        horizon_s: u64,
    ) -> RunResult {
        PolicyDriver::new(hosts.to_vec(), DEFAULT_INTERVAL_SECS)
            .horizon(SimTime::from_secs(horizon_s))
            .run(&mut policy, jobs)
            .expect("valid jobs")
    }
}
