//! Policy-neutral workload and outcome types.
//!
//! Every allocator — the Tycoon market, the VCG tier and the
//! conventional baselines — takes [`JobRequest`]s and reports one
//! [`JobOutcome`] per job, built by [`JobOutcome::new`] from the job's
//! [`NodeStat`], inside one [`RunResult`]. The makespan and average-node
//! arithmetic therefore exists once, and policies differ only in how
//! they allocate.

use gm_des::{NodeStat, SimTime};
use gm_tycoon::UserId;

use crate::policy::PolicyError;

/// A job as every policy sees it: a bag of equally-sized sub-jobs.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Job id (unique within a run).
    pub id: u32,
    /// Owning user.
    pub user: UserId,
    /// Number of sub-jobs.
    pub subjobs: u32,
    /// Work per sub-job in MHz·seconds.
    pub work_per_subjob: f64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Budget in credits (market policies only).
    pub budget: f64,
    /// Deadline in seconds from arrival (market policies only).
    pub deadline_secs: f64,
}

impl JobRequest {
    /// Total work across all sub-jobs in MHz·seconds.
    pub fn total_work(&self) -> f64 {
        f64::from(self.subjobs) * self.work_per_subjob
    }

    /// The shared all-or-nothing value model used by every policy that
    /// has no richer value semantics of its own: the job delivers its
    /// full `budget` as value iff it finished within its deadline, and
    /// nothing otherwise. SLA-curve policies (`gm-optimal`) override
    /// this with partial-credit curve values; both models award exactly
    /// `budget` for full on-time delivery, which is what makes welfare
    /// comparable across policies.
    pub fn on_time_value(&self, finished_at: Option<SimTime>) -> f64 {
        on_time_value(self.budget, self.deadline_secs, self.arrival, finished_at)
    }

    /// Validate basic invariants.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.subjobs == 0 {
            return Err(PolicyError::invalid(format!("job {}: zero subjobs", self.id)));
        }
        if self.work_per_subjob.is_nan() || self.work_per_subjob <= 0.0 {
            return Err(PolicyError::invalid(format!(
                "job {}: non-positive work",
                self.id
            )));
        }
        Ok(())
    }
}

/// The shared on-time value rule over raw fields (see
/// [`JobRequest::on_time_value`]) — for policies that track jobs in
/// their own structures instead of keeping the request around.
pub fn on_time_value(
    budget: f64,
    deadline_secs: f64,
    arrival: SimTime,
    finished_at: Option<SimTime>,
) -> f64 {
    match finished_at {
        Some(t) if deadline_secs <= 0.0 || t.since(arrival).as_secs_f64() <= deadline_secs + 1e-9 => {
            budget
        }
        _ => 0.0,
    }
}

/// What happened to one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job id.
    pub id: u32,
    /// Owning user.
    pub user: UserId,
    /// Completion time (None = did not finish within the horizon).
    pub finished_at: Option<SimTime>,
    /// Makespan in seconds (up to the horizon if unfinished).
    pub makespan_secs: f64,
    /// Realized value delivered to the user under the run's value model
    /// (see [`JobRequest::on_time_value`]); the per-job welfare term.
    pub value: f64,
    /// Credits spent (market policies; 0 otherwise).
    pub cost: f64,
    /// Peak concurrent sub-jobs.
    pub max_nodes: usize,
    /// Average concurrent sub-jobs over the ticks the policy sampled.
    /// Which ticks those are differs per policy (see [`NodeStat`]): FIFO
    /// from first dispatch; equal share, G-commerce and WTA every
    /// unfinished tick from admission, zeros included; VCG only ticks
    /// that delivered work; Tycoon while the job is `Running`.
    pub avg_nodes: f64,
}

impl JobOutcome {
    /// The outcome of a job that arrived at `arrival`, reported when the
    /// run's clock reads `now`: the makespan runs to `finished_at`, or to
    /// `now` for a job that did not finish, and the node columns come
    /// from `nodes`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        user: UserId,
        arrival: SimTime,
        finished_at: Option<SimTime>,
        now: SimTime,
        value: f64,
        cost: f64,
        nodes: &NodeStat,
    ) -> JobOutcome {
        JobOutcome {
            id,
            user,
            finished_at,
            makespan_secs: finished_at.unwrap_or(now).since(arrival).as_secs_f64(),
            value,
            cost,
            max_nodes: nodes.peak(),
            avg_nodes: nodes.avg(),
        }
    }
}

/// Result of one policy run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-job outcomes in submission order (one per [`JobRequest`]).
    pub outcomes: Vec<JobOutcome>,
    /// Posted/spot price history (market policies; empty otherwise).
    pub price_history: Vec<(SimTime, f64)>,
}

impl RunResult {
    /// All jobs finished?
    pub fn all_finished(&self) -> bool {
        self.outcomes.iter().all(|o| o.finished_at.is_some())
    }

    /// Makespan of the whole batch, seconds: the largest
    /// `makespan_secs` over *all* outcomes, so a job that did not finish
    /// counts with its makespan clipped at the horizon (0 for no jobs).
    pub fn batch_makespan_secs(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.makespan_secs)
            .fold(0.0, f64::max)
    }

    /// Coefficient of variation of the price history (the G-commerce
    /// "price predictability" metric; lower = more predictable).
    pub fn price_volatility(&self) -> Option<f64> {
        let xs: Vec<f64> = self.price_history.iter().map(|(_, p)| *p).collect();
        crate::metrics::price_volatility(&xs)
    }

    /// Total realized value across all jobs — the allocative (social)
    /// welfare of the run. Payments are transfers, so they do not enter;
    /// see [`crate::metrics::welfare`].
    pub fn welfare(&self) -> f64 {
        crate::metrics::welfare(self.outcomes.iter().map(|o| o.value))
    }

    /// Total credits charged across all jobs — the provider-side revenue
    /// of the run (0 for non-market policies).
    pub fn revenue(&self) -> f64 {
        crate::metrics::revenue(self.outcomes.iter().map(|o| o.cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_volatility_via_result() {
        let flat = RunResult {
            outcomes: vec![],
            price_history: (0..10).map(|i| (SimTime::from_secs(i), 2.0)).collect(),
        };
        assert!(flat.price_volatility().unwrap() < 1e-12);
        let empty = RunResult {
            outcomes: vec![],
            price_history: vec![],
        };
        assert!(empty.price_volatility().is_none());
    }

    #[test]
    fn batch_makespan_counts_unfinished_jobs_at_the_horizon() {
        let empty = RunResult {
            outcomes: vec![],
            price_history: vec![],
        };
        assert!(empty.all_finished());
        assert_eq!(empty.batch_makespan_secs(), 0.0);
        // One job done after 100 s, one still running when the clock
        // stops at 500 s: the batch makespan is the unfinished job's 400 s.
        let (now, nodes) = (SimTime::from_secs(500), NodeStat::default());
        let job = |arrival_s, done: Option<u64>| {
            let (arrival, done) = (SimTime::from_secs(arrival_s), done.map(SimTime::from_secs));
            JobOutcome::new(0, UserId(1), arrival, done, now, 0.0, 0.0, &nodes)
        };
        let r = RunResult {
            outcomes: vec![job(0, Some(100)), job(100, None)],
            price_history: vec![],
        };
        assert!(!r.all_finished());
        assert_eq!(r.outcomes[0].makespan_secs, 100.0);
        assert_eq!(r.batch_makespan_secs(), 400.0);
    }

    #[test]
    fn outcome_takes_nodes_from_the_stat() {
        let mut nodes = NodeStat::default();
        nodes.sample(2.0);
        nodes.sample(4.0);
        let now = SimTime::from_secs(60);
        let o = JobOutcome::new(3, UserId(2), SimTime::ZERO, None, now, 5.0, 1.0, &nodes);
        assert_eq!((o.makespan_secs, o.value, o.cost), (60.0, 5.0, 1.0));
        assert_eq!((o.avg_nodes, o.max_nodes), (3.0, 4));
    }

    #[test]
    fn even_outcomes_are_perfectly_fair() {
        assert!((crate::jain_fairness(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn request_validation() {
        let mut r = JobRequest {
            id: 0,
            user: UserId(1),
            subjobs: 2,
            work_per_subjob: 100.0,
            arrival: SimTime::ZERO,
            budget: 10.0,
            deadline_secs: 100.0,
        };
        assert!(r.validate().is_ok());
        r.subjobs = 0;
        assert!(r.validate().is_err());
        r.subjobs = 1;
        r.work_per_subjob = 0.0;
        assert!(r.validate().is_err());
    }
}
