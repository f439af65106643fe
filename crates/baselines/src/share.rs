//! Administratively equal processor sharing.
//!
//! Every sub-job placed on a host time-shares it equally with the host's
//! other residents — no budgets, no incentives, the egalitarian baseline.
//! Placement is least-loaded or round-robin.
//!
//! The scheduling rules live in [`SharePolicy`]; the tick loop is
//! `gm_core`'s shared [`PolicyDriver`](gm_core::PolicyDriver).

use gm_core::policy::{AllocationPolicy, PolicyError, TickCtx};
use gm_core::{JobOutcome, JobRequest};
use gm_des::SimTime;

use crate::JobRecord;

/// Sub-job placement strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Put each sub-job on the host with the fewest residents.
    LeastLoaded,
    /// Cycle through hosts.
    RoundRobin,
}

struct Resident {
    track: usize,
    remaining: f64,
}

struct Track {
    job: JobRecord,
    /// Sub-jobs not yet placed on a host.
    pending: u32,
    /// Sub-jobs not yet finished.
    left: u32,
}

/// Equal processor sharing as an [`AllocationPolicy`].
pub struct SharePolicy {
    placement: Placement,
    /// Per-host resident sub-jobs (time-sharing: unbounded).
    residents: Vec<Vec<Resident>>,
    tracks: Vec<Track>,
    rr_next: usize,
}

impl SharePolicy {
    /// New policy with the given placement strategy.
    pub fn new(placement: Placement) -> Self {
        SharePolicy {
            placement,
            residents: Vec::new(),
            tracks: Vec::new(),
            rr_next: 0,
        }
    }
}

impl AllocationPolicy for SharePolicy {
    fn name(&self) -> &'static str {
        "share"
    }

    fn begin_tick(&mut self, ctx: &TickCtx) {
        if self.residents.is_empty() {
            assert!(!ctx.hosts.is_empty());
            self.residents = ctx.hosts.iter().map(|_| Vec::new()).collect();
        }
    }

    fn admit(&mut self, _ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        let job = JobRecord::new(req);
        self.tracks.push(Track { job, pending: req.subjobs, left: req.subjobs });
        Ok(())
    }

    fn place(&mut self, _ctx: &TickCtx) {
        // Time sharing has no slot limit: everything admitted lands on a
        // host immediately.
        for (ti, t) in self.tracks.iter_mut().enumerate() {
            while t.pending > 0 {
                let h = match self.placement {
                    Placement::LeastLoaded => self
                        .residents
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, r)| (r.len(), *i))
                        .map(|(i, _)| i)
                        .expect("hosts nonempty"),
                    Placement::RoundRobin => {
                        let h = self.rr_next % self.residents.len();
                        self.rr_next += 1;
                        h
                    }
                };
                let remaining = t.job.req.work_per_subjob;
                self.residents[h].push(Resident { track: ti, remaining });
                t.pending -= 1;
            }
        }
    }

    fn advance(&mut self, ctx: &TickCtx) {
        for (host, residents) in ctx.hosts.iter().zip(&mut self.residents) {
            let n = residents.len();
            if n == 0 {
                continue;
            }
            // Equal share of the host among residents, each capped at one
            // vCPU.
            let share = 1.0 / n as f64;
            let cpu_fraction = (share * host.cpus as f64).min(1.0);
            let cap = cpu_fraction * host.vcpu_capacity_mhz();
            for r in residents.iter_mut() {
                r.remaining -= cap * ctx.interval_secs;
            }
            residents.retain(|r| {
                if r.remaining > 0.0 {
                    return true;
                }
                let t = &mut self.tracks[r.track];
                t.left -= 1;
                if t.left == 0 {
                    t.job.finished_at = Some(ctx.tick_end());
                }
                false
            });
        }
    }

    fn settle(&mut self, _ctx: &TickCtx) {
        // Sampled every tick from admission until the job finishes.
        for (ti, t) in self.tracks.iter_mut().enumerate() {
            if t.job.finished_at.is_none() {
                let active: usize = self
                    .residents
                    .iter()
                    .map(|r| r.iter().filter(|x| x.track == ti).count())
                    .sum();
                t.job.nodes.sample(active as f64);
            }
        }
    }

    fn price(&self, _ctx: &TickCtx) -> Option<f64> {
        None
    }

    fn all_settled(&self) -> bool {
        self.tracks.iter().all(|t| t.job.finished_at.is_some())
    }

    fn outcomes(&self, now: SimTime) -> Vec<JobOutcome> {
        self.tracks.iter().map(|t| t.job.outcome(now)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{hosts, run};
    use gm_tycoon::UserId;

    fn job(id: u32, subjobs: u32, work_secs: f64) -> JobRequest {
        JobRequest {
            id,
            user: UserId(id),
            subjobs,
            work_per_subjob: work_secs * 2910.0,
            arrival: SimTime::ZERO,
            budget: 0.0,
            deadline_secs: 0.0,
        }
    }

    fn share(n_hosts: u32, jobs: &[JobRequest], horizon_s: u64) -> gm_core::RunResult {
        run(SharePolicy::new(Placement::LeastLoaded), &hosts(n_hosts), jobs, horizon_s)
    }

    #[test]
    fn lone_job_runs_at_full_speed() {
        let r = share(4, &[job(0, 4, 100.0)], 10_000);
        assert!(r.all_finished());
        assert!((r.outcomes[0].makespan_secs - 100.0).abs() <= 10.0);
    }

    #[test]
    fn two_jobs_on_dual_cpu_hosts_dont_contend() {
        // 2 users × 4 subjobs on 4 dual-CPU hosts: each host has 2
        // residents, each gets a full CPU.
        let r = share(4, &[job(0, 4, 100.0), job(1, 4, 100.0)], 10_000);
        for o in &r.outcomes {
            assert!((o.makespan_secs - 100.0).abs() <= 10.0, "{}", o.makespan_secs);
        }
    }

    #[test]
    fn four_jobs_halve_throughput() {
        // 4 users × 4 subjobs on 4 dual-CPU hosts: 4 residents per host,
        // each gets 2/4 = 0.5 CPU.
        let jobs: Vec<JobRequest> = (0..4).map(|i| job(i, 4, 100.0)).collect();
        let r = share(4, &jobs, 10_000);
        for o in &r.outcomes {
            assert!((o.makespan_secs - 200.0).abs() <= 20.0, "{}", o.makespan_secs);
        }
    }

    #[test]
    fn round_robin_spreads_over_hosts() {
        let policy = SharePolicy::new(Placement::RoundRobin);
        let r = run(policy, &hosts(4), &[job(0, 4, 50.0)], 10_000);
        assert_eq!(r.outcomes[0].max_nodes, 4, "one subjob per host");
    }

    #[test]
    fn least_loaded_balances() {
        // 8 subjobs over 4 hosts = 2 per host; everyone gets a full CPU.
        let r = share(4, &[job(0, 8, 50.0)], 10_000);
        assert!((r.outcomes[0].makespan_secs - 50.0).abs() <= 10.0);
    }

    #[test]
    fn equal_share_ignores_budgets() {
        // Identical shapes, wildly different budgets → identical outcomes.
        let mut a = job(0, 4, 100.0);
        a.budget = 1.0;
        let mut b = job(1, 4, 100.0);
        b.budget = 1000.0;
        let r = share(2, &[a, b], 100_000);
        let m0 = r.outcomes[0].makespan_secs;
        let m1 = r.outcomes[1].makespan_secs;
        assert!((m0 - m1).abs() < 1e-9, "budget must not matter: {m0} {m1}");
    }
}
