//! FIFO space-shared batch queue (PBS/LSF-style).
//!
//! Each sub-job occupies one vCPU slot exclusively until it completes; the
//! queue drains in arrival order. No budgets, no priorities — the
//! "administrative means" strawman of §2.1.
//!
//! The scheduling rules live in [`FifoPolicy`] (an
//! [`AllocationPolicy`]); the tick loop is `gm_core`'s shared
//! [`PolicyDriver`](gm_core::PolicyDriver), so FIFO runs under the exact
//! same arrival stream and clock as every other policy.

use gm_core::policy::{AllocationPolicy, PolicyError, TickCtx};
use gm_core::{JobOutcome, JobRequest};
use gm_des::SimTime;

use crate::JobRecord;

struct SubJobRun {
    track: usize,
    remaining: f64,
}

struct Track {
    job: JobRecord,
    /// Sub-jobs still waiting for a slot.
    pending: u32,
    /// Sub-jobs holding a slot.
    running: u32,
}

/// FIFO batch-queue scheduling as an [`AllocationPolicy`].
#[derive(Default)]
pub struct FifoPolicy {
    /// One exclusive slot per vCPU, initialised from the first tick's
    /// host view.
    slots: Vec<Option<SubJobRun>>,
    vcpu_mhz: Vec<f64>,
    /// Admitted jobs in `(arrival, id)` order — the queue.
    tracks: Vec<Track>,
}

impl AllocationPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn begin_tick(&mut self, ctx: &TickCtx) {
        if self.vcpu_mhz.is_empty() {
            self.vcpu_mhz = ctx
                .hosts
                .iter()
                .flat_map(|h| std::iter::repeat_n(h.vcpu_capacity_mhz(), h.cpus as usize))
                .collect();
            assert!(!self.vcpu_mhz.is_empty(), "no slots");
            self.slots = self.vcpu_mhz.iter().map(|_| None).collect();
        }
    }

    fn admit(&mut self, _ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        self.tracks.push(Track { job: JobRecord::new(req), pending: req.subjobs, running: 0 });
        Ok(())
    }

    fn place(&mut self, _ctx: &TickCtx) {
        for (ti, t) in self.tracks.iter_mut().enumerate() {
            while t.pending > 0 {
                let Some(free) = self.slots.iter().position(Option::is_none) else { break };
                let remaining = t.job.req.work_per_subjob;
                self.slots[free] = Some(SubJobRun { track: ti, remaining });
                t.pending -= 1;
                t.running += 1;
            }
        }
    }

    fn advance(&mut self, ctx: &TickCtx) {
        for (slot, cap) in self.slots.iter_mut().zip(&self.vcpu_mhz) {
            let Some(run) = slot else { continue };
            run.remaining -= cap * ctx.interval_secs;
            if run.remaining <= 0.0 {
                let t = &mut self.tracks[run.track];
                t.running -= 1;
                if t.running == 0 && t.pending == 0 {
                    t.job.finished_at = Some(ctx.tick_end());
                }
                *slot = None;
            }
        }
    }

    fn settle(&mut self, _ctx: &TickCtx) {
        // Sampled from the first dispatch until the job finishes.
        for t in &mut self.tracks {
            if t.job.finished_at.is_none() && t.pending < t.job.req.subjobs {
                t.job.nodes.sample(f64::from(t.running));
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

    fn job(id: u32, subjobs: u32, work_secs_at_full: f64, arrival_s: u64) -> JobRequest {
        JobRequest {
            id,
            user: UserId(id),
            subjobs,
            work_per_subjob: work_secs_at_full * 2910.0,
            arrival: SimTime::from_secs(arrival_s),
            budget: 0.0,
            deadline_secs: 0.0,
        }
    }

    fn fifo(n_hosts: u32, jobs: &[JobRequest], horizon_s: u64) -> gm_core::RunResult {
        run(FifoPolicy::default(), &hosts(n_hosts), jobs, horizon_s)
    }

    #[test]
    fn single_job_fits_in_slots() {
        // 2 hosts × 2 cpus = 4 slots; 4 subjobs of 100 s each.
        let result = fifo(2, &[job(0, 4, 100.0, 0)], 10_000);
        assert!(result.all_finished());
        let o = &result.outcomes[0];
        assert!((o.makespan_secs - 100.0).abs() <= 10.0, "{}", o.makespan_secs);
        assert_eq!(o.max_nodes, 4);
    }

    #[test]
    fn queueing_doubles_makespan_when_oversubscribed() {
        // 4 slots, 8 subjobs → two waves.
        let result = fifo(2, &[job(0, 8, 100.0, 0)], 10_000);
        let o = &result.outcomes[0];
        assert!(result.all_finished());
        assert!((o.makespan_secs - 200.0).abs() <= 20.0, "{}", o.makespan_secs);
    }

    #[test]
    fn fifo_order_is_respected() {
        // Job 0 saturates all 4 slots for ~100 s; job 1 arrives later and
        // must wait even though it is tiny.
        let result = fifo(2, &[job(0, 4, 100.0, 0), job(1, 1, 10.0, 10)], 10_000);
        let t0 = result.outcomes[0].finished_at.unwrap();
        let t1 = result.outcomes[1].finished_at.unwrap();
        assert!(t1 > t0, "late tiny job must finish after the hog: {t0:?} {t1:?}");
    }

    #[test]
    fn unfinished_jobs_reported_at_horizon() {
        let result = fifo(1, &[job(0, 1, 1e9, 0)], 100);
        assert!(!result.all_finished());
        assert!(result.outcomes[0].finished_at.is_none());
        assert!(result.outcomes[0].makespan_secs >= 100.0);
    }

    #[test]
    fn no_price_history() {
        let r = fifo(1, &[job(0, 1, 10.0, 0)], 1000);
        assert!(r.price_history.is_empty());
        assert!(r.price_volatility().is_none());
    }
}
