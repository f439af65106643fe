//! Failure recovery: host-crash and VM-failure handling, the capped-retry
//! exponential-backoff re-dispatch machinery, and the dispatch/requeue
//! bookkeeping invariant.

use gm_des::{SimDuration, SimTime};
use gm_tycoon::{Credits, HostId, Market, UserId};

use super::funding::{capped_bids, escrow_fill};
use super::gray;
use super::jobs::{Job, JobPhase, Slot};
use super::JobManager;

/// Capped-retry / exponential-backoff policy for re-dispatching subjobs
/// interrupted by host or VM failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Consecutive failed re-dispatch rounds a job tolerates before it is
    /// marked `Stalled` (a boost revives it, like fund exhaustion).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each consecutive failure.
    pub backoff_base: SimDuration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: SimDuration,
    /// Relative jitter width in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 − jitter/2, 1 + jitter/2)` derived
    /// from the job id and failure count, so a fleet of jobs knocked
    /// back by the same bank restart does not thunder-herd the
    /// recovered service on the same tick. `0.0` (the default)
    /// reproduces the exact pre-jitter schedule.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            backoff_base: SimDuration::from_secs(10),
            backoff_cap: SimDuration::from_minutes(10),
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay after `failures` consecutive failed rounds
    /// (`failures >= 1`): `base × 2^(failures−1)`, capped at
    /// [`RetryPolicy::backoff_cap`]. `failures == 0` is treated as the
    /// first failure. Saturates instead of overflowing: the shift exponent
    /// is clamped below the u64 width and the multiply saturates, so even
    /// `u32::MAX` consecutive failures yield the cap, never a wrapped
    /// (tiny) delay.
    pub fn delay_after(&self, failures: u32) -> SimDuration {
        let exp = failures.saturating_sub(1).min(63);
        let factor = 1u64.checked_shl(exp).unwrap_or(u64::MAX);
        let us = self.backoff_base.as_micros().saturating_mul(factor);
        SimDuration::from_micros(us.min(self.backoff_cap.as_micros()))
    }

    /// [`RetryPolicy::delay_after`] with deterministic per-caller jitter.
    ///
    /// `salt` identifies the retrying client (the job id here); the
    /// jitter factor is [`gm_des::rng::jitter_factor`] of
    /// `(salt, failures)`, so same-seed runs stay byte-identical while distinct
    /// jobs spread across `[1 − jitter/2, 1 + jitter/2)` of the base
    /// delay. The result never exceeds [`RetryPolicy::backoff_cap`].
    pub fn delay_for(&self, failures: u32, salt: u64) -> SimDuration {
        let base = self.delay_after(failures);
        if self.jitter <= 0.0 {
            return base;
        }
        let factor = gm_des::rng::jitter_factor(self.jitter, salt, failures);
        let us = (base.as_micros() as f64 * factor).round() as u64;
        SimDuration::from_micros(us.min(self.backoff_cap.as_micros()))
    }
}

impl JobManager {
    /// Check the fault-recovery bookkeeping invariant across every job: a
    /// finished sub-job has `dispatches == requeues + 1` (it is never both
    /// completed and re-dispatched), and an unfinished sub-job is either
    /// waiting (`dispatches == requeues`) or assigned (`requeues + 1`).
    pub fn recovery_invariant_ok(&self) -> bool {
        self.jobs.values().flat_map(|j| &j.subjobs).all(|sj| {
            if sj.finished_at.is_some() {
                sj.dispatches == sj.requeues + 1
            } else {
                sj.dispatches == sj.requeues || sj.dispatches == sj.requeues + 1
            }
        })
    }

    /// One failure-recovery round for `job`: fill idle slots from the
    /// pending queue, then open new slots on surviving hosts for sub-jobs
    /// a fault sent back to the queue. Rounds are gated by the job's
    /// exponential backoff; after [`RetryPolicy::max_retries`] consecutive
    /// rounds with no progress possible at all the job is stalled (a boost
    /// revives it, like fund exhaustion).
    pub(super) fn redispatch(&mut self, market: &mut Market, job: &mut Job, now: SimTime) {
        if !job.needs_redispatch {
            return;
        }
        if market.links_degraded() {
            // Expanding onto new hosts against stale or predicted prices
            // could buy slots the job cannot afford; defer the round — it
            // neither burns retry budget nor starts the backoff clock, so
            // recovery resumes at full budget once the links return
            // (`DESIGN.md` §12).
            self.telemetry.deferred_dispatches().inc();
            return;
        }
        if job.retry_after.is_some_and(|t| now < t) {
            return;
        }
        fn pending(job: &Job) -> usize {
            job.subjobs
                .iter()
                .filter(|s| s.host.is_none() && !s.is_finished())
                .count()
        }
        if pending(job) == 0 {
            job.needs_redispatch = false;
            job.retry_failures = 0;
            job.retry_after = None;
            return;
        }
        // Fill slots that idled before the fault hit (their bids were
        // cancelled; rebalance re-places bids for occupied slots).
        // Probated hosts are drained from these refills too.
        for slot_idx in 0..job.slots.len() {
            if job.slots[slot_idx].subjob.is_none()
                && !job.slots[slot_idx].retiring
                && !self.drain_placement(market, job, job.slots[slot_idx].host)
            {
                Self::start_next_subjob(&mut self.vms, &self.telemetry, job, slot_idx, now);
            }
        }
        // Open new slots on surviving hosts for what is left.
        let left = pending(job);
        let room = self.config.max_nodes.saturating_sub(job.slots.len());
        if left > 0 && room > 0 {
            let taken: Vec<HostId> = job.slots.iter().map(|s| s.host).collect();
            // Online survivors, probated hosts drained, healthiest first
            // (id order in fault-free runs — see `gray.rs`).
            let candidates = self.rank_dispatch_candidates(market, &taken);
            let balance = market.bank().balance(job.sub_account).unwrap_or(Credits::ZERO);
            if !candidates.is_empty() && balance.is_positive() {
                // Deadline-aware re-plan: spread the remaining budget
                // (crash refunds flowed back here) over the remaining time.
                let horizon = job.deadline.since(now).as_secs_f64().max(market.interval_secs());
                let rate = balance.as_f64() / horizon;
                let quotes = market.quotes_for(job.user, &candidates);
                let bids =
                    capped_bids(&quotes, rate, left.min(room), self.config.max_share_premium);
                let interval = market.interval_secs();
                for (host, host_rate) in bids {
                    let available =
                        market.bank().balance(job.sub_account).unwrap_or(Credits::ZERO);
                    let escrow = escrow_fill(host_rate, interval, available);
                    if !escrow.is_positive() {
                        continue;
                    }
                    let Ok(bid) = market.place_funded_bid(
                        job.user,
                        job.sub_account,
                        host,
                        host_rate,
                        escrow,
                    ) else {
                        continue;
                    };
                    job.slots.push(Slot {
                        host,
                        bid: Some(bid),
                        rate: host_rate,
                        subjob: None,
                        twin: false,
                        retiring: false,
                    });
                    let slot_idx = job.slots.len() - 1;
                    Self::start_next_subjob(&mut self.vms, &self.telemetry, job, slot_idx, now);
                }
            }
        }
        if job.slots.iter().any(|s| s.subjob.is_some()) {
            // Progress is possible again; remaining pending sub-jobs are
            // absorbed as slots free up (the normal path), but keep trying
            // to widen onto new hosts while any are queued.
            job.retry_failures = 0;
            job.retry_after = None;
            job.needs_redispatch = pending(job) > 0;
        } else {
            self.telemetry.retry_rounds_failed.inc();
            job.retry_failures += 1;
            if job.retry_failures > self.config.retry.max_retries {
                self.telemetry.jobs_stalled.inc();
                job.phase = JobPhase::Stalled;
                job.finished_at = Some(now);
                job.retry_after = None;
            } else {
                self.telemetry.backoffs.inc();
                job.retry_after =
                    Some(now + self.config.retry.delay_for(job.retry_failures, job.id.0));
            }
        }
    }

    /// React to a host crash. Call **after** [`Market::crash_host`], which
    /// evicts the host's bids and refunds their escrows to the paying
    /// sub-accounts. This cleans up the manager's side of the failure:
    /// kills the VMs, drops the host's slots, and re-queues interrupted
    /// sub-jobs — keeping their completed work but discarding any
    /// unfinished stage-out (outputs on the crashed host are lost) — for
    /// re-dispatch onto surviving hosts at the next `pre_tick`. Returns
    /// the number of sub-jobs interrupted.
    pub fn handle_host_crash(&mut self, host: HostId, _now: SimTime) -> usize {
        self.telemetry.host_crashes.inc();
        self.vms.fail_host(host);
        let mut interrupted = 0usize;
        for job in self.jobs.values_mut() {
            let mut hit = false;
            for slot_idx in 0..job.slots.len() {
                if job.slots[slot_idx].host != host {
                    continue;
                }
                hit = true;
                // The market evicted the bid and refunded its escrow when
                // the host crashed; only the handle is left to forget.
                job.slots[slot_idx].bid = None;
                let was_twin = job.slots[slot_idx].twin;
                if let Some(sj_idx) = job.slots[slot_idx].subjob.take() {
                    let sj = &mut job.subjobs[sj_idx];
                    debug_assert!(!sj.is_finished(), "finished sub-job still held a slot");
                    if sj.is_finished() {
                        continue;
                    }
                    if was_twin {
                        // The hedge replica died with the host; the
                        // primary keeps running undisturbed.
                        gray::clear_twin(sj);
                    } else if sj.twin_host.is_some_and(|h| h != host) {
                        // The primary died but its twin survives: the
                        // twin is promoted in place (counted as an
                        // interruption + re-dispatch, keeping the
                        // recovery invariant).
                        gray::promote_twin(sj);
                        self.telemetry.dispatches.inc();
                        self.telemetry.redispatches.inc();
                        interrupted += 1;
                        for s in &mut job.slots {
                            if s.subjob == Some(sj_idx) && s.twin {
                                s.twin = false;
                            }
                        }
                    } else {
                        gray::clear_twin(sj);
                        sj.host = None;
                        sj.compute_ready = None;
                        sj.stage_out_until = None;
                        sj.requeues += 1;
                        interrupted += 1;
                    }
                }
            }
            job.slots.retain(|s| s.host != host);
            if hit && job.phase == JobPhase::Running {
                job.needs_redispatch = true;
                job.retry_after = None;
            }
        }
        if interrupted > 0 && self.config.health.enabled {
            // A crash interrupting work is the hardest timeout signal the
            // health tracker gets.
            gray::observe_timeout(
                &mut self.health,
                &self.telemetry,
                &self.config.health,
                host,
            );
        }
        self.telemetry.requeues.add(interrupted as u64);
        interrupted
    }

    /// React to a single-VM failure on a live host: the sub-job running in
    /// `user`'s VM there is interrupted and re-queued, and the slot — whose
    /// bid is still valid — immediately restarts a pending sub-job in a
    /// fresh VM (full boot + stage-in). Returns `true` when a VM was
    /// actually killed.
    pub fn handle_vm_failure(&mut self, host: HostId, user: UserId, now: SimTime) -> bool {
        if !self.vms.fail_vm(host, user) {
            return false;
        }
        self.telemetry.vm_failures.inc();
        let mut timed_out = false;
        for job in self.jobs.values_mut() {
            if job.user != user {
                continue;
            }
            for slot_idx in 0..job.slots.len() {
                if job.slots[slot_idx].host != host {
                    continue;
                }
                let Some(sj_idx) = job.slots[slot_idx].subjob.take() else {
                    continue;
                };
                let sj = &mut job.subjobs[sj_idx];
                if sj.is_finished() {
                    job.slots[slot_idx].subjob = Some(sj_idx);
                    continue;
                }
                timed_out = true;
                if job.slots[slot_idx].twin {
                    // The hedge replica's VM died: retire its slot (the
                    // escrow refunds at the next `pre_tick`); the primary
                    // keeps running.
                    gray::clear_twin(sj);
                    job.slots[slot_idx].retiring = true;
                    continue;
                }
                if sj.twin_host.is_some_and(|h| h != host) {
                    // The primary's VM died but its twin survives:
                    // promote the twin, then reuse this still-valid slot
                    // for other pending work.
                    gray::promote_twin(sj);
                    self.telemetry.requeues.inc();
                    self.telemetry.dispatches.inc();
                    self.telemetry.redispatches.inc();
                    for s in &mut job.slots {
                        if s.subjob == Some(sj_idx) && s.twin {
                            s.twin = false;
                        }
                    }
                } else {
                    gray::clear_twin(sj);
                    sj.host = None;
                    sj.compute_ready = None;
                    sj.stage_out_until = None;
                    sj.requeues += 1;
                    self.telemetry.requeues.inc();
                }
                Self::start_next_subjob(&mut self.vms, &self.telemetry, job, slot_idx, now);
            }
        }
        if timed_out && self.config.health.enabled {
            gray::observe_timeout(
                &mut self.health,
                &self.telemetry,
                &self.config.health,
                host,
            );
        }
        true
    }

    /// Fault-injection convenience when a schedule names only a host: fail
    /// the VM of the first (lowest job id) sub-job assigned on `host`.
    /// Returns the affected user, or `None` when nothing ran there.
    pub fn handle_vm_failure_any(&mut self, host: HostId, now: SimTime) -> Option<UserId> {
        let user = self
            .jobs
            .values()
            .find(|j| {
                j.phase == JobPhase::Running
                    && j.slots.iter().any(|s| s.host == host && s.subjob.is_some())
            })
            .map(|j| j.user)?;
        self.handle_vm_failure(host, user, now).then_some(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_after(1), SimDuration::from_secs(10));
        assert_eq!(p.delay_after(2), SimDuration::from_secs(20));
        assert_eq!(p.delay_after(3), SimDuration::from_secs(40));
        assert_eq!(p.delay_after(6), SimDuration::from_secs(320));
        // 10 × 2^6 = 640 s exceeds the 10-minute cap.
        assert_eq!(p.delay_after(7), SimDuration::from_minutes(10));
    }

    #[test]
    fn backoff_zero_failures_is_base() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_after(0), p.delay_after(1));
    }

    #[test]
    fn backoff_never_overflows_and_saturates_at_cap() {
        let p = RetryPolicy::default();
        let cap = p.backoff_cap;
        // Regression: huge failure counts used to risk a wrapped shift
        // producing a tiny delay. They must pin to the cap instead.
        for failures in [8, 32, 33, 34, 63, 64, 65, 1_000, u32::MAX] {
            assert_eq!(p.delay_after(failures), cap, "failures={failures}");
        }
    }

    #[test]
    fn backoff_is_monotone_nondecreasing() {
        let p = RetryPolicy {
            max_retries: 8,
            backoff_base: SimDuration::from_micros(3),
            backoff_cap: SimDuration::from_hours(100_000),
            jitter: 0.0,
        };
        let mut last = SimDuration::from_micros(0);
        for failures in 0..200 {
            let d = p.delay_after(failures);
            assert!(d >= last, "delay shrank at failures={failures}");
            last = d;
        }
    }

    #[test]
    fn zero_jitter_reproduces_exact_schedule() {
        let p = RetryPolicy::default();
        for failures in 0..20 {
            for salt in [0u64, 1, 17, u64::MAX] {
                assert_eq!(p.delay_for(failures, salt), p.delay_after(failures));
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spreads_salts() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut distinct = std::collections::BTreeSet::new();
        for salt in 0..32u64 {
            let d = p.delay_for(3, salt);
            // Deterministic: same (failures, salt) → same delay.
            assert_eq!(d, p.delay_for(3, salt));
            // Bounded: within ±jitter/2 of the base and under the cap.
            let base = p.delay_after(3).as_micros() as f64;
            let us = d.as_micros() as f64;
            assert!(us >= base * 0.75 - 1.0 && us <= base * 1.25 + 1.0, "salt={salt}");
            assert!(d <= p.backoff_cap);
            distinct.insert(d.as_micros());
        }
        // Spread: the 32 salts must not all collapse onto one delay.
        assert!(distinct.len() > 16, "only {} distinct delays", distinct.len());
        // Delays recorded before the factor moved to `gm_des::rng`.
        for (failures, salt, us) in [
            (1, 0, 9_657_640),
            (3, 7, 33_188_084),
            (3, 8, 39_742_484),
            (5, 12_345, 181_638_357),
            (9, u64::MAX, 600_000_000),
        ] {
            assert_eq!(p.delay_for(failures, salt).as_micros(), us, "failures {failures} salt {salt}");
        }
    }
}
