//! Slot placement and VM binding: starting queued sub-jobs on a job's
//! slots and finalizing staged-out sub-jobs / completed jobs.

use gm_des::SimTime;
use gm_tycoon::{Credits, Market, MarketError};

use super::jobs::{Job, JobKind, JobPhase};
use super::{JobManager, STAGE_IN};
use crate::telemetry::GridInstruments;
use crate::vm::VmManager;

impl JobManager {
    /// Start the next pending sub-job on slot `slot_idx`, if any.
    pub(super) fn start_next_subjob(
        vms: &mut VmManager,
        telemetry: &GridInstruments,
        job: &mut Job,
        slot_idx: usize,
        now: SimTime,
    ) -> bool {
        let next = job
            .subjobs
            .iter()
            .position(|s| s.host.is_none() && !s.is_finished());
        let Some(sj_idx) = next else {
            return false;
        };
        let host = job.slots[slot_idx].host;
        let ready = vms.acquire(host, job.user, &job.envs, now);
        let compute_ready = ready.max(now) + STAGE_IN;
        let sj = &mut job.subjobs[sj_idx];
        debug_assert!(!sj.is_finished(), "finished sub-job must never be dispatched");
        telemetry.dispatches.inc();
        if sj.dispatches > 0 {
            // Only fault-requeued sub-jobs are ever dispatched twice.
            telemetry.redispatches.inc();
        }
        sj.dispatches += 1;
        sj.host = Some(host);
        sj.compute_ready = Some(compute_ready);
        if sj.started_at.is_none() {
            sj.started_at = Some(now);
        }
        job.slots[slot_idx].subjob = Some(sj_idx);
        true
    }

    pub(super) fn finalize_staged_out(&mut self, market: &mut Market, job: &mut Job, now: SimTime) {
        let submitted = job.submitted_at;
        // Service contracts end at the deadline: every instance completes.
        if matches!(job.kind, JobKind::Service { .. }) && now >= job.deadline {
            for sj in job.subjobs.iter_mut() {
                if sj.finished_at.is_none() {
                    sj.finished_at = Some(job.deadline);
                    self.telemetry
                        .subjob_latency_us
                        .record_micros(job.deadline.since(submitted).as_micros());
                }
            }
        }
        // Complete sub-jobs whose stage-out finished.
        for sj in job.subjobs.iter_mut() {
            if let Some(until) = sj.stage_out_until {
                if sj.finished_at.is_none() && now >= until {
                    sj.finished_at = Some(until);
                    self.telemetry
                        .subjob_latency_us
                        .record_micros(until.since(submitted).as_micros());
                }
            }
        }
        // Free slots of finished sub-jobs; start queued work or release.
        for slot_idx in 0..job.slots.len() {
            let Some(sj_idx) = job.slots[slot_idx].subjob else {
                continue;
            };
            if job.subjobs[sj_idx].is_finished() {
                job.slots[slot_idx].subjob = None;
                // Probation drains new placements: a freed slot on a
                // drained host is released instead of refilled, and the
                // queued work migrates to healthy hosts via re-dispatch.
                let drained = self.drain_placement(market, job, job.slots[slot_idx].host);
                let refilled = !drained
                    && Self::start_next_subjob(&mut self.vms, &self.telemetry, job, slot_idx, now);
                if drained
                    && job
                        .subjobs
                        .iter()
                        .any(|s| s.host.is_none() && !s.is_finished())
                {
                    job.needs_redispatch = true;
                }
                if !refilled {
                    // No pending work: cancel the bid, refund escrow.
                    // During a bank outage the refund cannot move, so keep
                    // the handle and retry next interval — no lost funds.
                    if let Some(bid) = job.slots[slot_idx].bid.take() {
                        let host = job.slots[slot_idx].host;
                        if let Err(MarketError::BankUnavailable) =
                            market.cancel_bid(host, bid, job.sub_account)
                        {
                            job.slots[slot_idx].bid = Some(bid);
                        }
                    }
                }
            }
        }
        // Job completion: every sub-job finished. All escrows must be
        // recoverable first; a bank outage defers completion to a later
        // interval rather than stranding escrow at the hosts.
        if job.subjobs.iter().all(|s| s.is_finished()) {
            let mut escrows_clear = true;
            for slot in &mut job.slots {
                if let Some(bid) = slot.bid.take() {
                    if let Err(MarketError::BankUnavailable) =
                        market.cancel_bid(slot.host, bid, job.sub_account)
                    {
                        slot.bid = Some(bid);
                        escrows_clear = false;
                    }
                }
            }
            if !escrows_clear {
                return;
            }
            let balance = market.bank().balance(job.sub_account).unwrap_or(Credits::ZERO);
            if balance.is_positive() {
                let _ = market
                    .bank_mut()
                    .transfer(job.sub_account, job.refund_account, balance);
            }
            job.phase = JobPhase::Done;
            job.finished_at = Some(
                job.subjobs
                    .iter()
                    .filter_map(|s| s.finished_at)
                    .max()
                    .unwrap_or(now),
            );
        }
    }
}
