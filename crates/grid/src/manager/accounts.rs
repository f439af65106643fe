//! Money-facing duties of the agent: transfer-token redemption against
//! the broker account, per-DN market users, allocation accounting
//! (`post_tick`) and cancellation refunds.

use std::collections::BTreeMap;

use gm_des::{SimDuration, SimTime};
use gm_tycoon::{HostId, Market, UserId};

use super::gray;
use super::jobs::{GridError, JobKind, JobPhase};
use super::{JobManager, STAGE_OUT};
use crate::token::{TokenError, TransferToken};

impl JobManager {
    /// Verify-and-consume a transfer token, counting the outcome
    /// (`grid.tokens_accepted` / `grid.tokens_rejected` /
    /// `grid.token_double_spends`). The spend is recorded in the bank's
    /// journaled spent-token set, so a recovered bank still rejects the
    /// token (see DESIGN.md §11).
    pub(super) fn redeem_token(
        &mut self,
        market: &mut Market,
        token: &TransferToken,
    ) -> Result<(), GridError> {
        if let Err(e) = token.verify(market.bank(), self.broker_account) {
            self.telemetry.tokens_rejected.inc();
            return Err(e.into());
        }
        if !market.bank_mut().record_token_spend(token.transfer_id()) {
            self.telemetry.tokens_rejected.inc();
            self.telemetry.token_double_spends.inc();
            return Err(TokenError::AlreadySpent(token.transfer_id()).into());
        }
        self.telemetry.tokens_accepted.inc();
        Ok(())
    }

    pub(super) fn user_for_dn(&mut self, dn: &str) -> UserId {
        if let Some(&u) = self.users.get(dn) {
            return u;
        }
        let u = UserId(self.next_user);
        self.next_user += 1;
        self.users.insert(dn.to_owned(), u);
        u
    }

    /// Account the market's allocations into sub-job progress. `now` is the
    /// tick start; allocations cover `[now, now + interval)`.
    ///
    /// Gray faults bite here: charging uses the *allocated* capacity (the
    /// market honestly charges for what it promised), while progress uses
    /// the *delivered* rate — allocated capacity scaled by the host's gray
    /// delivered-fraction. The observed-vs-expected gap also feeds the
    /// per-host health trackers. Twin replicas advance their own work
    /// lane; the first replica of a sub-job to finish wins its race and
    /// the loser slot retires (`DESIGN.md` §17).
    pub fn post_tick(
        &mut self,
        market: &Market,
        now: SimTime,
        allocations: &[(HostId, Vec<gm_tycoon::Allocation>)],
    ) {
        let interval = market.interval_secs();
        let by_host: BTreeMap<HostId, &Vec<gm_tycoon::Allocation>> =
            allocations.iter().map(|(h, a)| (*h, a)).collect();

        for job in self.jobs.values_mut() {
            if job.phase != JobPhase::Running {
                continue;
            }
            // Races resolved this tick: (sub-job, winning slot).
            let mut wins: Vec<(usize, usize)> = Vec::new();
            for slot_i in 0..job.slots.len() {
                let (slot_host, is_twin) = (job.slots[slot_i].host, job.slots[slot_i].twin);
                let Some(bid) = job.slots[slot_i].bid else {
                    continue;
                };
                let Some(allocs) = by_host.get(&slot_host) else {
                    continue;
                };
                let Some(alloc) = allocs.iter().find(|a| a.handle == bid) else {
                    continue;
                };
                job.charged += alloc.charged;
                if alloc.exhausted {
                    job.slots[slot_i].bid = None;
                }
                let Some(sj_idx) = job.slots[slot_i].subjob else {
                    continue;
                };
                let kind = job.kind;
                let sj = &mut job.subjobs[sj_idx];
                if !sj.is_computing() {
                    continue;
                }
                let ready = if is_twin {
                    sj.twin_compute_ready
                } else {
                    sj.compute_ready
                };
                let Some(ready) = ready else { continue };
                let tick_end = now + SimDuration::from_secs_f64(interval);
                if ready >= tick_end {
                    continue; // still provisioning/staging
                }
                // QoS tracks the contracted instance, not hedge replicas.
                if !is_twin {
                    if let JobKind::Service { min_mhz } = kind {
                        job.qos.1 += 1;
                        if alloc.capacity_mhz >= min_mhz {
                            job.qos.0 += 1;
                        }
                    }
                }
                let effective_start = ready.max(now);
                let dt = tick_end.since(effective_start).as_secs_f64();
                let frac = gray::delivered_fraction(&self.gray, slot_host, effective_start, tick_end);
                if frac < 1.0 {
                    self.telemetry.health_degraded_ticks().inc();
                }
                if self.config.health.enabled && dt > 0.0 && alloc.capacity_mhz > 0.0 {
                    gray::observe_progress(
                        &mut self.health,
                        &self.telemetry,
                        &self.config.health,
                        slot_host,
                        frac * alloc.capacity_mhz * dt,
                        alloc.capacity_mhz * dt,
                    );
                }
                if !is_twin {
                    sj.last_rate_mhz = alloc.capacity_mhz;
                }
                let rate = alloc.capacity_mhz * frac;
                let done = if is_twin { sj.twin_work_done } else { sj.work_done };
                let remaining = sj.work_total - done;
                let progress = rate * dt;
                if progress >= remaining && rate > 0.0 {
                    // Completed mid-interval (at the delivered rate).
                    let t_done = effective_start + SimDuration::from_secs_f64(remaining / rate);
                    sj.work_done = sj.work_total;
                    if is_twin {
                        // The twin won the race: it becomes the primary.
                        sj.host = Some(slot_host);
                        sj.compute_ready = sj.twin_compute_ready;
                        self.telemetry.spec_twin_wins().inc();
                    }
                    gray::clear_twin(sj);
                    sj.stage_out_until = Some(t_done + STAGE_OUT);
                    wins.push((sj_idx, slot_i));
                } else if is_twin {
                    sj.twin_work_done += progress;
                } else {
                    sj.work_done += progress;
                }
            }
            gray::collapse_races(job, &wins, &self.telemetry);
        }
    }
}
