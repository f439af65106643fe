//! Budget/deadline funding plans: Best Response bid placement at
//! submission, per-interval rate re-balancing, escrow refills across a
//! low/high-water band, and mid-run boosts (§3: "jobs that have been
//! submitted may be boosted with additional funding to complete sooner").

use gm_des::SimTime;
use gm_tycoon::{best_response, Credits, HostId, Market};

use super::gray;
use super::jobs::{GridError, Job, JobId, JobPhase, Slot};
use super::{JobManager, MAX_NODES};
use crate::token::TransferToken;

/// Low-water mark of a bid's escrow, in reallocation intervals of its
/// current rate: below it, [`JobManager::rebalance`] refills the escrow.
/// One interval would be charged away entirely at the next tick, leaving
/// the bid invisible to other agents' quotes between ticks; two keeps it
/// live through the charge.
pub(super) const LOW: f64 = 2.0;

/// High-water mark: every placement and every refill fills the escrow to
/// this many intervals, so a steady bid costs one signed transfer per
/// `HIGH - LOW` ticks rather than one per tick (in Tycoon a bid is a
/// budget spent over a duration, paid in again only when it changes).
pub(super) const HIGH: f64 = 10.0;

/// The escrow a bid at `rate` is funded with: [`HIGH`] intervals of
/// charge, capped at what the payer holds.
pub(super) fn escrow_fill(rate: f64, interval: f64, available: Credits) -> Credits {
    Credits::from_f64(rate * interval * HIGH).min(available)
}

/// Best Response bids with the per-host rate cap applied (see
/// [`super::AgentConfig::max_share_premium`]).
pub(super) fn capped_bids(
    quotes: &[gm_tycoon::HostQuote],
    budget_rate: f64,
    max_hosts: usize,
    premium: f64,
) -> Vec<(HostId, f64)> {
    best_response(quotes, budget_rate, max_hosts)
        .into_iter()
        .map(|(host, rate)| {
            let q = quotes
                .iter()
                .find(|q| q.host == host)
                .map(|q| q.others_rate)
                .unwrap_or(f64::INFINITY);
            (host, rate.min(q * premium))
        })
        .collect()
}

impl JobManager {
    /// Boost a running job with additional funding (§3: "jobs that have
    /// been submitted may be boosted with additional funding to complete
    /// sooner").
    pub fn boost(
        &mut self,
        market: &mut Market,
        job_id: JobId,
        token: &TransferToken,
    ) -> Result<(), GridError> {
        self.redeem_token(market, token)?;
        let job = self
            .jobs
            .get_mut(&job_id)
            .ok_or(GridError::NoSuchJob(job_id))?;
        market
            .bank_mut()
            .transfer(self.broker_account, job.sub_account, token.amount())?;
        if job.phase == JobPhase::Stalled {
            job.phase = JobPhase::Running;
            job.finished_at = None;
            // Revived jobs get a fresh retry budget and an immediate
            // re-dispatch round for any sub-jobs left pending.
            job.needs_redispatch = true;
            job.retry_failures = 0;
            job.retry_after = None;
        }
        Ok(())
    }

    pub(super) fn place_initial_bids(
        &mut self,
        market: &mut Market,
        now: SimTime,
        job: &mut Job,
    ) -> Result<(), GridError> {
        let budget = market.bank().balance(job.sub_account)?;
        let horizon = job.deadline.since(now).as_secs_f64().max(market.interval_secs());
        let rate = budget.as_f64() / horizon;
        let max_hosts = MAX_NODES.min(job.subjobs.len());

        // Probated (chronically slow) hosts are drained from new
        // placements; their standing bids elsewhere are still honored.
        let host_ids = self.drain_probated(market.host_ids());
        let quotes = self.quotes_or_degraded(market, job.user, &host_ids);
        let bids = capped_bids(&quotes, rate, max_hosts, self.config.max_share_premium);

        let interval = market.interval_secs();
        for (host, host_rate) in bids {
            // pre_tick refills the escrow when it runs low.
            let escrow = escrow_fill(host_rate, interval, market.bank().balance(job.sub_account)?);
            if !escrow.is_positive() {
                continue;
            }
            let Ok(bid) =
                market.place_funded_bid(job.user, job.sub_account, host, host_rate, escrow)
            else {
                // Bank outage (or a host lost between quote and bid):
                // recover through the re-dispatch path instead of failing
                // the whole submission with the token already consumed.
                job.needs_redispatch = true;
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
        }
        // Assign sub-jobs to slots.
        for slot_idx in 0..job.slots.len() {
            Self::start_next_subjob(&mut self.vms, &self.telemetry, job, slot_idx, now);
        }
        if job.slots.is_empty() {
            job.needs_redispatch = true;
        }
        Ok(())
    }

    pub(super) fn rebalance(
        &mut self,
        market: &mut Market,
        job: &mut Job,
        now: SimTime,
        interval: f64,
    ) {
        let balance = match market.bank().balance(job.sub_account) {
            Ok(b) => b,
            Err(_) => return,
        };
        // Escrows still at hosts count as spendable.
        let escrowed: f64 = job
            .slots
            .iter()
            .filter_map(|s| {
                s.bid
                    .and_then(|b| market.auctioneer(s.host).and_then(|a| a.escrow(b)))
            })
            .map(|c| c.as_f64())
            .sum();
        let funds = balance.as_f64() + escrowed;
        if funds <= 0.0 {
            let busy = job.slots.iter().any(|s| s.subjob.is_some());
            if busy {
                job.phase = JobPhase::Stalled;
                job.finished_at = Some(now);
            }
            return;
        }
        let horizon = job.deadline.since(now).as_secs_f64().max(interval);
        let total_rate = funds / horizon;

        // Twin replicas are excluded: they ride at the sick primary's
        // rate until their race collapses (`DESIGN.md` §17), so the
        // budget redistribution neither counts their hosts twice nor
        // overwrites their lane.
        let active_hosts: Vec<HostId> = job
            .slots
            .iter()
            .filter(|s| !s.retiring && !s.twin && (s.subjob.is_some() || s.bid.is_some()))
            .map(|s| s.host)
            .collect();
        if active_hosts.is_empty() {
            return;
        }

        if self.config.rebid {
            self.rebid_slots(market, job, &active_hosts, total_rate);
        }

        // Refill each live bid whose escrow fell below the low-water mark
        // of its current rate (a re-bid that raised the rate counts);
        // re-place bids that exhausted earlier.
        for slot in &mut job.slots {
            if slot.retiring || (slot.subjob.is_none() && slot.bid.is_none()) {
                continue;
            }
            let available = market
                .bank()
                .balance(job.sub_account)
                .unwrap_or(Credits::ZERO);
            match slot.bid {
                Some(bid) => {
                    let have = market
                        .auctioneer(slot.host)
                        .and_then(|a| a.escrow(bid))
                        .unwrap_or(Credits::ZERO);
                    if have < Credits::from_f64(slot.rate * interval * LOW) {
                        let top = escrow_fill(slot.rate, interval, have + available) - have;
                        if top.is_positive() {
                            let _ = market.top_up_bid(slot.host, bid, job.sub_account, top);
                        }
                    }
                }
                None => {
                    // Bid exhausted previously; re-place if funds remain.
                    let escrow = escrow_fill(slot.rate, interval, available);
                    if escrow.is_positive() && slot.rate > 0.0 {
                        if let Ok(b) = market.place_funded_bid(
                            job.user,
                            job.sub_account,
                            slot.host,
                            slot.rate,
                            escrow,
                        ) {
                            slot.bid = Some(b);
                        }
                    }
                }
            }
        }
    }

    /// Redistribute the rebalanced budget across the job's live primary
    /// bids. Sub-jobs with a twin racing get their sick primary demoted
    /// to a fraction of the rebalanced rate (`DESIGN.md` §17) — the
    /// hedge is financed by no longer paying full price for a host
    /// delivering a sliver of what it charges for.
    fn rebid_slots(
        &mut self,
        market: &mut Market,
        job: &mut Job,
        active_hosts: &[HostId],
        total_rate: f64,
    ) {
        let racing: Vec<usize> = job
            .subjobs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.twin_host.is_some())
            .map(|(i, _)| i)
            .collect();
        let quotes = self.quotes_or_degraded(market, job.user, active_hosts);
        let new_bids = capped_bids(&quotes, total_rate, usize::MAX, self.config.max_share_premium);
        for (host, rate) in new_bids {
            if let Some(slot) = job
                .slots
                .iter_mut()
                .find(|s| s.host == host && !s.retiring && !s.twin)
            {
                let rate = if slot.subjob.is_some_and(|i| racing.contains(&i)) {
                    rate * gray::DEMOTE
                } else {
                    rate
                };
                slot.rate = rate;
                if let Some(bid) = slot.bid {
                    let _ = market.update_bid_rate(slot.host, bid, rate);
                }
            }
        }
    }
}
