//! Gray-failure resilience: per-host degraded-rate state, online health
//! scoring, and speculative re-dispatch (`DESIGN.md` §17).
//!
//! Binary faults knock hosts out of the market; gray faults leave them
//! in it, delivering a fraction of what they charge for. This module is
//! the manager's answer, in three layers:
//!
//! 1. **Gray state** — [`GrayState`] tracks the delivered-rate fraction
//!    and stall window per afflicted host, fed by the fault plan through
//!    [`JobManager::apply_host_slowdown`] / [`JobManager::apply_host_stall`]
//!    / [`JobManager::clear_host_gray`]. `post_tick` scales sub-job
//!    *progress* by the delivered fraction; allocation and charging
//!    always see raw capacity (the market never learns about gray state
//!    — that is the point: the failure is silent).
//! 2. **Health scoring** — a [`HealthScore`] EWMA per host, updated from
//!    observed-vs-expected progress each tick and timeout/retry events,
//!    ranks dispatch candidates and drains probated hosts from new
//!    placements (standing bids are still honored). Scores are published
//!    into the market's `HostArena` health column as advisory telemetry.
//! 3. **Speculation** — when a sub-job's projected finish at the
//!    health-adjusted rate misses its deadline, a budget-capped twin
//!    replica launches on a healthy host. First finisher wins; the loser
//!    retires with its escrow refunded exactly once, bank outages
//!    included (see [`JobManager::retire_speculative_slots`]).
//!
//! In fault-free runs every health score stays at exactly `1.0`, no host
//! is probated, the speculation trigger (score below threshold) never
//! fires, and the lazy `grid.health.*` / `grid.spec.*` counters are
//! never registered — byte-identical behavior and telemetry.

use std::collections::BTreeMap;

use gm_des::SimTime;
use gm_tycoon::{Credits, HealthConfig, HealthScore, HostId, Market, MarketError};

use super::funding::escrow_fill;
use super::jobs::{Job, JobKind, Slot, SubJob};
use super::JobManager;
use crate::telemetry::GridInstruments;

/// Tuning knobs of speculative re-dispatch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeculationConfig {
    /// Master switch (the gray-matrix `tycoon_nospec` arm turns it off).
    pub enabled: bool,
    /// Speculate only when the primary host's health score is below this
    /// bound. Must sit below `1.0`: fault-free hosts score exactly `1.0`,
    /// so honest runs never speculate.
    pub health_threshold: f64,
    /// Budget cap: concurrent twin replicas per job.
    pub max_twins: usize,
    /// While a twin races, the sick primary's bid is demoted to this
    /// fraction of its rebalanced rate: the hedge is financed mostly by
    /// no longer paying full price for a host delivering a sliver of
    /// what it charges for. The primary keeps a small stake so it can
    /// still win the race if the gray fault clears.
    pub demote: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            enabled: true,
            health_threshold: 0.8,
            max_twins: 3,
            demote: 0.25,
        }
    }
}

/// Gray-fault state of one afflicted host.
#[derive(Clone, Copy, Debug)]
pub(super) struct GrayState {
    /// Delivered fraction of nominal rate, in permille (1000 = nominal).
    pub(super) factor_permille: u16,
    /// Progress is zero until this time (stall window), if set.
    pub(super) stall_until: Option<SimTime>,
}

/// Average fraction of allocated capacity `host` actually delivers over
/// `[from, to)`: zero inside a stall window, `factor_permille`/1000
/// outside it, `1.0` for hosts with no gray state.
pub(super) fn delivered_fraction(
    gray: &BTreeMap<HostId, GrayState>,
    host: HostId,
    from: SimTime,
    to: SimTime,
) -> f64 {
    let Some(g) = gray.get(&host) else {
        return 1.0;
    };
    let factor = f64::from(g.factor_permille.min(1000)) / 1000.0;
    let total = to.since(from).as_secs_f64();
    if total <= 0.0 {
        return factor;
    }
    let stalled = match g.stall_until {
        Some(until) if until > from => to.min(until).since(from).as_secs_f64(),
        _ => 0.0,
    };
    factor * (total - stalled).max(0.0) / total
}

/// Fold one observed-vs-expected progress sample into `host`'s tracker.
/// Free function (not a method) so `post_tick` can call it while jobs
/// are mutably borrowed out of the manager.
pub(super) fn observe_progress(
    health: &mut BTreeMap<HostId, HealthScore>,
    telemetry: &GridInstruments,
    cfg: &HealthConfig,
    host: HostId,
    observed: f64,
    expected: f64,
) {
    let hs = health.entry(host).or_default();
    if hs.observe(observed, expected, cfg) {
        count_probation_edge(telemetry, hs);
    }
}

/// Fold a timeout/retry event (interrupted sub-job) into `host`'s tracker.
pub(super) fn observe_timeout(
    health: &mut BTreeMap<HostId, HealthScore>,
    telemetry: &GridInstruments,
    cfg: &HealthConfig,
    host: HostId,
) {
    let hs = health.entry(host).or_default();
    if hs.observe_timeout(cfg) {
        count_probation_edge(telemetry, hs);
    }
}

fn count_probation_edge(telemetry: &GridInstruments, hs: &HealthScore) {
    if hs.on_probation() {
        telemetry.health_probations().inc();
    } else {
        telemetry.health_releases().inc();
    }
}

/// Collapse the speculation races `post_tick` resolved this tick: for
/// each `(sub-job, winning slot)` pair the winner becomes (or stays)
/// the primary slot and every other slot of that sub-job retires — its
/// escrow refunds at the next `pre_tick`.
pub(super) fn collapse_races(job: &mut Job, wins: &[(usize, usize)], telemetry: &GridInstruments) {
    for &(sj_idx, winner) in wins {
        for (i, slot) in job.slots.iter_mut().enumerate() {
            if slot.subjob != Some(sj_idx) {
                continue;
            }
            if i == winner {
                slot.twin = false;
            } else {
                slot.subjob = None;
                slot.retiring = true;
                telemetry.spec_cancels().inc();
            }
        }
    }
}

/// Collapse a sub-job's twin lane (the twin replica is gone).
pub(super) fn clear_twin(sj: &mut SubJob) {
    sj.twin_host = None;
    sj.twin_compute_ready = None;
    sj.twin_work_done = 0.0;
}

/// Promote a sub-job's surviving twin to primary after the primary's
/// host failed. Counted as an interruption + re-dispatch pair so the
/// recovery invariant (`dispatches == requeues + 1` on completion)
/// holds; the caller flips the twin slot's flag and counters.
pub(super) fn promote_twin(sj: &mut SubJob) {
    debug_assert!(sj.twin_host.is_some(), "no twin to promote");
    sj.host = sj.twin_host;
    sj.compute_ready = sj.twin_compute_ready;
    // Replicas duplicate work; the survivor keeps the better lane.
    sj.work_done = sj.work_done.max(sj.twin_work_done);
    clear_twin(sj);
    sj.requeues += 1;
    sj.dispatches += 1;
}

impl JobManager {
    /// Fault entry: `host` delivers only `delivered_permille`/1000 of its
    /// nominal rate until [`JobManager::clear_host_gray`].
    pub fn apply_host_slowdown(&mut self, host: HostId, delivered_permille: u16) {
        let g = self.gray.entry(host).or_insert(GrayState {
            factor_permille: 1000,
            stall_until: None,
        });
        g.factor_permille = delivered_permille.clamp(1, 1000);
    }

    /// Fault entry: `host` delivers no progress at all until `until`
    /// (self-expiring; any slowdown factor resumes afterwards).
    pub fn apply_host_stall(&mut self, host: HostId, until: SimTime) {
        let g = self.gray.entry(host).or_insert(GrayState {
            factor_permille: 1000,
            stall_until: None,
        });
        g.stall_until = Some(g.stall_until.map_or(until, |t| t.max(until)));
    }

    /// Fault entry: `host` returns to nominal rate (clears slowdown and
    /// stall state).
    pub fn clear_host_gray(&mut self, host: HostId) {
        self.gray.remove(&host);
    }

    /// Current health score of `host` (`1.0` for unobserved hosts).
    pub fn host_health_score(&self, host: HostId) -> f64 {
        self.health.get(&host).map_or(1.0, HealthScore::score)
    }

    /// Whether `host` is drained from new placements.
    pub fn host_on_probation(&self, host: HostId) -> bool {
        self.health
            .get(&host)
            .is_some_and(HealthScore::on_probation)
    }

    /// Advance every tracker's probation clock by one tick (start of
    /// `pre_tick`). A drained host gets no new placements and therefore
    /// no new samples; the TTL releases it at the exit-band score so it
    /// can probe its way back into service. No-op while the health map
    /// is empty — fault-free runs stay byte-identical.
    pub(super) fn age_probations(&mut self) {
        if !self.config.health.enabled {
            return;
        }
        for hs in self.health.values_mut() {
            if hs.tick_probation(&self.config.health) {
                self.telemetry.health_releases().inc();
            }
        }
    }

    /// True when a *new* placement should avoid `host`: it is probated
    /// and at least one eligible host is healthy (the fallback keeps a
    /// fully-gray pool from starving the job). One **canary** placement
    /// is always allowed through: a fully-drained host produces no
    /// progress samples, so without a canary the manager would only
    /// notice the fault clearing when the probation TTL fires — the
    /// canary's sample stream detects a restore within a few ticks.
    pub(super) fn drain_placement(&self, market: &Market, job: &Job, host: HostId) -> bool {
        if !self.config.health.enabled || !self.host_on_probation(host) {
            return false;
        }
        if !market
            .host_ids()
            .iter()
            .any(|h| !self.host_on_probation(*h))
        {
            return false;
        }
        self.host_active_placements(job, host) >= 1
    }

    /// Actively computing placements on `host` across every job —
    /// including `current`, which `pre_tick` has temporarily removed
    /// from the map while processing it.
    fn host_active_placements(&self, current: &Job, host: HostId) -> usize {
        self.jobs
            .values()
            .chain(std::iter::once(current))
            .flat_map(|j| j.slots.iter())
            .filter(|s| s.host == host && s.subjob.is_some())
            .count()
    }

    /// Publish every tracked health score into the market's advisory
    /// `HostArena` health column (start of `pre_tick`).
    pub(super) fn publish_health(&self, market: &mut Market) {
        if !self.config.health.enabled {
            return;
        }
        for (host, hs) in &self.health {
            market.set_host_health(*host, hs.score());
        }
    }

    /// Drop probated hosts from a placement candidate list — unless that
    /// would leave nothing at all (a fully-gray pool still beats a
    /// stalled job). Order is preserved.
    pub(super) fn drain_probated(&self, hosts: Vec<HostId>) -> Vec<HostId> {
        if !self.config.health.enabled || self.health.is_empty() {
            return hosts;
        }
        let healthy: Vec<HostId> = hosts
            .iter()
            .copied()
            .filter(|h| !self.host_on_probation(*h))
            .collect();
        if healthy.is_empty() {
            hosts
        } else {
            healthy
        }
    }

    /// Placement candidates for re-dispatch and speculation: eligible,
    /// online, not already holding a slot of this job, probated hosts
    /// drained, ranked healthiest-first (ties in ascending id order —
    /// with every score at the fault-free `1.0` this is exactly the old
    /// id-ordered list, preserving golden byte-identity).
    pub(super) fn rank_dispatch_candidates(
        &self,
        market: &Market,
        taken: &[HostId],
    ) -> Vec<HostId> {
        let eligible: Vec<HostId> = market
            .host_ids()
            .into_iter()
            .filter(|h| market.is_host_online(*h) && !taken.contains(h))
            .collect();
        let mut candidates = self.drain_probated(eligible);
        if self.config.health.enabled && !self.health.is_empty() {
            // Stable sort: equal scores keep ascending-id order.
            candidates.sort_by(|a, b| {
                self.host_health_score(*b)
                    .total_cmp(&self.host_health_score(*a))
            });
        }
        candidates
    }

    /// Wind down slots that lost a speculation race: cancel each bid
    /// exactly once — during a bank outage the cancel cannot settle, so
    /// the handle is kept and retried next interval rather than dropped
    /// (stranding escrow) or re-cancelled (double refund) — then drop
    /// the slot once its escrow is home.
    pub(super) fn retire_speculative_slots(&mut self, market: &mut Market, job: &mut Job) {
        for slot in &mut job.slots {
            if !slot.retiring {
                continue;
            }
            if let Some(bid) = slot.bid.take() {
                if let Err(MarketError::BankUnavailable) =
                    market.cancel_bid(slot.host, bid, job.sub_account)
                {
                    slot.bid = Some(bid);
                }
            }
        }
        job.slots.retain(|s| !(s.retiring && s.bid.is_none()));
    }

    /// Launch budget-capped speculative twins for computing sub-jobs
    /// whose projected finish — remaining work at the health-adjusted
    /// observed rate, plus stage-out — misses the job deadline while
    /// their host's health score sits below the speculation threshold.
    /// The health gate means fault-free runs never enter this path.
    pub(super) fn speculate(&mut self, market: &mut Market, job: &mut Job, now: SimTime) {
        let cfg = self.config.speculation;
        if !cfg.enabled || !self.config.health.enabled || self.health.is_empty() {
            return;
        }
        if !matches!(job.kind, JobKind::Batch) {
            return; // service instances never finish by doing work
        }
        let mut budget = cfg
            .max_twins
            .saturating_sub(job.slots.iter().filter(|s| s.twin).count());
        let interval = market.interval_secs();
        for sj_idx in 0..job.subjobs.len() {
            if budget == 0 {
                return;
            }
            let sj = &job.subjobs[sj_idx];
            if !sj.is_computing() || sj.twin_host.is_some() {
                continue;
            }
            let Some(host) = sj.host else { continue };
            let score = self.host_health_score(host);
            if score >= cfg.health_threshold {
                continue;
            }
            let nominal = sj.last_rate_mhz;
            if nominal <= 0.0 {
                continue; // no allocation observed yet
            }
            let remaining = sj.work_total - sj.work_done;
            let rate = nominal * score;
            let stage_out = job.stage_out.as_secs_f64();
            // Float seconds, not SimTime addition: a near-zero health
            // score projects an ETA far past any representable time.
            let slack = job.deadline.since(now).as_secs_f64();
            let primary_eta = if rate > 0.0 {
                remaining / rate
            } else {
                f64::INFINITY
            };
            if primary_eta + stage_out <= slack {
                continue; // limping primary still makes the deadline
            }
            // A twin restarts the chunk from zero on a nominal-rate
            // host. Launch only when that is projected to both beat the
            // primary and land inside the deadline — a hedge that can't
            // win is pure duplicate spend.
            let twin_eta =
                job.stage_in.as_secs_f64() + sj.work_total / nominal + stage_out;
            if twin_eta > slack || twin_eta >= primary_eta {
                continue;
            }
            // A healthy target, healthiest first: prefer hosts the job
            // is not already on, but on a small testbed fall back to
            // any healthy host other than the sick primary.
            let taken: Vec<HostId> = job.slots.iter().map(|s| s.host).collect();
            let healthy = |h: &HostId| self.host_health_score(*h) >= cfg.health_threshold;
            let target = self
                .rank_dispatch_candidates(market, &taken)
                .into_iter()
                .find(healthy)
                .or_else(|| {
                    self.rank_dispatch_candidates(market, &[host])
                        .into_iter()
                        .find(healthy)
                });
            let Some(target) = target else { continue };
            let balance = market
                .bank()
                .balance(job.sub_account)
                .unwrap_or(Credits::ZERO);
            if !balance.is_positive() {
                return;
            }
            if self.launch_twin(market, job, sj_idx, target, balance, now, interval) {
                budget -= 1;
            }
        }
    }

    /// Fund and place one speculative twin for `job.subjobs[sj_idx]` on
    /// `target`. The twin bids at the sick primary's ongoing spend rate
    /// — the hedge doubles the burn for this one sub-job only, instead
    /// of re-committing the whole balance — and the primary's live bid
    /// is demoted right away (rebalance, which runs before `speculate`,
    /// keeps it demoted while the race lasts). Returns whether a twin
    /// was launched; a bank outage just means "try again next interval".
    #[allow(clippy::too_many_arguments)]
    fn launch_twin(
        &mut self,
        market: &mut Market,
        job: &mut Job,
        sj_idx: usize,
        target: HostId,
        balance: Credits,
        now: SimTime,
        interval: f64,
    ) -> bool {
        let horizon = job.deadline.since(now).as_secs_f64().max(interval);
        let primary_rate = job
            .slots
            .iter()
            .find(|s| s.subjob == Some(sj_idx) && !s.twin)
            .map(|s| s.rate)
            .filter(|r| *r > 0.0);
        let bid_rate = primary_rate.unwrap_or(balance.as_f64() / horizon);
        let escrow = escrow_fill(bid_rate, interval, balance);
        if !escrow.is_positive() {
            return false;
        }
        let Ok(bid) = market.place_funded_bid(job.user, job.sub_account, target, bid_rate, escrow)
        else {
            return false;
        };
        let ready = self.vms.acquire(target, job.user, &job.envs, now);
        let sj = &mut job.subjobs[sj_idx];
        sj.twin_host = Some(target);
        sj.twin_compute_ready = Some(ready.max(now) + job.stage_in);
        sj.twin_work_done = 0.0;
        job.slots.push(Slot {
            host: target,
            bid: Some(bid),
            rate: bid_rate,
            subjob: Some(sj_idx),
            twin: true,
            retiring: false,
        });
        if let Some(pslot) = job
            .slots
            .iter_mut()
            .find(|s| s.subjob == Some(sj_idx) && !s.twin)
        {
            let demoted = pslot.rate * self.config.speculation.demote.clamp(0.0, 1.0);
            pslot.rate = demoted;
            if let Some(pbid) = pslot.bid {
                let _ = market.update_bid_rate(pslot.host, pbid, demoted);
            }
        }
        self.telemetry.spec_twins().inc();
        true
    }
}
