//! A G-commerce-style commodity market (Wolski, Plank, Bryan & Brevik,
//! IPDPS'01), as characterized in the paper's related work (§6):
//! "providers decide the selling price after considering long-term profit
//! and past performance … resources are divided into static slots that are
//! sold with a price based on expected revenue", with periodic budget
//! allocations to users.
//!
//! Implementation: hosts sell fixed vCPU slots at one *posted* price per
//! interval; the price moves toward supply/demand equilibrium with a
//! multiplicative adjustment. Buyers purchase slots while their budget
//! rate affords them. There is no preemption or proportional share — a
//! slot is yours for the interval at the posted price.
//!
//! The market rules live in [`GCommercePolicy`]; the tick loop is
//! `gm_core`'s shared [`PolicyDriver`](gm_core::PolicyDriver). The
//! posted price is sampled at the *start* of each tick (pre-adjustment),
//! matching the original G-commerce predictability analysis.

use gm_core::policy::{AllocationPolicy, PolicyError, TickCtx};
use gm_core::{JobOutcome, JobRequest};
use gm_des::SimTime;

use crate::JobRecord;

/// Posted price per slot-interval when the market opens.
const INITIAL_PRICE: f64 = 0.01;
/// Multiplicative price adjustment gain per interval.
const ADJUSTMENT_GAIN: f64 = 0.05;
/// Price floor.
const MIN_PRICE: f64 = 1e-6;

struct Track {
    job: JobRecord,
    /// Remaining work of subjobs not currently holding a slot (paused
    /// subjobs keep their progress — checkpointed, not lost).
    queued: Vec<f64>,
    /// Remaining work of subjobs currently holding slots.
    running: Vec<f64>,
    budget_left: f64,
}

/// The G-commerce posted-price market as an [`AllocationPolicy`].
pub struct GCommercePolicy {
    price: f64,
    /// Price as posted at the start of the current tick (what buyers saw
    /// and what the price history records).
    posted: f64,
    /// Demand measured at the posted price this tick (drives adjustment).
    demand: usize,
    tracks: Vec<Track>,
}

impl Default for GCommercePolicy {
    fn default() -> Self {
        GCommercePolicy {
            price: INITIAL_PRICE,
            posted: INITIAL_PRICE,
            demand: 0,
            tracks: Vec::new(),
        }
    }
}

impl GCommercePolicy {
    fn vcpu_mhz(ctx: &TickCtx) -> f64 {
        ctx.hosts
            .first()
            .map(|h| h.vcpu_capacity_mhz())
            .unwrap_or(2910.0)
    }
}

impl AllocationPolicy for GCommercePolicy {
    fn name(&self) -> &'static str {
        "gcommerce"
    }

    fn admit(&mut self, _ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        self.tracks.push(Track {
            job: JobRecord::new(req),
            queued: vec![req.work_per_subjob; req.subjobs as usize],
            running: Vec::new(),
            budget_left: req.budget,
        });
        Ok(())
    }

    fn place(&mut self, ctx: &TickCtx) {
        let slots = ctx.total_slots();
        assert!(slots > 0);
        let vcpu_mhz = Self::vcpu_mhz(ctx);
        // The price buyers see this tick (recorded pre-adjustment).
        self.posted = self.price;
        let price = self.price;

        // Each buyer's willingness-to-pay per slot-interval: the budget
        // spread over the remaining slot-intervals of work — paying more
        // would bankrupt the job before completion.
        let willing: Vec<f64> = self
            .tracks
            .iter()
            .map(|t| {
                let slot_ints = |r: &f64| (r / (vcpu_mhz * ctx.interval_secs)).ceil();
                let total: f64 = t.running.iter().map(slot_ints).sum::<f64>()
                    + t.queued.iter().map(slot_ints).sum::<f64>();
                if total <= 0.0 {
                    0.0
                } else {
                    t.budget_left / total
                }
            })
            .collect();

        // Demand at the posted price: one slot per pending-or-running
        // subjob, but only from buyers whose willingness covers it.
        self.demand = self
            .tracks
            .iter()
            .zip(&willing)
            .filter(|(_, w)| price <= **w)
            .map(|(t, _)| t.running.len() + t.queued.len())
            .sum();

        // Sell slots in admission (= arrival, id) order: the posted-price
        // market is first-come-first-served.
        let mut sold = 0usize;
        for (ti, t) in self.tracks.iter_mut().enumerate() {
            if price > willing[ti] || price > t.budget_left {
                // Priced out: release the slots, checkpoint progress.
                t.queued.append(&mut t.running);
                continue;
            }
            // Keep already-running subjobs first (pay per interval), then
            // resume queued ones.
            let mut affordable = (t.budget_left / price).floor() as usize;
            let kept = t.running.len().min(slots - sold).min(affordable);
            while t.running.len() > kept {
                let r = t.running.pop().expect("nonempty");
                t.queued.push(r);
            }
            sold += kept;
            affordable -= kept;
            while !t.queued.is_empty() && sold < slots && affordable > 0 {
                let r = t.queued.remove(0);
                t.running.push(r);
                sold += 1;
                affordable -= 1;
            }
            let cost = price * t.running.len() as f64;
            t.budget_left -= cost;
            t.job.spent += cost;
        }
    }

    fn advance(&mut self, ctx: &TickCtx) {
        let vcpu_mhz = Self::vcpu_mhz(ctx);
        for t in self.tracks.iter_mut() {
            for r in t.running.iter_mut() {
                *r -= vcpu_mhz * ctx.interval_secs;
            }
            t.running.retain(|r| *r > 0.0);
            if t.running.is_empty() && t.queued.is_empty() && t.job.finished_at.is_none() {
                t.job.finished_at = Some(ctx.tick_end());
            }
        }
    }

    fn settle(&mut self, ctx: &TickCtx) {
        // Sampled every tick from admission until the job finishes.
        for t in self.tracks.iter_mut() {
            if t.job.finished_at.is_none() {
                t.job.nodes.sample(t.running.len() as f64);
            }
        }
        // Supply/demand price adjustment for the next tick.
        let slots = ctx.total_slots();
        let imbalance = (self.demand as f64 - slots as f64) / slots as f64;
        self.price *= 1.0 + ADJUSTMENT_GAIN * imbalance.clamp(-1.0, 1.0);
        self.price = self.price.max(MIN_PRICE);
    }

    fn price(&self, _ctx: &TickCtx) -> Option<f64> {
        Some(self.posted)
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

    fn job(id: u32, subjobs: u32, work_secs: f64, budget: f64) -> JobRequest {
        JobRequest {
            id,
            user: UserId(id),
            subjobs,
            work_per_subjob: work_secs * 2910.0,
            arrival: SimTime::ZERO,
            budget,
            deadline_secs: 1e9,
        }
    }

    fn market(n_hosts: u32, jobs: &[JobRequest], horizon_s: u64) -> gm_core::RunResult {
        run(GCommercePolicy::default(), &hosts(n_hosts), jobs, horizon_s)
    }

    #[test]
    fn funded_job_completes() {
        let r = market(2, &[job(0, 4, 100.0, 1000.0)], 10_000);
        assert!(r.all_finished());
        assert!(r.outcomes[0].cost > 0.0);
    }

    #[test]
    fn price_rises_under_excess_demand() {
        // 1 host (2 slots), 20 wanted slots → sustained excess demand.
        let r = market(1, &[job(0, 20, 500.0, 1e9)], 2_000);
        let first = r.price_history.first().unwrap().1;
        let last = r.price_history.last().unwrap().1;
        assert!(last > first * 2.0, "price should rise: {first} → {last}");
    }

    #[test]
    fn price_decays_when_idle() {
        // The tiny job finishes early; an unfunded job keeps the run going
        // with no demand the market can serve.
        let r = market(4, &[job(0, 1, 10.0, 100.0), job(1, 1, 1e12, 0.0)], 3_000);
        let last = r.price_history.last().unwrap().1;
        assert!(last < INITIAL_PRICE, "idle market must cool: {last}");
    }

    #[test]
    fn broke_job_starves() {
        let r = market(2, &[job(0, 2, 100.0, 0.0)], 2_000);
        assert!(!r.all_finished());
        assert_eq!(r.outcomes[0].max_nodes, 0);
    }

    #[test]
    fn posted_price_is_less_volatile_than_burst_auctions() {
        // Sanity for the G-commerce predictability claim: the posted price
        // series moves by at most `gain` per step.
        let jobs: Vec<JobRequest> = (0..5).map(|i| job(i, 10, 300.0, 1e6)).collect();
        let r = market(3, &jobs, 20_000);
        for w in r.price_history.windows(2) {
            let ratio = w[1].1 / w[0].1;
            assert!(
                (1.0 - ADJUSTMENT_GAIN - 1e-9..=1.0 + ADJUSTMENT_GAIN + 1e-9).contains(&ratio),
                "price jumped by {ratio}"
            );
        }
    }

    #[test]
    fn richer_job_outlasts_poorer_under_contention() {
        // Over-subscribed market: prices climb until the poor job can't buy.
        let rich = job(0, 6, 2_000.0, 1e9);
        let poor = job(1, 6, 2_000.0, 0.05);
        let r = market(1, &[rich, poor], 200_000);
        let rich_done = r.outcomes[0].finished_at;
        let poor_done = r.outcomes[1].finished_at;
        match (rich_done, poor_done) {
            (Some(tr), Some(tp)) => assert!(tr <= tp),
            (Some(_), None) => {} // poor starved entirely — acceptable
            other => panic!("rich job should finish: {other:?}"),
        }
    }
}
