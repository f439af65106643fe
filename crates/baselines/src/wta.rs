//! Winner-takes-all first-price auctions, one per host per interval.
//!
//! The auction model the G-commerce paper simulated, which the paper
//! contrasts with Tycoon: "winner-takes-it-all auctions and not
//! proportional share, leading to reduced fairness" (§6). Every interval,
//! each job bids its spending rate on the hosts it wants; on each host the
//! single highest bidder takes the *whole* host for that interval and pays
//! its bid.
//!
//! The auction rules live in [`WtaPolicy`]; the tick loop is `gm_core`'s
//! shared [`PolicyDriver`](gm_core::PolicyDriver). A price sample (mean
//! winning bid) is recorded only on ticks where at least one host cleared.

use gm_core::policy::{AllocationPolicy, PolicyError, TickCtx};
use gm_core::{JobOutcome, JobRequest};
use gm_des::SimTime;

use crate::JobRecord;

/// How the winning bidder is charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pricing {
    /// Pay your own bid (the G-commerce simulation's model).
    FirstPrice,
    /// Pay the runner-up's bid — sealed-bid Vickrey, the per-timeslice
    /// auction of Spawn (Waldspurger et al. 1992, cited as the paper's
    /// ancestor system in §6).
    SecondPrice,
}

struct Track {
    job: JobRecord,
    /// Remaining work per sub-job.
    remaining: Vec<f64>,
    budget_left: f64,
}

/// Per-host winner-takes-all auctions as an [`AllocationPolicy`].
pub struct WtaPolicy {
    pricing: Pricing,
    tracks: Vec<Track>,
    /// This tick's auction results: per host, the winning track and the
    /// charged rate (set in `place`, consumed in `advance`).
    winners: Vec<Option<(usize, f64)>>,
    /// Mean winning bid this tick, if any host cleared.
    clearing: Option<f64>,
    /// Per-track sub-jobs progressed this tick (for concurrency stats).
    active_now: Vec<usize>,
}

impl WtaPolicy {
    /// New market charging winners by `pricing`.
    pub fn new(pricing: Pricing) -> Self {
        WtaPolicy {
            pricing,
            tracks: Vec::new(),
            winners: Vec::new(),
            clearing: None,
            active_now: Vec::new(),
        }
    }
}

impl AllocationPolicy for WtaPolicy {
    fn name(&self) -> &'static str {
        "wta"
    }

    fn admit(&mut self, _ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        self.tracks.push(Track {
            job: JobRecord::new(req),
            remaining: vec![req.work_per_subjob; req.subjobs as usize],
            budget_left: req.budget,
        });
        Ok(())
    }

    fn place(&mut self, ctx: &TickCtx) {
        assert!(!ctx.hosts.is_empty());
        // Each unfinished job bids budget/deadline (its sustainable rate)
        // per host, on as many hosts as it has unfinished subjobs.
        struct Bid {
            track: usize,
            rate_per_host: f64,
            hosts_wanted: usize,
        }
        let mut bids: Vec<Bid> = Vec::new();
        for (ti, t) in self.tracks.iter().enumerate() {
            if t.job.finished_at.is_some() {
                continue;
            }
            let unfinished = t.remaining.iter().filter(|r| **r > 0.0).count();
            if unfinished == 0 || t.budget_left <= 0.0 {
                continue;
            }
            let deadline_secs = t.job.req.deadline_secs;
            let rate = (t.budget_left / deadline_secs.max(ctx.interval_secs)) * ctx.interval_secs;
            bids.push(Bid {
                track: ti,
                rate_per_host: rate / unfinished as f64,
                hosts_wanted: unfinished,
            });
        }

        // Hosts auction independently; bidders spread over hosts in host
        // order until their wanted count is exhausted.
        self.winners = vec![None; ctx.hosts.len()];
        let mut assigned: Vec<usize> = vec![0; bids.len()];
        for h_idx in 0..ctx.hosts.len() {
            let mut best: Option<(usize, f64)> = None;
            let mut second: f64 = 0.0;
            for (b_idx, b) in bids.iter().enumerate() {
                if assigned[b_idx] >= b.hosts_wanted {
                    continue;
                }
                match best {
                    None => best = Some((b_idx, b.rate_per_host)),
                    Some((_, rate)) if b.rate_per_host > rate => {
                        second = rate;
                        best = Some((b_idx, b.rate_per_host));
                    }
                    Some((_, _)) => second = second.max(b.rate_per_host),
                }
            }
            if let Some((b_idx, rate)) = best {
                let charge = match self.pricing {
                    Pricing::FirstPrice => rate,
                    Pricing::SecondPrice => second,
                };
                self.winners[h_idx] = Some((bids[b_idx].track, charge));
                assigned[b_idx] += 1;
            }
        }

        let winning: Vec<f64> = self.winners.iter().flatten().map(|(_, r)| *r).collect();
        self.clearing = if winning.is_empty() {
            None
        } else {
            Some(winning.iter().sum::<f64>() / winning.len() as f64)
        };
    }

    fn advance(&mut self, ctx: &TickCtx) {
        // Winners get the whole host (all CPUs → one subjob per CPU).
        let mut active_now = vec![0usize; self.tracks.len()];
        for (h_idx, w) in self.winners.iter().enumerate() {
            let Some((ti, rate)) = *w else { continue };
            let t = &mut self.tracks[ti];
            t.budget_left -= rate;
            t.job.spent += rate;
            let host = &ctx.hosts[h_idx];
            let cap = host.vcpu_capacity_mhz() * ctx.interval_secs;
            let mut cpus = host.cpus as usize;
            for r in t.remaining.iter_mut() {
                if cpus == 0 {
                    break;
                }
                if *r > 0.0 {
                    *r -= cap;
                    active_now[ti] += 1;
                    cpus -= 1;
                }
            }
        }
        self.active_now = active_now;
    }

    fn settle(&mut self, ctx: &TickCtx) {
        // Sampled every tick from admission until the job finishes.
        for (ti, t) in self.tracks.iter_mut().enumerate() {
            if t.job.finished_at.is_none() && t.remaining.iter().all(|r| *r <= 0.0) {
                t.job.finished_at = Some(ctx.tick_end());
            }
            if t.job.finished_at.is_none() {
                let active = self.active_now.get(ti).copied().unwrap_or(0);
                t.job.nodes.sample(active as f64);
            }
        }
    }

    fn price(&self, _ctx: &TickCtx) -> Option<f64> {
        self.clearing
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
    use gm_core::RunResult;
    use gm_tycoon::UserId;

    fn job(id: u32, subjobs: u32, work_secs: f64, budget: f64) -> JobRequest {
        JobRequest {
            id,
            user: UserId(id),
            subjobs,
            work_per_subjob: work_secs * 2910.0,
            arrival: SimTime::ZERO,
            budget,
            deadline_secs: 3600.0,
        }
    }

    fn auction(p: Pricing, n_hosts: u32, jobs: &[JobRequest], horizon_s: u64) -> RunResult {
        run(WtaPolicy::new(p), &hosts(n_hosts), jobs, horizon_s)
    }

    #[test]
    fn lone_bidder_wins_everything() {
        let r = auction(Pricing::FirstPrice, 2, &[job(0, 4, 100.0, 100.0)], 10_000);
        assert!(r.all_finished());
        assert_eq!(r.outcomes[0].max_nodes, 4, "2 hosts × 2 cpus");
    }

    #[test]
    fn highest_bidder_shuts_out_the_rest() {
        // Same shape, 10× budget: on a single host, the poor job gets
        // nothing until the rich one finishes.
        let rich = job(0, 2, 500.0, 1000.0);
        let poor = job(1, 2, 500.0, 100.0);
        let r = auction(Pricing::FirstPrice, 1, &[rich, poor], 100_000);
        let tr = r.outcomes[0].finished_at.expect("rich finishes");
        if let Some(tp) = r.outcomes[1].finished_at {
            assert!(tr < tp, "rich must finish strictly first");
        }
        // While the rich job ran, the poor job had zero nodes → its average
        // concurrency is well below its peak.
        assert!(r.outcomes[1].avg_nodes < 2.0);
    }

    #[test]
    fn wta_is_less_fair_than_equal_budgets_imply() {
        // Two equal-work jobs, budgets 3:1, measured over a horizon where
        // they still contend: the loser is starved entirely (with
        // proportional share both would run at 3:1 shares). Capacity
        // received is approximated as average nodes × makespan × vCPU.
        let (a, b) = (job(0, 2, 2_000.0, 300.0), job(1, 2, 2_000.0, 100.0));
        let r = auction(Pricing::FirstPrice, 1, &[a, b], 2_000);
        let vcpu = hosts(1)[0].vcpu_capacity_mhz();
        let caps: Vec<f64> =
            r.outcomes.iter().map(|o| o.avg_nodes * o.makespan_secs * vcpu).collect();
        let fairness = gm_core::jain_fairness(&caps);
        assert!(
            fairness < 0.9,
            "winner-takes-all should be visibly unfair: {fairness} ({caps:?})"
        );
    }

    #[test]
    fn broke_bidder_never_runs() {
        let r = auction(Pricing::FirstPrice, 1, &[job(0, 1, 100.0, 0.0)], 5_000);
        assert!(!r.all_finished());
        assert_eq!(r.outcomes[0].max_nodes, 0);
    }

    #[test]
    fn second_price_lone_bidder_pays_nothing() {
        // Vickrey with one bidder and no reserve: the clearing price is 0.
        let r = auction(Pricing::SecondPrice, 1, &[job(0, 1, 100.0, 360.0)], 5_000);
        assert!(r.all_finished());
        assert_eq!(r.outcomes[0].cost, 0.0);
    }

    #[test]
    fn second_price_charges_runner_up_bid() {
        // rich bids 1.0/interval, poor bids 0.25/interval.
        let jobs = [job(0, 1, 500.0, 360.0), job(1, 1, 500.0, 90.0)];
        let r = auction(Pricing::SecondPrice, 1, &jobs, 50_000);
        // While contending, the rich winner pays the poor bid (0.25), so
        // its total spend is well under first-price.
        let first = auction(Pricing::FirstPrice, 1, &jobs, 50_000);
        assert!(
            r.outcomes[0].cost < first.outcomes[0].cost,
            "second price {} should undercut first price {}",
            r.outcomes[0].cost,
            first.outcomes[0].cost
        );
        assert!(r.outcomes[0].cost > 0.0, "contended winner still pays");
    }

    #[test]
    fn price_history_tracks_winning_bids() {
        let r = auction(Pricing::FirstPrice, 1, &[job(0, 1, 100.0, 360.0)], 5_000);
        assert!(!r.price_history.is_empty());
        // bid per interval = budget/deadline × interval = 360/3600×10 = 1.0
        let (_, p0) = r.price_history[0];
        assert!((p0 - 1.0).abs() < 1e-9, "{p0}");
    }
}
