//! Extension experiment: the optimization tier vs the market and queue
//! tiers on one SLA workload.
//!
//! Every allocator in the suite — the VCG welfare-LP policy
//! ([`gm_optimal::VcgSlaPolicy`]), the Tycoon proportional-share market,
//! and the four baselines — runs the *identical* seeded job stream on
//! the identical hosts through the one shared `PolicyDriver`, and every
//! run is scored with the same three columns: realized welfare (the
//! shared on-time value model, DESIGN.md §14), provider revenue, and
//! Jain fairness over average node allocations.
//!
//! The workload is built to expose the structural difference between
//! *optimizing* and *reacting* allocators under overload:
//!
//! * two cheap jobs arrive first (FIFO burns prime capacity on them),
//! * four high-value jobs arrive next (2× more demand than on-time
//!   capacity overall, so somebody must lose),
//! * one oversized job that cannot possibly meet its deadline carries a
//!   front-loaded [`gm_optimal::SlaCurve`]: its first third is worth
//!   most of its budget. All-or-nothing allocators either waste
//!   capacity on it (it bids high) or earn nothing from it; the LP
//!   prices its front segment against everyone else's marginal value
//!   and delivers exactly the part that pays.

use gm_des::{SimDuration, SimTime};
use gm_optimal::{SlaCurve, VcgSlaPolicy};
use gm_tycoon::{HostSpec, UserId};
use gridmarket::grid::AgentConfig;
use gridmarket::sched::{jain_fairness, AllocationPolicy, JobRequest, PolicyDriver, RunResult};
use gridmarket::tycoon_policy;

use crate::Scale;

/// One policy's scorecard on the shared SLA workload.
#[derive(Clone, Debug)]
pub struct PolicyWelfare {
    /// Policy name (driver-registered).
    pub policy: &'static str,
    /// Realized welfare (Σ per-job on-time value).
    pub welfare: f64,
    /// Provider revenue (Σ per-job cost).
    pub revenue: f64,
    /// Jain fairness over average node allocations.
    pub fairness: f64,
    /// Jobs finished within the horizon.
    pub finished: usize,
}

/// Structured result of the comparison.
#[derive(Clone, Debug)]
pub struct VcgComparison {
    /// Per-policy scorecards, VCG first.
    pub rows: Vec<PolicyWelfare>,
    /// Rendered report.
    pub rendered: String,
}

impl VcgComparison {
    /// Look up one policy's row.
    pub fn row(&self, policy: &str) -> Option<&PolicyWelfare> {
        self.rows.iter().find(|r| r.policy == policy)
    }
}

/// The id of the oversized front-loaded job (the one with a registered
/// SLA curve).
const SWEEP_JOB: u32 = 6;

/// The shared SLA job stream: cheap-first arrivals, 2× overload, one
/// impossible-deadline job with front-loaded value.
fn sla_stream(hosts: u32) -> Vec<JobRequest> {
    // Scale demand with the host count so Quick and Paper scale see the
    // same ~2× overload shape.
    let unit = f64::from(hosts) / 4.0;
    let mut jobs: Vec<JobRequest> = (0..6)
        .map(|i| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: 4,
            work_per_subjob: 2.0e6 * unit,
            arrival: SimTime::ZERO + SimDuration::from_secs(30 * u64::from(i)),
            budget: if i < 2 { 10.0 } else { 200.0 },
            deadline_secs: 1800.0,
        })
        .collect();
    jobs.push(JobRequest {
        id: SWEEP_JOB,
        user: UserId(SWEEP_JOB + 1),
        subjobs: 8,
        work_per_subjob: 7.5e6 * unit,
        arrival: SimTime::ZERO + SimDuration::from_secs(180),
        budget: 300.0,
        deadline_secs: 1800.0,
    });
    jobs
}

/// The curve of the oversized job: its first third carries 80 % of the
/// value (a sweep whose early results are the science).
fn sweep_curve(jobs: &[JobRequest]) -> SlaCurve {
    let big = &jobs[SWEEP_JOB as usize];
    SlaCurve::front_loaded(big.total_work(), big.budget, 1.0 / 3.0, 0.8)
}

/// Drive `policy` over `jobs` on `hosts` for the comparison's 3 h.
fn drive(hosts: &[HostSpec], jobs: &[JobRequest], policy: &mut dyn AllocationPolicy) -> RunResult {
    PolicyDriver::new(hosts.to_vec(), 10.0)
        .horizon(SimTime::ZERO + SimDuration::from_secs(3 * 3600))
        .run(policy, jobs)
        .expect("valid SLA job stream")
}

fn score(policy: &'static str, r: &RunResult) -> PolicyWelfare {
    let nodes: Vec<f64> = r.outcomes.iter().map(|o| o.avg_nodes).collect();
    PolicyWelfare {
        policy,
        welfare: r.welfare(),
        revenue: r.revenue(),
        fairness: jain_fairness(&nodes),
        finished: r.outcomes.iter().filter(|o| o.finished_at.is_some()).count(),
    }
}

/// Run the comparison at the historical seed.
pub fn run(scale: Scale) -> VcgComparison {
    run_seeded(scale, 0x5C6)
}

/// [`run`] with an explicit seed (Monte-Carlo entry point). The seed
/// keys the Tycoon market and the VCG settlement bank; the job stream
/// is fixed, so the experimental variable stays the policy.
pub fn run_seeded(scale: Scale, seed: u64) -> VcgComparison {
    let n_hosts = match scale {
        Scale::Paper => 8,
        Scale::Quick => 4,
    };
    let hosts: Vec<HostSpec> = (0..n_hosts).map(HostSpec::testbed).collect();
    let jobs = sla_stream(n_hosts);
    let mut vcg = VcgSlaPolicy::new(seed).with_curve(SWEEP_JOB, sweep_curve(&jobs));
    let mut tycoon = tycoon_policy(seed, &hosts, AgentConfig::default(), None, |_| {});
    let mut rows = vec![
        score("vcg", &drive(&hosts, &jobs, &mut vcg)),
        score("tycoon", &drive(&hosts, &jobs, &mut tycoon)),
    ];
    for name in ["fifo", "share", "gcommerce", "wta"] {
        rows.push(score(name, &drive(&hosts, &jobs, crate::mc::baseline_policy(name, seed).as_mut())));
    }

    let mut rendered = String::from(
        "Extension: optimization tier (VCG welfare LP) vs market and queue tiers\n\
         identical SLA workload: 2x overload, cheap-first arrivals, one front-loaded sweep job\n",
    );
    rendered.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>10} {:>9}\n",
        "policy", "welfare", "revenue", "fairness", "finished"
    ));
    for r in &rows {
        rendered.push_str(&format!(
            "{:<12} {:>10.2} {:>10.2} {:>10.3} {:>9}\n",
            r.policy, r.welfare, r.revenue, r.fairness, r.finished
        ));
    }
    rendered.push_str(
        "(welfare = shared on-time value model; the LP earns partial credit on the\n \
         sweep job's front segment, all-or-nothing allocators cannot)\n",
    );
    VcgComparison { rows, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcg_welfare_dominates_every_other_policy() {
        let c = run(Scale::Quick);
        let vcg = c.row("vcg").expect("vcg row").welfare;
        for r in &c.rows {
            assert!(
                vcg >= r.welfare - 1e-9,
                "vcg welfare {vcg:.2} below {} welfare {:.2}\n{}",
                r.policy,
                r.welfare,
                c.rendered
            );
        }
        assert!(vcg > 0.0, "vcg must realize positive welfare\n{}", c.rendered);
    }

    #[test]
    fn comparison_covers_all_six_policies_and_is_seeded() {
        let c = run(Scale::Quick);
        let names: Vec<&str> = c.rows.iter().map(|r| r.policy).collect();
        assert_eq!(names, ["vcg", "tycoon", "fifo", "share", "gcommerce", "wta"]);
        let again = run(Scale::Quick);
        for (a, b) in c.rows.iter().zip(&again.rows) {
            assert_eq!(a.welfare.to_bits(), b.welfare.to_bits(), "{}", a.policy);
            assert_eq!(a.revenue.to_bits(), b.revenue.to_bits(), "{}", a.policy);
        }
    }

    /// Pins the deadline-pacing finding at the scale `--bin vcg` prints:
    /// the Tycoon agent paces each of the six feasible jobs to finish
    /// 30–150 s past its 1,800 s deadline, so none earns on-time value
    /// and the row's welfare is 0. A pacing fix moves these on purpose.
    #[test]
    fn tycoon_finishes_every_feasible_job_just_past_its_deadline() {
        let hosts: Vec<HostSpec> = (0..4).map(HostSpec::testbed).collect();
        let jobs = sla_stream(4);
        let mut tycoon = tycoon_policy(0x5C6, &hosts, AgentConfig::default(), None, |_| {});
        let r = drive(&hosts, &jobs, &mut tycoon);
        // Outcomes come back in job order; the sweep job (id 6) is last.
        let late: Vec<f64> = jobs[..6]
            .iter()
            .zip(&r.outcomes)
            .map(|(job, o)| {
                let at = o.finished_at.expect("every feasible job finishes");
                at.since(job.arrival).as_secs_f64() - job.deadline_secs
            })
            .collect();
        assert_eq!(late, [30.0, 40.0, 70.0, 100.0, 150.0, 120.0]);
        assert_eq!(r.welfare(), 0.0);
        assert_eq!(run(Scale::Quick).row("tycoon").expect("tycoon row").welfare, 0.0);
    }
}
