//! Scheduler shoot-out: the Tycoon grid market against the baselines the
//! paper discusses (§2.1, §6) — FIFO batch queue, equal share,
//! G-commerce commodity market and winner-takes-all auctions — on the
//! same bag-of-tasks workload — all six rows produced by the one shared
//! `PolicyDriver`, so the comparison is apples to apples by construction.
//!
//! ```sh
//! cargo run --release --example market_battle
//! ```

use gridmarket::baselines::{
    FifoPolicy, GCommercePolicy, Placement, Pricing, SharePolicy, WtaPolicy,
};
use gridmarket::des::SimTime;
use gridmarket::grid::AgentConfig;
use gridmarket::sched::{jain_fairness, AllocationPolicy, JobRequest, RunResult};
use gridmarket::tycoon::{HostSpec, UserId, DEFAULT_INTERVAL_SECS};
use gridmarket::{tycoon_policy, PolicyDriver};

fn main() {
    let hosts: Vec<HostSpec> = (0..6).map(HostSpec::testbed).collect();
    // Five jobs: two modest, three well-funded, mirroring Table 2.
    let fundings = [100.0, 100.0, 500.0, 500.0, 500.0];
    let jobs: Vec<JobRequest> = fundings
        .iter()
        .enumerate()
        .map(|(i, &budget)| JobRequest {
            id: i as u32,
            user: UserId(i as u32 + 1),
            subjobs: 4,
            work_per_subjob: 12.0 * 60.0 * 2910.0, // 12 min at a full vCPU
            arrival: SimTime::from_secs(30 * (i as u64 + 1)),
            budget,
            deadline_secs: 5400.0,
        })
        .collect();
    let drive = |policy: &mut dyn AllocationPolicy| -> RunResult {
        PolicyDriver::new(hosts.clone(), DEFAULT_INTERVAL_SECS)
            .horizon(SimTime::from_secs(8 * 3600))
            .run(policy, &jobs)
            .expect("valid jobs")
    };

    println!("scheduler          makespan(h)  unfinished  fairness(J)  price CoV");
    report("fifo-batch", &drive(&mut FifoPolicy::default()));
    report("equal-share", &drive(&mut SharePolicy::new(Placement::LeastLoaded)));
    report("round-robin", &drive(&mut SharePolicy::new(Placement::RoundRobin)));
    report("g-commerce", &drive(&mut GCommercePolicy::default()));
    report("winner-takes-all", &drive(&mut WtaPolicy::new(Pricing::FirstPrice)));

    // The Tycoon grid market — the same jobs, hosts and driver as every
    // baseline above.
    let mut tycoon = tycoon_policy(7, &hosts, AgentConfig::default(), None, |_| {});
    report("tycoon-market", &drive(&mut tycoon));

    println!("\n(fairness = Jain index over finished jobs; CoV = price coefficient of variation)");
}

fn report(name: &str, r: &RunResult) {
    let makespan = r.batch_makespan_secs() / 3600.0;
    let unfinished = r.outcomes.iter().filter(|o| o.finished_at.is_none()).count();
    let done: Vec<f64> = r
        .outcomes
        .iter()
        .map(|o| if o.finished_at.is_some() { 1.0 } else { 0.0 })
        .collect();
    let cov = r
        .price_volatility()
        .map(|c| format!("{c:>10.2}"))
        .unwrap_or_else(|| format!("{:>10}", "-"));
    println!(
        "{name:<18} {makespan:>11.2} {unfinished:>11} {:>12.3} {cov}",
        jain_fairness(&done)
    );
}
