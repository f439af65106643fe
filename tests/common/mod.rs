//! Helpers shared by the policy-comparison suites (`policy_driver`,
//! `market_vs_baselines`): the host inventory, the standard comparison
//! workload and the shared driver call.

use gridmarket::des::SimTime;
use gridmarket::sched::{AllocationPolicy, JobRequest, PolicyDriver, RunResult};
use gridmarket::tycoon::{HostSpec, UserId, DEFAULT_INTERVAL_SECS};

/// `n` testbed hosts (dual-CPU).
pub fn hosts(n: u32) -> Vec<HostSpec> {
    (0..n).map(HostSpec::testbed).collect()
}

/// Four 3-subjob jobs, 10 CPU-minutes per subjob, staggered arrivals,
/// 2:1 budget split — the standard comparison workload.
pub fn workload() -> Vec<JobRequest> {
    (0..4)
        .map(|i| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: 3,
            work_per_subjob: 10.0 * 60.0 * 2910.0,
            arrival: SimTime::from_secs(30 * (i as u64 + 1)),
            budget: if i < 2 { 100.0 } else { 400.0 },
            deadline_secs: 3600.0,
        })
        .collect()
}

/// The shared tick loop every comparison goes through.
pub fn drive(
    policy: &mut dyn AllocationPolicy,
    hosts: &[HostSpec],
    jobs: &[JobRequest],
    horizon: SimTime,
) -> RunResult {
    PolicyDriver::new(hosts.to_vec(), DEFAULT_INTERVAL_SECS)
        .horizon(horizon)
        .run(policy, jobs)
        .expect("valid workload")
}
