//! Integration tests for the optimization tier (DESIGN.md §14): the
//! [`VcgSlaPolicy`] driven end-to-end through the unchanged
//! [`PolicyDriver`], under generated chaos fault plans, held to the
//! same invariants as the Tycoon stack — exact money conservation,
//! same-seed byte determinism, and welfare no worse than any baseline
//! on the shared SLA workload.

use gm_core::{JobRequest, PolicyDriver, RunResult};
use gm_des::{FaultGenConfig, FaultMix, FaultPlan, SimDuration, SimTime};
use gm_optimal::VcgSlaPolicy;
use gm_tycoon::{HostSpec, UserId};

fn hosts(n: u32) -> Vec<HostSpec> {
    (0..n).map(HostSpec::testbed).collect()
}

fn jobs() -> Vec<JobRequest> {
    (0..4)
        .map(|i| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: 4,
            work_per_subjob: 1.5e6,
            arrival: SimTime::ZERO + SimDuration::from_secs(30 * u64::from(i)),
            budget: 50.0 + 25.0 * f64::from(i),
            deadline_secs: 3600.0,
        })
        .collect()
}

fn chaos_plan(seed: u64, n_hosts: u32) -> FaultPlan {
    FaultPlan::generate(
        seed,
        FaultGenConfig {
            hosts: n_hosts,
            horizon: SimTime::ZERO + SimDuration::from_secs(3600),
            mix: FaultMix {
                crashes: 2,
                mean_downtime: SimDuration::from_secs(600),
                vm_failures: 1,
                bank_outages: 1,
                outage_len: SimDuration::from_secs(300),
                bank_restarts: 1,
                link_outages: 1,
                link_outage_len: SimDuration::from_secs(300),
                adversary_arrivals: 0,
                ..FaultMix::default()
            },
        },
    )
}

fn run_chaos(seed: u64) -> (RunResult, f64) {
    let mut policy = VcgSlaPolicy::new(seed);
    let r = PolicyDriver::new(hosts(4), 10.0)
        .horizon(SimTime::ZERO + SimDuration::from_secs(6 * 3600))
        .faults(chaos_plan(seed, 4))
        .run(&mut policy, &jobs())
        .expect("valid jobs");
    (r, policy.conservation_residual())
}

fn fingerprint(r: &RunResult) -> Vec<(u32, u64, u64, Option<u64>)> {
    r.outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                o.value.to_bits(),
                o.cost.to_bits(),
                o.finished_at.map(|t| t.as_micros()),
            )
        })
        .collect()
}

#[test]
fn vcg_under_chaos_conserves_money_exactly() {
    for seed in [1u64, 0xBEEF, 0xC4A05] {
        let (r, residual) = run_chaos(seed);
        assert_eq!(residual, 0.0, "seed {seed:#x}: conservation residual");
        for o in &r.outcomes {
            assert!(o.cost >= 0.0, "seed {seed:#x}: negative charge");
            assert!(
                o.cost <= o.value + 1e-6,
                "seed {seed:#x}: job {} charged {} above realized value {}",
                o.id,
                o.cost,
                o.value
            );
        }
    }
}

#[test]
fn vcg_chaos_runs_are_byte_deterministic() {
    for seed in [7u64, 0xD00D] {
        let (a, _) = run_chaos(seed);
        let (b, _) = run_chaos(seed);
        assert_eq!(fingerprint(&a), fingerprint(&b), "seed {seed:#x}");
        assert_eq!(
            a.price_history
                .iter()
                .map(|(_, p)| p.to_bits())
                .collect::<Vec<_>>(),
            b.price_history
                .iter()
                .map(|(_, p)| p.to_bits())
                .collect::<Vec<_>>(),
            "seed {seed:#x}: price history"
        );
    }
}

#[test]
fn vcg_welfare_is_no_worse_than_any_baseline_on_the_sla_workload() {
    // The full six-policy comparison on the shared SLA workload; the
    // experiment's own unit tests assert the same dominance at Quick
    // scale — this exercises it from the integration surface.
    let c = gm_experiments::ext_vcg::run(gm_experiments::Scale::Quick);
    let vcg = c.row("vcg").expect("vcg row");
    for row in &c.rows {
        assert!(
            vcg.welfare >= row.welfare - 1e-9,
            "vcg welfare {:.2} below {} welfare {:.2}\n{}",
            vcg.welfare,
            row.policy,
            row.welfare,
            c.rendered
        );
    }
    assert!(vcg.revenue >= 0.0 && vcg.welfare > 0.0);
}
