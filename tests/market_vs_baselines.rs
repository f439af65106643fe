//! The Tycoon market against the baseline schedulers on shared workloads
//! (the comparisons the paper's related-work section argues, §6).
//!
//! Every policy — Tycoon included — runs through the one
//! [`PolicyDriver`], so all five see *identical* host inventories,
//! arrival streams, and clocks; the A/B numbers differ only because the
//! allocation policies differ.

mod common;

use common::{drive, hosts, workload};
use gm_baselines::{FifoPolicy, GCommercePolicy, Placement, Pricing, SharePolicy, WtaPolicy};
use gridmarket::des::SimTime;
use gridmarket::grid::AgentConfig;
use gridmarket::sched::{jain_fairness, JobRequest};
use gridmarket::tycoon_policy;
use gridmarket::tycoon::UserId;

/// Budgets are meaningless to administrative schedulers but decisive in
/// markets — the paper's core differentiation argument (§2.1).
#[test]
fn only_markets_differentiate_by_budget() {
    let hosts = hosts(3);
    let jobs = workload();
    let horizon = SimTime::from_secs(6 * 3600);

    // FIFO and equal share: poor and rich jobs with identical shapes get
    // statistically interchangeable treatment.
    let fifo = drive(&mut FifoPolicy::default(), &hosts, &jobs, horizon);
    let share = drive(&mut SharePolicy::new(Placement::LeastLoaded), &hosts, &jobs, horizon);
    for r in [&fifo, &share] {
        assert!(r.all_finished());
        for o in &r.outcomes {
            assert_eq!(o.cost, 0.0, "administrative scheduler must not charge");
        }
    }

    // The Tycoon market under the *same driver and workload*: richer
    // users pay real credits and obtain better latency.
    let mut ty = tycoon_policy(5, &hosts, AgentConfig::default(), None, |_| {});
    let market = drive(&mut ty, &hosts, &jobs, horizon);
    assert!(market.all_finished());
    for o in &market.outcomes {
        assert!(o.cost > 0.0, "the market charges for capacity");
    }
    let poor_time =
        (market.outcomes[0].makespan_secs + market.outcomes[1].makespan_secs) / 2.0;
    let rich_time =
        (market.outcomes[2].makespan_secs + market.outcomes[3].makespan_secs) / 2.0;
    assert!(
        rich_time <= poor_time,
        "market should favor funding: rich {rich_time:.0}s vs poor {poor_time:.0}s"
    );
}

/// Proportional share is fairer than winner-takes-all under contention
/// ("winner-takes-it-all auctions … leading to reduced fairness", §6).
#[test]
fn proportional_share_beats_wta_on_fairness() {
    let hosts = hosts(1);
    // Two long jobs, 3:1 budgets, horizon cut while both still want CPU.
    let jobs: Vec<JobRequest> = [(0u32, 300.0), (1u32, 100.0)]
        .iter()
        .map(|&(i, budget)| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: 2,
            work_per_subjob: 2_000.0 * 2910.0,
            arrival: SimTime::ZERO,
            budget,
            deadline_secs: 3600.0,
        })
        .collect();
    let horizon = SimTime::from_secs(1_500);

    let wta = drive(&mut WtaPolicy::new(Pricing::FirstPrice), &hosts, &jobs, horizon);
    // Capacity each job received (MHz·seconds), approximated as average
    // nodes × makespan × vCPU.
    let vcpu = hosts[0].vcpu_capacity_mhz();
    let caps_wta: Vec<f64> =
        wta.outcomes.iter().map(|o| o.avg_nodes * o.makespan_secs * vcpu).collect();
    let fairness_wta = jain_fairness(&caps_wta);

    // Tycoon on the same shape (stagger the arrivals as §5.2 does):
    // shares are proportional (3:1), so both users receive work —
    // fairness must be clearly higher.
    let jobs_ty: Vec<JobRequest> = [(0u32, 300.0), (1u32, 100.0)]
        .iter()
        .map(|&(i, budget)| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: 2,
            work_per_subjob: 40.0 * 60.0 * 2910.0,
            arrival: SimTime::from_secs(30 * (i as u64 + 1)),
            budget,
            deadline_secs: 3600.0,
        })
        .collect();
    let mut ty = tycoon_policy(11, &hosts, AgentConfig::default(), None, |_| {});
    let market = drive(&mut ty, &hosts, &jobs_ty, SimTime::from_secs(3600));
    let caps_market: Vec<f64> = market
        .outcomes
        .iter()
        .map(|o| o.avg_nodes * (o.makespan_secs / 3600.0).max(0.01))
        .collect();
    let fairness_market = jain_fairness(&caps_market);

    assert!(
        fairness_market > fairness_wta,
        "proportional share ({fairness_market:.3}) should be fairer than WTA ({fairness_wta:.3})"
    );
}

/// G-commerce's advertised advantage: posted-price markets show smoother
/// prices than burst auctions — and our simulation reproduces the
/// trade-off (bounded per-step movement).
#[test]
fn gcommerce_price_moves_are_bounded() {
    let hosts = hosts(2);
    let jobs = workload();
    let r = drive(&mut GCommercePolicy::default(), &hosts, &jobs, SimTime::from_secs(4 * 3600));
    assert!(r.price_history.len() > 10);
    for w in r.price_history.windows(2) {
        let ratio = w[1].1 / w[0].1;
        assert!((0.94..=1.06).contains(&ratio), "posted price jumped: {ratio}");
    }
}

/// Work conservation: the market never leaves hosts idle while jobs have
/// pending work and funds (the "agile reallocation … work conservation"
/// property of §6).
#[test]
fn market_is_work_conserving_under_load() {
    let hosts = hosts(2);
    let jobs: Vec<JobRequest> = (0..2)
        .map(|i| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: 4,
            work_per_subjob: 15.0 * 60.0 * 2910.0,
            arrival: SimTime::from_secs(30 * (i as u64 + 1)),
            budget: 200.0,
            deadline_secs: 90.0 * 60.0,
        })
        .collect();
    let mut ty = tycoon_policy(13, &hosts, AgentConfig::default(), None, |_| {});
    let r = drive(&mut ty, &hosts, &jobs, SimTime::from_secs(8 * 3600));
    assert!(r.all_finished());
    // 8 subjobs × 15 min = 2 CPU-hours on 4 vCPUs ⇒ ≥ 0.5 h lower bound;
    // with overheads the run must still finish within ~3× that.
    let makespan_h = r.batch_makespan_secs() / 3600.0;
    assert!(
        makespan_h < 1.5,
        "market wasted capacity: makespan {makespan_h:.2}h for 2 CPU-hours on 4 vCPUs"
    );
}
