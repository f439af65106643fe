//! Monte-Carlo chaos scenarios over the full market stack.
//!
//! This is the glue between the generic scenario runner
//! ([`gm_core::MonteCarlo`], DESIGN.md §13) and the paper's end-to-end
//! [`Scenario`]: one seed deterministically derives a whole world — host
//! jitter, a randomly generated [`FaultPlan`] (crashes, VM failures,
//! bank outages and restarts, link outages), and the market run itself — and the
//! extracted [`ChaosMetrics`] feed the Student-t robustness report.
//!
//! The division of labour: [`chaos_scenario`] is the pure
//! `seed → metrics` function handed to [`MonteCarlo::run`]; a scenario
//! that fails its internal invariants (a `GridError`, a conservation or
//! recovery-invariant violation) **panics**, which the runner quarantines
//! as a [`gm_core::ScenarioFailure`] carrying the seed — exactly the
//! replay key `examples/crash_matrix.rs` and `just mc-chaos` print.

use gm_core::{jain_fairness, price_volatility, MonteCarlo};
use gm_des::{FaultGenConfig, FaultMix, FaultPlan, SimDuration, SimTime};

use crate::grid::AgentConfig;
use crate::scenario::{Scenario, ScenarioResult};

/// Knobs of one randomized chaos world. Everything is derived
/// deterministically from the scenario seed; the config only sets the
/// *distribution* shared by every seed in a batch.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Testbed hosts.
    pub hosts: u32,
    /// Competing users (equal funding — Table 1's symmetric setup).
    pub users: u32,
    /// Per-user token funding in credits.
    pub funding: f64,
    /// Sub-jobs per job in the job stream the baselines, the VCG tier
    /// and the attack cells run (`gm_experiments::mc::job_stream`). The
    /// Tycoon world of [`ChaosConfig::scenario`] does not read it: its
    /// users keep the `UserSetup` default of 15 sub-jobs.
    pub subjobs: u32,
    /// Minutes per chunk at a full vCPU.
    pub chunk_minutes: f64,
    /// Job deadline in minutes.
    pub deadline_minutes: u64,
    /// Simulation horizon in hours.
    pub horizon_hours: u64,
    /// Per-host capacity jitter in `[0, 1)`.
    pub heterogeneity: f64,
    /// The fault classes each seed's plan draws, their counts and
    /// lengths ([`ChaosConfig::fault_gen`] adds the hosts and horizon).
    pub mix: FaultMix,
}

impl Default for ChaosConfig {
    /// A small-but-real world: every binary fault class fires (crashes,
    /// VM failures, a bank outage and restart, a link outage), and runs
    /// stay under ~50 ms each so thousand-seed sweeps finish in seconds.
    fn default() -> ChaosConfig {
        ChaosConfig {
            hosts: 6,
            users: 3,
            funding: 80.0,
            subjobs: 4,
            chunk_minutes: 10.0,
            deadline_minutes: 180,
            horizon_hours: 12,
            heterogeneity: 0.1,
            mix: FaultMix {
                mean_downtime: SimDuration::from_minutes(20),
                vm_failures: 1,
                bank_restarts: 1,
                link_outages: 1,
                ..FaultMix::default()
            },
        }
    }
}

impl ChaosConfig {
    /// The fault-schedule distribution this config induces. Faults are
    /// confined to the first half of the horizon so recovery has room to
    /// finish before the run is scored.
    pub fn fault_gen(&self) -> FaultGenConfig {
        FaultGenConfig {
            hosts: self.hosts,
            horizon: SimTime::ZERO + SimDuration::from_hours(self.horizon_hours) / 2,
            mix: self.mix,
        }
    }

    /// The scenario for `seed`: the seed's jittered hosts and generated
    /// fault plan, and `users` equally funded users, each with the
    /// `UserSetup` default of 15 sub-jobs (not [`ChaosConfig::subjobs`]).
    /// [`Scenario::build`] assembles it; [`Scenario::run`] runs it.
    pub fn scenario(&self, seed: u64) -> Scenario {
        Scenario::builder()
            .seed(seed)
            .hosts(self.hosts)
            .equal_users(self.users, self.funding)
            .chunk_minutes(self.chunk_minutes)
            .deadline_minutes(self.deadline_minutes)
            .horizon_hours(self.horizon_hours)
            .heterogeneity(self.heterogeneity)
            .faults(FaultPlan::generate(seed, self.fault_gen()))
    }
}

/// The robustness metrics extracted from one chaos run — the columns of
/// the Monte-Carlo report.
#[derive(Clone, Copy, Debug)]
pub struct ChaosMetrics {
    /// `|total_minted − total_money|` at the end of the run; the
    /// conservation invariant says this is exactly 0.
    pub conservation_residual: f64,
    /// Jain fairness index over the users' average node allocations.
    pub fairness: f64,
    /// Mean per-host spot-price coefficient of variation.
    pub volatility: f64,
    /// Fraction of users whose job did not finish.
    pub deadline_miss_rate: f64,
    /// Fraction of users whose job did not finish *within its deadline*
    /// — the honest-miss column the gray-matrix speculation gate
    /// compares (completion after the deadline still counts as a miss
    /// here, unlike [`ChaosMetrics::deadline_miss_rate`]).
    pub ontime_miss_rate: f64,
    /// Sub-jobs interrupted by faults and successfully re-dispatched.
    pub redispatched: f64,
    /// Jobs stalled after exhausting the fault retry budget.
    pub stalled_jobs: f64,
    /// Fault events delivered from the generated schedule.
    pub faults_injected: f64,
    /// Simulated hours until the last job settled: the largest user
    /// makespan, with an unfinished job counted to the end of the run.
    /// The same quantity the baseline rows report
    /// (`RunResult::batch_makespan_secs`), so the column compares across
    /// policies.
    pub makespan_hours: f64,
    /// Realized social welfare under the suite's shared value model
    /// (DESIGN.md §14): Σ funding over users whose job finished within
    /// its deadline — the same all-or-nothing on-time value
    /// [`gm_core::workload::on_time_value`] awards, so the column is
    /// directly comparable across Tycoon, the baselines and the VCG
    /// tier.
    pub welfare: f64,
    /// Provider revenue: total credits charged across users.
    pub revenue: f64,
}

impl ChaosMetrics {
    /// Extract the metric columns from a finished scenario.
    /// `deadline_minutes` is the job deadline the run was configured
    /// with (`0` = no deadline); it scopes the welfare column to
    /// on-time completions.
    pub fn of(r: &ScenarioResult, deadline_minutes: u64) -> ChaosMetrics {
        let nodes: Vec<f64> = r.users.iter().map(|u| u.avg_nodes).collect();
        let mut vols: Vec<f64> = Vec::new();
        for (_, series) in r.price_trace.iter() {
            if let Some(v) = price_volatility(series.values()) {
                vols.push(v);
            }
        }
        let volatility = if vols.is_empty() {
            0.0
        } else {
            vols.iter().sum::<f64>() / vols.len() as f64
        };
        let missed = r.users.iter().filter(|u| u.completed_subjobs < u.subjobs).count();
        let deadline_hours = deadline_minutes as f64 / 60.0;
        let on_time = |u: &&crate::scenario::UserReport| {
            u.phase == crate::grid::JobPhase::Done
                && (deadline_minutes == 0 || u.time_hours <= deadline_hours + 1e-9)
        };
        let ontime_missed = r.users.len() - r.users.iter().filter(on_time).count();
        let welfare = r.users.iter().filter(on_time).map(|u| u.funding).sum();
        let revenue = r.users.iter().map(|u| u.charged).sum();
        ChaosMetrics {
            conservation_residual: (r.total_minted - r.total_money).abs(),
            fairness: jain_fairness(&nodes),
            volatility,
            deadline_miss_rate: missed as f64 / r.users.len().max(1) as f64,
            ontime_miss_rate: ontime_missed as f64 / r.users.len().max(1) as f64,
            redispatched: r.fault_counters.redispatched as f64,
            stalled_jobs: r.fault_counters.jobs_stalled_by_faults as f64,
            faults_injected: r.faults_injected as f64,
            makespan_hours: r.users.iter().map(|u| u.time_hours).fold(0.0, f64::max),
            welfare,
            revenue,
        }
    }

    /// The named metric row handed to [`gm_core::McBatch::report`].
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("conservation_residual", self.conservation_residual),
            ("fairness", self.fairness),
            ("volatility", self.volatility),
            ("deadline_miss_rate", self.deadline_miss_rate),
            ("ontime_miss_rate", self.ontime_miss_rate),
            ("redispatched", self.redispatched),
            ("stalled_jobs", self.stalled_jobs),
            ("faults_injected", self.faults_injected),
            ("makespan_hours", self.makespan_hours),
            ("welfare", self.welfare),
            ("revenue", self.revenue),
        ]
    }
}

/// Run one chaos world to completion and score it: the pure
/// `seed → metrics` function behind every Monte-Carlo batch.
///
/// # Panics
/// Panics (→ quarantine with this seed as the replay key) when the run
/// errors out or violates a safety invariant: a [`crate::grid::GridError`],
/// a recovery-bookkeeping violation, or a conservation residual that is
/// not exactly zero (every settlement is fixed-point). Deadline misses
/// and stalls are *metrics*, not panics — liveness degradation under
/// chaos is data.
pub fn chaos_scenario(seed: u64, cfg: &ChaosConfig) -> ChaosMetrics {
    chaos_scenario_with(seed, cfg, AgentConfig::default())
}

/// [`chaos_scenario`] with the Tycoon agent overridden — e.g. the gray
/// matrix's speculation-off control row. Same panics.
pub fn chaos_scenario_with(seed: u64, cfg: &ChaosConfig, agent: AgentConfig) -> ChaosMetrics {
    let result = match cfg.scenario(seed).agent(agent).run() {
        Ok(r) => r,
        Err(e) => panic!("grid error under chaos (seed {seed:#x}): {e}"),
    };
    assert!(
        result.recovery_invariant_ok,
        "recovery invariant violated (seed {seed:#x}): a sub-job was both completed and re-dispatched"
    );
    let m = ChaosMetrics::of(&result, cfg.deadline_minutes);
    assert!(
        m.conservation_residual == 0.0,
        "money not conserved (seed {seed:#x}): residual {}",
        m.conservation_residual
    );
    m
}

/// A [`MonteCarlo`] runner pre-configured for chaos sweeps: replay hints
/// point at `examples/crash_matrix.rs`, which accepts explicit seeds.
pub fn chaos_runner(threads: usize) -> MonteCarlo {
    MonteCarlo::new(threads)
        .replay_hint("replay: cargo run --release --example crash_matrix -- {seed}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_seed_is_deterministic() {
        let cfg = ChaosConfig::default();
        let a = chaos_scenario(0xC0A0, &cfg);
        let b = chaos_scenario(0xC0A0, &cfg);
        assert_eq!(a.rows(), b.rows(), "same seed must give identical metrics");
        assert!(a.faults_injected > 0.0, "the generated plan must fire");
    }

    #[test]
    fn makespan_is_the_last_jobs_not_the_runs_end() {
        // Faults reach hours past the jobs in the default world, so the
        // run's end clock would overstate the makespan several times.
        let cfg = ChaosConfig::default();
        let r = cfg.scenario(0xC0A0).run().expect("chaos scenario runs");
        let m = ChaosMetrics::of(&r, cfg.deadline_minutes);
        let last_job = r.users.iter().map(|u| u.time_hours).fold(0.0, f64::max);
        assert_eq!(m.makespan_hours, last_job);
        assert!(m.makespan_hours < r.finished_at.as_hours_f64());
    }

    #[test]
    fn chaos_batch_conserves_money_across_seeds() {
        let cfg = ChaosConfig::default();
        let mc = chaos_runner(2).batch(4);
        let seeds = gm_core::seed_stream(0xBEEF, 6);
        let batch = mc.run(&seeds, move |s| chaos_scenario(s, &cfg));
        assert_eq!(batch.completed().count(), 6, "no quarantines expected");
        let report = batch.report(|m| m.rows());
        let residual = report.metric("conservation_residual").unwrap();
        assert_eq!(residual.max, 0.0, "conservation residual must be exactly 0");
        assert!(report.metric("fairness").unwrap().mean > 0.3);
    }
}
