//! Extension: the gray-failure matrix (DESIGN.md §17).
//!
//! Every cell is a Monte-Carlo batch over seeds of one
//! *(policy × gray scenario)* pair. The columns are gray-fault worlds —
//! `none` (the control: bank chaos only), `slowdown` (hosts silently
//! delivering a fraction of what they charge for), `stall`
//! (self-expiring zero-progress windows) and `flapping` (hosts cycling
//! between degraded and nominal rate). The rows are the six chaos-sweep
//! policies plus `tycoon_nospec` — the identical Tycoon agent with
//! health scoring and speculative re-dispatch switched off — so the
//! matrix isolates exactly what the gray-resilience layer buys.
//!
//! The CI gate ([`check`]: `mc gray --check`, `just gray-matrix`) demands: zero
//! quarantined runs, money conserved to an exactly-zero residual in
//! every banked cell (twin cancellation refunds escrow exactly once,
//! bank outages included), the `none` column bit-identical between
//! `tycoon` and `tycoon_nospec` (arming the subsystem must not perturb
//! gray-free runs), and speculation strictly reducing the honest
//! on-time miss rate on at least two gray scenarios.

use gm_des::{FaultMix, SimDuration};
use gm_grid::{AgentConfig, SpeculationConfig};
use gm_tycoon::HealthConfig;
use gridmarket::{chaos_scenario_with, ChaosConfig};

use crate::matrix::{Column, Layout, Matrix, MatrixReport, Rows};
use crate::mc::{chaos_cell, McArgs};

/// The policy roster of the matrix, report order. `tycoon` runs the
/// default agent (health scoring + speculation armed); `tycoon_nospec`
/// is the same agent with the gray-resilience layer off.
pub const GRAY_POLICIES: [&str; 7] =
    ["tycoon", "tycoon_nospec", "vcg", "fifo", "share", "gcommerce", "wta"];

/// The gray-scenario columns, report order. `none` is the control.
pub const GRAY_SCENARIOS: [&str; 4] = ["none", "slowdown", "stall", "flapping"];

/// The chaos world of one gray column. The shared base keeps the bank
/// chaos (one outage + one journaled restart per run — the conservation
/// stress the twin-refund path must survive) but drops binary host
/// faults, so delivered-rate degradation is the only thing separating
/// the columns. Gray faults are *chronic* — 60-minute windows at a few
/// percent delivered rate against a 75-minute deadline — because an
/// absorbable fault measures nothing: with enough slack every policy
/// ties at zero misses, and the column cannot separate a mitigation
/// from a no-op.
pub fn gray_cfg(scenario: &str) -> ChaosConfig {
    let base = ChaosConfig {
        deadline_minutes: 75,
        horizon_hours: 2,
        ..ChaosConfig::default()
    };
    let none = FaultMix {
        crashes: 0,
        vm_failures: 0,
        link_outages: 0,
        ..base.mix
    };
    let mix = match scenario {
        "none" => none,
        "slowdown" => FaultMix {
            slowdowns: 3,
            slowdown_len: SimDuration::from_minutes(60),
            slowdown_min_permille: 10,
            slowdown_max_permille: 80,
            ..none
        },
        "stall" => FaultMix {
            stalls: 3,
            stall_len: SimDuration::from_minutes(60),
            ..none
        },
        "flapping" => FaultMix {
            flapping_hosts: 3,
            flap_cycles: 3,
            flap_period: SimDuration::from_minutes(30),
            slowdown_min_permille: 10,
            slowdown_max_permille: 80,
            ..none
        },
        other => unreachable!("unknown gray scenario {other}"),
    };
    ChaosConfig { mix, ..base }
}

/// The `tycoon_nospec` agent: health scoring and speculation off,
/// everything else the default.
pub fn nospec_agent() -> AgentConfig {
    AgentConfig {
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        speculation: SpeculationConfig { enabled: false },
        ..AgentConfig::default()
    }
}

/// One (seed × policy × scenario) cell: the named metric row. The
/// Tycoon rows panic (→ quarantine) on a conservation residual that is
/// not *exactly* zero ([`gridmarket::chaos_scenario`]): the gray matrix
/// holds twin-escrow refunds to the same fixed-point exactness as every
/// other settlement path.
fn gray_cell(policy: &'static str, scenario: &'static str, seed: u64) -> Rows {
    let cfg = gray_cfg(scenario);
    match policy {
        "tycoon_nospec" => chaos_scenario_with(seed, &cfg, nospec_agent()).rows(),
        other => chaos_cell(other, seed, &cfg),
    }
}

/// The table: the mean of each column per cell.
const TABLE: [Column; 6] = [
    Column::fixed("miss", "deadline_miss_rate", 7, 3),
    Column::fixed("ontime", "ontime_miss_rate", 8, 3),
    Column::fixed("welfare", "welfare", 9, 2),
    Column::fixed("makespan", "makespan_hours", 9, 3),
    Column::fixed("redisp", "redispatched", 10, 2),
    Column::exp("residual", "conservation_residual", 9, 2),
];

/// Run a sub-matrix: `policies × scenarios`.
pub fn matrix_with(args: McArgs, policies: &[&'static str], scenarios: &[&'static str]) -> MatrixReport {
    let base = gray_cfg("none");
    Matrix {
        title: "Gray-failure matrix",
        world: format!(
            "world: {} hosts, {} users x {} credits, {}-min deadline, bank chaos on\n\
             tycoon = health + speculation armed (DESIGN.md \u{a7}17), tycoon_nospec = layer off\n",
            base.hosts, base.users, base.funding, base.deadline_minutes
        ),
        rows: policies,
        cols: scenarios,
        cell: gray_cell,
        layout: Layout::Table { head: "scenario", width: 10, metrics: &TABLE },
    }
    .run(args)
}

/// The full gray matrix: every policy row against every gray-scenario
/// column (`mc gray`, `just gray-matrix`).
pub fn matrix(args: McArgs) -> MatrixReport {
    matrix_with(args, &GRAY_POLICIES, &GRAY_SCENARIOS)
}

/// Gray scenarios where speculation *measurably* helps: the armed
/// agent's mean on-time miss rate is strictly below the speculation-off
/// agent's on the same seeds.
pub fn speculation_wins(m: &MatrixReport) -> Vec<&'static str> {
    GRAY_SCENARIOS
        .into_iter()
        .filter(|&s| s != "none" && m.beats("tycoon", "tycoon_nospec", s, "ontime_miss_rate"))
        .collect()
}

/// Conservation gate: every banked cell (the Tycoon family and the VCG
/// tier) holds `|minted − money|` to an exactly-zero maximum across all
/// seeds — twin cancellation refunds escrow exactly once, bank outages
/// and journaled restarts included.
pub fn conservation_ok(m: &MatrixReport) -> bool {
    m.zero_max(&["tycoon", "tycoon_nospec", "vcg"], "conservation_residual")
}

/// The gray matrix's `--check` gate: zero quarantined runs, money
/// conserved exactly in every banked cell, the gray-free control column
/// bit-identical between the armed and the speculation-off agent
/// (arming the subsystem must not perturb gray-free runs), and
/// speculation winning on at least two gray scenarios. `Ok` carries the
/// success line, `Err` the failure line.
pub fn check(m: &MatrixReport, args: &McArgs) -> Result<String, String> {
    let quarantined = m.total_quarantined();
    let wins = speculation_wins(m);
    let parity = m.rows_identical("tycoon", "tycoon_nospec", "none");
    let conserved = conservation_ok(m);
    if quarantined != 0 || wins.len() < 2 || !parity || !conserved {
        return Err(format!(
            "gray --check FAILED: {quarantined} quarantined runs, \
             speculation wins {wins:?} (need >= 2), none-column parity \
             {parity}, conservation {conserved}"
        ));
    }
    Ok(format!(
        "gray --check OK: {} seeds x {} cells, 0 quarantined, money \
         conserved exactly, gray-free column bit-identical armed vs \
         off, speculation wins: {wins:?}",
        args.seeds,
        m.cells.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> McArgs {
        McArgs { seeds: 4, base_seed: 0x6EA7, threads: 4 }
    }

    /// The armed-vs-off duel behind the acceptance criterion, small
    /// enough for the test suite.
    fn duel(scenarios: &[&'static str]) -> MatrixReport {
        matrix_with(tiny(), &["tycoon", "tycoon_nospec"], scenarios)
    }

    #[test]
    fn speculation_cuts_ontime_misses_under_gray_faults() {
        let m = duel(&GRAY_SCENARIOS);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        assert!(conservation_ok(&m), "{}", m.rendered);
        let wins = speculation_wins(&m);
        assert!(
            wins.len() >= 2,
            "speculation must strictly cut the on-time miss rate on >= 2 \
             gray scenarios, got {wins:?}\n{}",
            m.rendered
        );
    }

    #[test]
    fn gray_free_column_is_bit_identical_with_subsystem_armed() {
        let m = duel(&["none"]);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        assert!(
            m.rows_identical("tycoon", "tycoon_nospec", "none"),
            "arming health + speculation must not perturb gray-free runs\n{}",
            m.rendered
        );
    }

    #[test]
    fn matrix_is_deterministic_across_thread_counts() {
        let scenarios = ["none", "slowdown"];
        let a = matrix_with(McArgs { threads: 1, ..tiny() }, &["tycoon", "fifo"], &scenarios);
        let b = matrix_with(McArgs { threads: 4, ..tiny() }, &["tycoon", "fifo"], &scenarios);
        assert_eq!(a.body(), b.body());
    }

    #[test]
    fn every_policy_survives_every_gray_scenario() {
        // One seed across the full roster: no policy may crash or leak
        // money when gray faults hit it.
        let args = McArgs { seeds: 1, ..tiny() };
        let m = matrix(args);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        assert_eq!(m.cells.len(), GRAY_POLICIES.len() * GRAY_SCENARIOS.len());
        assert!(conservation_ok(&m), "{}", m.rendered);
        for c in &m.cells {
            assert_eq!(c.report.completed, 1, "cell {}/{}", c.row, c.col);
            assert!(c.report.metric("deadline_miss_rate").is_some());
        }
        m.assert_golden("gray");
    }
}
