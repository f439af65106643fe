//! Extension: the adversarial attack matrix (DESIGN.md §16).
//!
//! Every cell of the matrix is a Monte-Carlo batch over seeds of one
//! *(policy × strategy)* pair: the honest chaos job stream plus one
//! strategic cohort from [`crate::adversary`], both driven through the
//! unchanged [`PolicyDriver`](gridmarket::sched::PolicyDriver) so the
//! allocator is the only variable.
//! Tycoon appears twice — `tycoon` with the default guard layer
//! (rate limiter, price-band circuit breaker, quarantine) and
//! `tycoon_open` with the guard disabled — so the matrix separates what
//! the *market* absorbs from what the *defenses* absorb.
//!
//! Metrics are scored from the honest population's side of the run
//! (user ids below [`crate::adversary::ADVERSARY_USER_BASE`]): an attack that transfers
//! surplus from honest users to the cohort shows up as lost honest
//! welfare and degraded honest fairness even when aggregate numbers look
//! healthy. Volatility for the tycoon rows is computed over the
//! *published* price trace — the external signal the circuit breaker
//! actually defends; charging and allocation always see the raw spot.
//! All volatility rows use absolute σ, not relative CoV (see
//! `abs_sigma`).

use gm_des::rng::Pcg32;
use gm_des::{FaultMix, FaultPlan, SimDuration, SimTime};
use gm_tycoon::GuardConfig;
use gridmarket::sched::{jain_fairness, JobRequest, RunResult};
use gridmarket::telemetry::{ManualClock, Registry};
use gridmarket::grid::AgentConfig;
use gridmarket::{tycoon_policy, ChaosConfig};

use crate::adversary::{AdversaryInstruments, AttackContext, AttackKind};
use crate::matrix::{Column, Layout, Matrix, MatrixReport, Rows};
use crate::mc::{
    baseline_policy, baseline_run, chaos_driver, job_stream, work_per_subjob, McArgs,
};

/// Domain-separation salt for the strategy RNG: the cohort's random
/// draws must not correlate with the fault plan generated from the same
/// seed.
const ATTACK_SALT: u64 = 0xA77A_C0DE;

/// War-chest multiplier for the matrix: hostile budgets are sized at
/// `aggression × honest funding`, concentrated enough that the hoarding
/// and shill strategies cross the guard's 1 credit/s per-bid cap within
/// a few re-bid escalations.
const AGGRESSION: f64 = 8.0;

/// The policy roster of the matrix, report order. `tycoon` runs the
/// default guard; `tycoon_open` is the same market with defenses off.
pub const ATTACK_POLICIES: [&str; 7] =
    ["tycoon", "tycoon_open", "vcg", "fifo", "share", "gcommerce", "wta"];

/// The chaos world the matrix runs in: the default chaos distribution
/// plus two seeded adversary-cohort arrivals per run.
pub fn attack_cfg() -> ChaosConfig {
    let base = ChaosConfig::default();
    ChaosConfig {
        mix: FaultMix {
            adversary_arrivals: 2,
            ..base.mix
        },
        ..base
    }
}

/// The strategic cohort for `(kind, seed)`: context derived from the
/// chaos config, arrivals from the seed's fault plan, randomness from a
/// salted stream — byte-identical for every policy that faces it.
pub fn hostile_stream(kind: AttackKind, seed: u64, cfg: &ChaosConfig) -> Vec<JobRequest> {
    let plan = FaultPlan::generate(seed, cfg.fault_gen());
    // Unloaded honest batch makespan: each host runs its share of the
    // honest sub-jobs back to back at full speed. Strategies time their
    // strikes inside this window.
    let waves = (cfg.users * cfg.subjobs).div_ceil(cfg.hosts.max(1));
    let makespan = f64::from(waves) * cfg.chunk_minutes * 60.0;
    let ctx = AttackContext {
        hosts: cfg.hosts,
        honest_users: cfg.users,
        honest_funding: cfg.funding,
        honest_deadline_secs: cfg.deadline_minutes as f64 * 60.0,
        honest_makespan_secs: makespan,
        work_per_subjob: work_per_subjob(cfg),
        subjobs: cfg.subjobs,
        horizon: SimTime::ZERO + SimDuration::from_hours(cfg.horizon_hours),
        arrivals: AttackContext::arrivals_from(&plan),
        job_id_base: cfg.users,
        aggression: AGGRESSION,
    };
    kind.requests(&ctx, &mut Pcg32::seed_from_u64(seed ^ ATTACK_SALT))
}

/// Absolute price volatility: the plain standard deviation of a price
/// series in credits/second. Deliberately *not* the coefficient of
/// variation ([`gm_core::metrics::price_volatility`]): a sustained
/// attack inflates the mean price by orders of magnitude, which *lowers*
/// relative CoV and would score a price wall as "calmer" than an idle
/// market. Absolute σ scores exactly what the circuit breaker defends —
/// the size of excursions in the published signal.
fn abs_sigma(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    Some(var.sqrt())
}

/// Honest-side metric rows shared by every cell. The split keys on the
/// request id — honest requests occupy ids `0..users`, the cohort ids
/// start at `job_id_base = users` (the cohort's *user* ids start at
/// [`crate::adversary::ADVERSARY_USER_BASE`], but some policies renumber users internally
/// while every policy preserves request ids in its outcomes).
/// `volatility` is passed in because the tycoon rows score the published
/// price trace while the baselines score their own posted-price history.
fn honest_rows(r: &RunResult, honest_jobs: u32, volatility: f64) -> Vec<(&'static str, f64)> {
    let honest: Vec<_> = r.outcomes.iter().filter(|o| o.id < honest_jobs).collect();
    let missed = honest
        .iter()
        .filter(|o| o.finished_at.is_none() || o.value <= 0.0)
        .count();
    let adversary_nodes: f64 = r
        .outcomes
        .iter()
        .filter(|o| o.id >= honest_jobs)
        .map(|o| o.avg_nodes)
        .sum();
    // Fairness over the honest users' realized on-time *value* (equal
    // budgets, so this is value-per-credit). Node counts are blind here:
    // a starved job keeps its VMs attached (4 "nodes") while receiving
    // ~0 CPU share, so a Jain index over `avg_nodes` reads a total stall
    // as perfectly fair. And rate metrics (value per makespan second)
    // punish the *defended* market for staggered-but-successful
    // finishes. Realized value scores exactly what the user cares
    // about — who got what they paid for: everyone on time → 1.0, a
    // price wall that makes one user miss a deadline the others squeaked
    // past → 0.667 for three users.
    let realized: Vec<f64> = honest.iter().map(|o| o.value).collect();
    vec![
        ("fairness", jain_fairness(&realized)),
        ("honest_welfare", honest.iter().map(|o| o.value).sum()),
        (
            "honest_miss_rate",
            missed as f64 / honest.len().max(1) as f64,
        ),
        ("adversary_nodes", adversary_nodes),
        ("volatility", volatility),
        ("revenue", r.revenue()),
    ]
}

/// One tycoon cell: market + guard config, honest stream plus cohort,
/// scored from the honest side. Also the only cell with live telemetry —
/// the `adversary.*` cohort counters and the guard's own `market.guard.*`
/// counters ride the same registry.
fn tycoon_cell(kind: AttackKind, guard: GuardConfig, seed: u64, cfg: &ChaosConfig) -> Rows {
    let registry = Registry::new();
    let clock = ManualClock::new();
    let mut driver = chaos_driver(seed, cfg).with_registry(&registry);
    let mut policy = tycoon_policy(seed, driver.host_specs(), AgentConfig::default(), None, |market| {
        market.set_guard(guard);
        market.attach_telemetry(&registry, std::sync::Arc::new(clock.clone()));
    })
    .with_clock(clock);

    let mut jobs = job_stream(cfg);
    let cohort = hostile_stream(kind, seed, cfg);
    let pairs = if kind == AttackKind::ShillPair { cohort.len() / 3 } else { 0 };
    AdversaryInstruments::new(&registry).record_cohort(cohort.len(), pairs);
    jobs.extend(cohort);
    let r = driver.run(&mut policy, &jobs).expect("valid attack job stream");

    // Volatility over the *published* (breaker-damped) per-host price
    // trace — the signal external consumers actually see.
    let trace = policy.market().price_trace();
    let vols: Vec<f64> = trace.iter().filter_map(|(_, series)| abs_sigma(series.values())).collect();
    let volatility = if vols.is_empty() { 0.0 } else { vols.iter().sum::<f64>() / vols.len() as f64 };
    let audit = policy.market().audit_ledger();
    assert!(
        audit.ok(),
        "conservation violated under attack (seed {seed:#x}, strategy {}): {audit:?}",
        kind.name()
    );
    let quarantined = policy.market().guard().quarantined_accounts().len();
    let mut rows = vec![("quarantined", quarantined as f64)];
    rows.extend(honest_rows(&r, cfg.users, volatility));
    rows
}

/// One *(policy × strategy)* cell for one seed. A baseline runs the
/// identical honest + cohort stream through a guard-less policy tier.
fn attack_cell(policy: &'static str, strategy: &'static str, seed: u64) -> Rows {
    let kind = *AttackKind::ALL
        .iter()
        .find(|k| k.name() == strategy)
        .unwrap_or_else(|| unreachable!("unknown strategy {strategy}"));
    let cfg = attack_cfg();
    match policy {
        "tycoon" => tycoon_cell(kind, GuardConfig::default(), seed, &cfg),
        "tycoon_open" => tycoon_cell(kind, GuardConfig::disabled(), seed, &cfg),
        other => {
            let cohort = hostile_stream(kind, seed, &cfg);
            let r = baseline_run(baseline_policy(other, seed).as_mut(), seed, &cfg, cohort);
            let prices: Vec<f64> = r.price_history.iter().map(|(_, p)| *p).collect();
            honest_rows(&r, cfg.users, abs_sigma(&prices).unwrap_or(0.0))
        }
    }
}

/// The strategy columns, report order (the names of [`AttackKind::ALL`]).
pub fn strategies() -> Vec<&'static str> {
    AttackKind::ALL.iter().map(AttackKind::name).collect()
}

/// The honest-side table: the mean of each column per cell.
const TABLE: [Column; 5] = [
    Column::fixed("fairness", "fairness", 9, 3),
    Column::fixed("welfare", "honest_welfare", 11, 2),
    Column::fixed("miss", "honest_miss_rate", 9, 3),
    Column::fixed("volatility", "volatility", 10, 4),
    Column::fixed("advnodes", "adversary_nodes", 9, 3),
];

/// Run a sub-matrix: `policies × strategies` (strategy names, see
/// [`strategies`]).
pub fn matrix_with(args: McArgs, policies: &[&'static str], strategies: &[&'static str]) -> MatrixReport {
    let cfg = attack_cfg();
    Matrix {
        title: "Adversarial attack matrix",
        world: format!(
            "world: {} hosts, {} honest users x {} credits, aggression {}x, 2 cohort arrivals/run\n\
             tycoon = default guard (DESIGN.md \u{a7}16), tycoon_open = defenses disabled\n",
            cfg.hosts, cfg.users, cfg.funding, AGGRESSION
        ),
        rows: policies,
        cols: strategies,
        cell: attack_cell,
        layout: Layout::Table { head: "strategy", width: 18, metrics: &TABLE },
    }
    .run(args)
}

/// The full attack matrix: every policy row against every strategy
/// column (`mc attack`, `just attack-matrix`).
pub fn matrix(args: McArgs) -> MatrixReport {
    matrix_with(args, &ATTACK_POLICIES, &strategies())
}

/// Attack strategies where the guard layer *measurably* helps: the
/// defended tycoon shows strictly lower published-price volatility
/// **and** strictly smaller honest-fairness degradation (relative to
/// each market's own honest baseline) than the open market.
pub fn defense_wins(m: &MatrixReport) -> Vec<&'static str> {
    strategies()
        .into_iter()
        .filter(|&s| {
            // Fairness lost against the same market's honest column.
            let lost = |row| {
                Some(m.mean(row, "honest", "fairness").unwrap_or(1.0) - m.mean(row, s, "fairness")?)
            };
            s != "honest"
                && m.beats("tycoon", "tycoon_open", s, "volatility")
                && matches!((lost("tycoon"), lost("tycoon_open")), (Some(d), Some(o)) if d < o)
        })
        .collect()
}

/// The attack matrix's `--check` gate: zero quarantined runs, the honest
/// cohort scoring bit-identically with defenses on and off (every
/// metric's mean and max — the false-positive gate), and the guard
/// winning under at least two attack strategies. `Ok` carries the
/// success line, `Err` the failure line.
pub fn check(m: &MatrixReport, args: &McArgs) -> Result<String, String> {
    let quarantined = m.total_quarantined();
    let wins = defense_wins(m);
    let honest_gate = m.rows_identical("tycoon", "tycoon_open", "honest");
    if quarantined != 0 || wins.len() < 2 || !honest_gate {
        return Err(format!(
            "attack --check FAILED: {quarantined} quarantined runs, \
             defense wins {wins:?} (need >= 2), honest-cohort gate {honest_gate}"
        ));
    }
    Ok(format!(
        "attack --check OK: {} seeds x {} cells, 0 quarantined, \
         honest cohort bit-identical with defenses on/off, defense wins: {wins:?}",
        args.seeds,
        m.cells.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> McArgs {
        McArgs { seeds: 3, base_seed: 0xA77AC, threads: 4 }
    }

    /// The tycoon-only duel behind the acceptance criterion, small
    /// enough for the test suite.
    fn duel(strategies: &[&'static str]) -> MatrixReport {
        matrix_with(tiny(), &["tycoon", "tycoon_open"], &[&["honest"], strategies].concat())
    }

    #[test]
    fn defenses_reduce_volatility_and_fairness_degradation_under_attack() {
        let m = duel(&["budget_hoard", "shill_pair"]);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        let wins = defense_wins(&m);
        assert!(
            wins.contains(&"budget_hoard") && wins.contains(&"shill_pair"),
            "defenses must win on both attack strategies, got {wins:?}\n{}",
            m.rendered
        );
        // The attacks actually fire: the defended market quarantines the
        // hoarder and the shill while the open market lets them through,
        // and the welfare/deadline damage lands only on the open market.
        for s in ["budget_hoard", "shill_pair"] {
            assert!(
                m.mean("tycoon", s, "quarantined").unwrap_or(0.0) > 0.0,
                "guard must quarantine under {s}\n{}",
                m.rendered
            );
            assert_eq!(
                m.mean("tycoon_open", s, "quarantined"),
                Some(0.0),
                "open market never quarantines"
            );
            let welfare_def = m.mean("tycoon", s, "honest_welfare").unwrap_or(0.0);
            let welfare_open = m.mean("tycoon_open", s, "honest_welfare").unwrap_or(0.0);
            assert!(
                welfare_def > welfare_open,
                "defenses must preserve honest welfare under {s}: \
                 {welfare_def} vs {welfare_open}\n{}",
                m.rendered
            );
            let miss_def = m.mean("tycoon", s, "honest_miss_rate").unwrap_or(1.0);
            let miss_open = m.mean("tycoon_open", s, "honest_miss_rate").unwrap_or(0.0);
            assert!(
                miss_def < miss_open,
                "defenses must cut honest deadline misses under {s}: \
                 {miss_def} vs {miss_open}\n{}",
                m.rendered
            );
        }
    }

    #[test]
    fn honest_cohort_runs_identically_with_defenses_on_and_off() {
        // False-positive gate: with only honest bidders (including the
        // honest-baseline cohort), the guard's thresholds are never
        // reached and the defended market's metrics match the open
        // market's bit for bit.
        let m = duel(&[]);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        assert!(m.rows_identical("tycoon", "tycoon_open", "honest"), "{}", m.rendered);
        assert_eq!(m.mean("tycoon", "honest", "quarantined"), Some(0.0));
    }

    #[test]
    fn matrix_is_deterministic_across_thread_counts() {
        let strategies = ["honest", "zero_intelligence"];
        let a = matrix_with(McArgs { threads: 1, ..tiny() }, &["tycoon", "fifo"], &strategies);
        let b = matrix_with(McArgs { threads: 4, ..tiny() }, &["tycoon", "fifo"], &strategies);
        assert_eq!(a.body(), b.body());
    }

    #[test]
    fn every_policy_survives_every_strategy() {
        // One seed across the full roster: no policy may crash or leak
        // money when the hostile stream hits it.
        let args = McArgs { seeds: 1, ..tiny() };
        let m = matrix(args);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        assert_eq!(m.cells.len(), ATTACK_POLICIES.len() * AttackKind::ALL.len());
        for c in &m.cells {
            assert_eq!(c.report.completed, 1, "cell {}/{}", c.row, c.col);
            assert!(c.report.metric("fairness").is_some());
        }
        m.assert_golden("attack");
    }
}
