//! Monte-Carlo robustness experiments (DESIGN.md §13).
//!
//! Two entry points, both built on [`gridmarket::sched::MonteCarlo`]:
//!
//! * [`chaos`] — the 1000-seed chaos sweep behind `just mc-chaos`: every
//!   seed deterministically generates a random [`FaultPlan`] world and
//!   runs it through every allocation policy (Tycoon market, the VCG
//!   optimization tier and the four baselines) via the shared
//!   `PolicyDriver` (the Tycoon cell's jobs differ in sub-job count; see
//!   [`job_stream`]), then reports per-policy Student-t confidence
//!   intervals plus the quarantined failing seeds with replay hints. It
//!   is a one-column [`Matrix`]; the attack and gray matrices reuse its
//!   world ([`chaos_driver`]) and policy roster (`chaos_cell`).
//! * [`report`] — `just mc-report`: re-expresses the paper's figure
//!   experiments (Fig. 3–7, the funding sweep, the volatility
//!   comparison) as seeded Monte-Carlo batches, so each headline scalar
//!   ships with an interval instead of a single-seed point estimate.
//!
//! [`Cli`] is the one command-line parser of the `mc` binary, shared by
//! every mode.

use gm_baselines::{FifoPolicy, GCommercePolicy, Placement, Pricing, SharePolicy, WtaPolicy};
use gm_bio::workload::BioWorkload;
use gm_des::{FaultPlan, SimDuration, SimTime};
use gm_tycoon::UserId;
use gridmarket::sched::{seed_stream, AllocationPolicy, JobRequest, McReport, PolicyDriver, RunResult};
use gridmarket::{chaos_runner, chaos_scenario, ChaosConfig};

use crate::matrix::{Layout, Matrix, MatrixReport, Rows};
use crate::Scale;

/// Parameters of one Monte-Carlo sweep.
#[derive(Clone, Copy, Debug)]
pub struct McArgs {
    /// Number of scenario seeds.
    pub seeds: usize,
    /// Base seed the per-scenario seed stream is derived from.
    pub base_seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for McArgs {
    fn default() -> McArgs {
        McArgs {
            seeds: 64,
            base_seed: 0xC4A05,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }
}

/// What the `mc` binary runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The per-policy chaos sweep ([`chaos`]).
    Chaos,
    /// The adversarial attack matrix ([`crate::ext_attack::matrix`]).
    Attack,
    /// The gray-failure matrix ([`crate::ext_gray::matrix`]).
    Gray,
    /// The seeded figure report ([`report`]).
    Report,
}

/// A parsed `mc` command line.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// The mode (first positional argument; `chaos` when absent).
    pub mode: Mode,
    /// Seed count, base seed and threads.
    pub args: McArgs,
    /// `--check`: gate the matrix modes.
    pub check: bool,
    /// `--paper-scale` (alias `--paper`): the report at full §5 scale.
    pub scale: Scale,
}

/// Every mode by its command-line name.
const MODES: [(&str, Mode); 4] = [
    ("chaos", Mode::Chaos),
    ("attack", Mode::Attack),
    ("gray", Mode::Gray),
    ("report", Mode::Report),
];

/// The `mc` usage line.
pub const USAGE: &str = "usage: mc [chaos|attack|gray|report] [--seeds N] [--base-seed HEX] \
                         [--threads N] [--check] [--paper-scale]";

impl Cli {
    /// Parse the arguments after the program name. An unknown flag or
    /// mode, a missing or unparsable value, or a flag the mode does not
    /// use is an error, never silently ignored.
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        let mut mode = None;
        let mut cli = Cli { mode: Mode::Chaos, args: McArgs::default(), check: false, scale: Scale::Quick };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seeds" => cli.args.seeds = value(a, it.next())?,
                "--threads" => {
                    cli.args.threads = value(a, it.next())?;
                    if cli.args.threads == 0 {
                        return Err("--threads: need at least 1".to_owned());
                    }
                }
                "--base-seed" => {
                    let v: String = value(a, it.next())?;
                    cli.args.base_seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                        .map_err(|_| format!("--base-seed: cannot parse {v:?} as hex"))?;
                }
                "--check" => cli.check = true,
                "--paper" | "--paper-scale" => cli.scale = Scale::Paper,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                m if mode.is_none() => {
                    let found = MODES.iter().find(|(name, _)| *name == m);
                    mode = Some(found.ok_or_else(|| format!("unknown mode {m:?}"))?.1);
                }
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        cli.mode = mode.unwrap_or(Mode::Chaos);
        match (cli.mode == Mode::Report, cli.check, cli.scale == Scale::Paper) {
            (true, true, _) => Err("--check applies to chaos, attack and gray".to_owned()),
            (false, _, true) => Err("--paper-scale applies to report only".to_owned()),
            _ => Ok(cli),
        }
    }
}

/// The honest job stream of the bankless cells (VCG and the baselines)
/// and of every attack-matrix cell: one job per user with
/// `cfg.subjobs` sub-jobs, the 30 s stagger, and the chaos work, budget
/// and deadline. It is *not* the stream the Tycoon chaos and gray cells
/// run: [`ChaosConfig::scenario`] leaves every user at the `UserSetup`
/// default of 15 sub-jobs, while `cfg.subjobs` defaults to 4 (ROADMAP,
/// "`ChaosConfig.subjobs` is read by no chaos world", blocked).
pub fn job_stream(cfg: &ChaosConfig) -> Vec<JobRequest> {
    (0..cfg.users)
        .map(|i| JobRequest {
            id: i,
            user: UserId(i + 1),
            subjobs: cfg.subjobs,
            work_per_subjob: work_per_subjob(cfg),
            arrival: SimTime::ZERO + SimDuration::from_secs(30 * (u64::from(i) + 1)),
            budget: cfg.funding,
            deadline_secs: cfg.deadline_minutes as f64 * 60.0,
        })
        .collect()
}

/// Work per chaos sub-job (MHz·s): one `chunk_minutes` chunk at the
/// reference vCPU, the calibration [`ChaosConfig::scenario`] uses.
pub(crate) fn work_per_subjob(cfg: &ChaosConfig) -> f64 {
    let chunk = BioWorkload { chunk_minutes: cfg.chunk_minutes, ..BioWorkload::paper_default() };
    chunk.work_mhz_secs_per_subjob()
}

/// The seed's chaos world as a [`PolicyDriver`]: the seed's jittered
/// hardware, the config's horizon and the seed's generated fault plan —
/// the hosts, horizon and faults the Tycoon scenario sees. The jobs are
/// not the same: the Tycoon chaos cell runs 15 sub-jobs per user where
/// [`job_stream`] runs `cfg.subjobs`, so the policy is not the only
/// variable across a chaos-sweep row (see [`job_stream`]).
/// (Capacity-oblivious baselines ignore the delivered fault events by
/// design; the heterogeneity still gives every seed a distinct world.)
pub fn chaos_driver(seed: u64, cfg: &ChaosConfig) -> PolicyDriver {
    let hosts = gridmarket::scenario::jittered_hosts(seed, cfg.hosts, cfg.heterogeneity);
    PolicyDriver::new(hosts, 10.0)
        .horizon(SimTime::ZERO + SimDuration::from_hours(cfg.horizon_hours))
        .faults(FaultPlan::generate(seed, cfg.fault_gen()))
}

/// A bankless baseline or the VCG tier, by roster name.
pub(crate) fn baseline_policy(name: &str, seed: u64) -> Box<dyn AllocationPolicy + Send> {
    match name {
        "vcg" => Box::new(gm_optimal::VcgSlaPolicy::new(seed)),
        "fifo" => Box::new(FifoPolicy::default()),
        "share" => Box::new(SharePolicy::new(Placement::LeastLoaded)),
        "gcommerce" => Box::new(GCommercePolicy::default()),
        "wta" => Box::new(WtaPolicy::new(Pricing::FirstPrice)),
        other => unreachable!("unknown baseline policy {other}"),
    }
}

/// Run `policy` in the seed's chaos world over the honest
/// [`job_stream`] followed by `extra` jobs (e.g. an attack cohort).
pub(crate) fn baseline_run(
    policy: &mut dyn AllocationPolicy,
    seed: u64,
    cfg: &ChaosConfig,
    extra: Vec<JobRequest>,
) -> RunResult {
    let mut jobs = job_stream(cfg);
    jobs.extend(extra);
    chaos_driver(seed, cfg).run(policy, &jobs).expect("valid chaos job stream")
}

/// The metric row shared by every bankless policy (no conservation
/// column; the names must be identical across seeds, not across
/// policies). Welfare and revenue come from the shared value model
/// ([`gm_core::workload::on_time_value`]), so the columns compare
/// directly across every policy in the sweep.
fn baseline_rows(r: &RunResult) -> Rows {
    let nodes: Vec<f64> = r.outcomes.iter().map(|o| o.avg_nodes).collect();
    let missed = r.outcomes.iter().filter(|o| o.finished_at.is_none()).count();
    vec![
        ("fairness", gridmarket::sched::jain_fairness(&nodes)),
        ("volatility", r.price_volatility().unwrap_or(0.0)),
        (
            "deadline_miss_rate",
            missed as f64 / r.outcomes.len().max(1) as f64,
        ),
        ("makespan_hours", r.batch_makespan_secs() / 3600.0),
        ("welfare", r.welfare()),
        ("revenue", r.revenue()),
    ]
}

/// Run the VCG optimization tier under the seed's chaos world and score
/// it. Like [`chaos_scenario`], a conservation violation **panics** —
/// the VCG bank settles through the same journaled [`gm_tycoon::Bank`]
/// machinery, so the sweep holds it to the identical exactly-zero
/// residual invariant.
fn vcg_chaos_run(seed: u64, cfg: &ChaosConfig) -> Rows {
    let mut policy = gm_optimal::VcgSlaPolicy::new(seed);
    let r = baseline_run(&mut policy, seed, cfg, Vec::new());
    let residual = policy.conservation_residual();
    assert!(
        residual == 0.0,
        "money not conserved under VCG (seed {seed:#x}): residual {residual}"
    );
    let mut rows = vec![("conservation_residual", residual)];
    rows.extend(baseline_rows(&r));
    rows
}

/// The policy roster of the chaos sweep, in report order.
pub const CHAOS_POLICIES: [&str; 6] = ["tycoon", "vcg", "fifo", "share", "gcommerce", "wta"];

/// One (seed × policy) cell of the sweep: the named metric row.
pub(crate) fn chaos_cell(policy: &'static str, seed: u64, cfg: &ChaosConfig) -> Rows {
    match policy {
        "tycoon" => chaos_scenario(seed, cfg).rows(),
        "vcg" => vcg_chaos_run(seed, cfg),
        other => baseline_rows(&baseline_run(baseline_policy(other, seed).as_mut(), seed, cfg, Vec::new())),
    }
}

/// The chaos sweep: every seed generates a random fault world
/// ([`ChaosConfig::default`]); every policy runs the identical job
/// stream through it. One column, one report section per policy.
pub fn chaos(args: McArgs) -> MatrixReport {
    let cfg = ChaosConfig::default();
    Matrix {
        title: "Monte-Carlo chaos sweep",
        world: format!(
            "world: {} hosts, {} users x {} credits, random faults per seed\n",
            cfg.hosts, cfg.users, cfg.funding
        ),
        rows: &CHAOS_POLICIES,
        cols: &["chaos"],
        cell: |policy, _, seed| chaos_cell(policy, seed, &ChaosConfig::default()),
        layout: Layout::Sections,
    }
    .run(args)
}

/// The chaos sweep's `--check` gate: zero seeds quarantined and both
/// banked policies' conservation residuals exactly 0. `Ok` carries the
/// success line, `Err` the failure line.
pub fn check_chaos(m: &MatrixReport, args: &McArgs) -> Result<String, String> {
    let quarantined = m.total_quarantined();
    let conserved = m.zero_max(&["tycoon", "vcg"], "conservation_residual");
    if quarantined != 0 || !conserved {
        return Err(format!(
            "mc --check FAILED: {quarantined} quarantined seeds, \
             tycoon and vcg conservation residuals exactly 0: {conserved}"
        ));
    }
    Ok(format!(
        "mc --check OK: {} seeds x {} policies, 0 quarantined, conservation residual 0",
        args.seeds,
        m.cells.len()
    ))
}

/// One figure's Monte-Carlo report.
#[derive(Clone, Debug)]
pub struct FigMc {
    /// Experiment name (`fig3` … `volatility`).
    pub name: &'static str,
    /// Student-t report over the headline scalars.
    pub report: McReport,
}

/// Structured result of the figure sweep.
#[derive(Clone, Debug)]
pub struct McFigs {
    /// Per-figure reports.
    pub figs: Vec<FigMc>,
    /// Rendered report.
    pub rendered: String,
}

/// One figure experiment at `(scale, seed)`, reduced to its headline
/// scalars.
type Headline = fn(Scale, u64) -> Rows;

/// The figure experiments, report order: the same `run_seeded` entry
/// points the single-seed binaries call.
const FIGURES: [(&str, Headline); 7] = [
    ("fig3", |scale, s| {
        let f = crate::fig3::run_seeded(scale, s);
        let mid = f.budgets_per_day.len() / 2;
        vec![
            ("price_mean", f.price_mean),
            ("price_std", f.price_std),
            ("cap90_mid_budget_mhz", f.curves[1].1[mid].capacity_mhz),
        ]
    }),
    ("fig4", |scale, s| {
        let f = crate::fig4::run_seeded(scale, s);
        vec![
            ("eps_ar", f.eps_ar),
            ("eps_naive", f.eps_naive),
            ("ar_edge", f.eps_naive - f.eps_ar),
        ]
    }),
    ("fig5", |scale, s| {
        let f = crate::fig5::run_seeded(scale, s);
        vec![
            ("std_risk_free", f.std_risk_free),
            ("std_equal", f.std_equal),
            ("std_reduction", 1.0 - f.std_risk_free / f.std_equal),
        ]
    }),
    ("fig6", |scale, s| {
        let f = crate::fig6::run_seeded(scale, s);
        vec![
            ("skew_short_window", f.windows[0].skewness),
            ("skew_long_window", f.windows[2].skewness),
        ]
    }),
    ("fig7", |scale, s| {
        let f = crate::fig7::run_seeded(scale, s);
        let max_tv = f.dists.iter().map(|d| d.tv_distance).fold(0.0, f64::max);
        let mean_tv =
            f.dists.iter().map(|d| d.tv_distance).sum::<f64>() / f.dists.len().max(1) as f64;
        vec![("max_tv_distance", max_tv), ("mean_tv_distance", mean_tv)]
    }),
    ("sweep", |scale, s| {
        let f = crate::ext_sweep::run_seeded(scale, s);
        let lo = &f.points.first().expect("sweep points").report;
        let hi = &f.points.last().expect("sweep points").report;
        let done = f
            .points
            .iter()
            .filter(|p| p.report.completed_subjobs == p.report.subjobs)
            .count() as f64;
        vec![
            (
                "funding_nodes_ratio",
                if lo.avg_nodes > 0.0 { hi.avg_nodes / lo.avg_nodes } else { 0.0 },
            ),
            ("done_rate", done / f.points.len().max(1) as f64),
        ]
    }),
    ("volatility", |scale, s| {
        let f = crate::ext_volatility::run_seeded(scale, s);
        vec![
            ("tycoon_cov", f.tycoon_cov),
            ("gcommerce_cov", f.gcommerce_cov),
            ("posted_edge", f.tycoon_step_err - f.gcommerce_step_err),
        ]
    }),
];

/// Re-run every figure experiment over a seed stream and report each
/// headline scalar with a confidence interval. This is the paper's whole
/// evaluation as a population instead of an anecdote: the same
/// `run_seeded` entry points the single-seed binaries call, just many
/// seeds through the Monte-Carlo runner.
pub fn report(scale: Scale, args: McArgs) -> McFigs {
    let seeds = seed_stream(args.base_seed, args.seeds);
    let mc = chaos_runner(args.threads);
    let figs: Vec<FigMc> = FIGURES
        .iter()
        .map(|&(name, headline)| FigMc {
            name,
            report: mc.run(&seeds, move |s| headline(scale, s)).report(Clone::clone),
        })
        .collect();

    let mut rendered = format!(
        "Monte-Carlo figure report: {} seeds per figure (base {:#x}), {} threads\n\n",
        args.seeds, args.base_seed, args.threads
    );
    for f in &figs {
        rendered.push_str(&format!("== {} ==\n{}\n", f.name, f.report.render()));
    }
    McFigs { figs, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::FaultKind;

    fn tiny() -> McArgs {
        McArgs { seeds: 4, base_seed: 0xABCD, threads: 2 }
    }

    #[test]
    fn chaos_sweep_covers_all_policies_with_zero_quarantines() {
        let c = chaos(tiny());
        let names: Vec<&str> = c.cells.iter().map(|p| p.row).collect();
        assert_eq!(names, CHAOS_POLICIES);
        assert_eq!(c.total_quarantined(), 0, "{}", c.rendered);
        assert!(c.zero_max(&["tycoon", "vcg"], "conservation_residual"), "money leak");
        assert!(check_chaos(&c, &tiny()).is_ok());
        for p in &c.cells {
            assert_eq!(p.report.completed, 4, "policy {}", p.row);
            assert!(p.report.metric("fairness").is_some());
            assert!(
                p.report.metric("welfare").is_some() && p.report.metric("revenue").is_some(),
                "policy {} must report the shared welfare/revenue columns",
                p.row
            );
        }
        c.assert_golden("chaos");
    }

    #[test]
    fn chaos_sweep_is_deterministic_across_thread_counts() {
        let a = chaos(McArgs { threads: 1, ..tiny() });
        let b = chaos(McArgs { threads: 4, ..tiny() });
        assert_eq!(a.body(), b.body());
    }

    fn parse(line: &str) -> Result<Cli, String> {
        Cli::parse(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn cli_parses_every_mode_and_rejects_bad_flags() {
        let c = parse("").expect("defaults");
        assert_eq!((c.mode, c.args.seeds, c.check), (Mode::Chaos, 64, false));
        let c = parse("attack --seeds 16 --base-seed 0xA77AC --threads 2 --check").expect("attack");
        assert_eq!((c.mode, c.args.seeds, c.args.base_seed, c.args.threads), (Mode::Attack, 16, 0xA77AC, 2));
        assert!(c.check);
        assert_eq!(parse("--seeds 8 gray").expect("flags first").mode, Mode::Gray);
        assert_eq!(parse("report --paper").expect("paper").scale, Scale::Paper);
        assert_eq!(parse("report --paper-scale").expect("paper-scale").scale, Scale::Paper);
        for bad in [
            "--seed 16",
            "chaos --seeds",
            "chaos --seeds many",
            "chaos --threads 0",
            "chaos --base-seed xyz",
            "attack gray",
            "sweep",
            "report --check",
            "chaos --paper",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn figure_report_renders_every_figure() {
        let args = McArgs { seeds: 2, ..tiny() };
        let r = report(Scale::Quick, args);
        let names: Vec<&str> = r.figs.iter().map(|f| f.name).collect();
        assert_eq!(
            names,
            ["fig3", "fig4", "fig5", "fig6", "fig7", "sweep", "volatility"]
        );
        for f in &r.figs {
            assert_eq!(f.report.completed, 2, "figure {}", f.name);
        }
        assert!(r.rendered.contains("== fig4 =="));
    }

    /// FNV-1a over a plan's `(at, kind ordinal, target)` stream, the
    /// construction of `gm-des`'s golden schedule test. The ordinal and
    /// `u32` target are an event's bytes from before events were typed
    /// (gray faults packed `host | payload << 16`, a stall's payload in
    /// whole seconds), so the fingerprints recorded then still hold.
    fn plan_fingerprint(plan: &FaultPlan) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let packed = |host: u32, payload: u64| host | (payload as u32) << 16;
        for e in plan.events() {
            let (ordinal, target) = match e.kind {
                FaultKind::HostCrash { host } => (0, host),
                FaultKind::HostRecover { host } => (1, host),
                FaultKind::VmFailure { host } => (2, host),
                FaultKind::BankOutage => (5, 0),
                FaultKind::BankRestore => (6, 0),
                FaultKind::BankRestart => (7, 0),
                FaultKind::LinkDown => (8, 0),
                FaultKind::LinkUp => (9, 0),
                FaultKind::AdversaryArrival { index } => (10, index),
                FaultKind::HostSlowdown { host, permille } => (11, packed(host, permille.into())),
                FaultKind::HostRestore { host } => (12, host),
                FaultKind::HostStall { host, len } => {
                    (13, packed(host, len.as_micros() / 1_000_000))
                }
            };
            fnv(&e.at.as_micros().to_le_bytes());
            fnv(&[ordinal]);
            fnv(&target.to_le_bytes());
        }
        h
    }

    #[test]
    fn every_fault_config_draws_its_recorded_plans() {
        // Plans at seeds 1, 7 and 2006 of every chaos world the program
        // builds, recorded before the fault knobs moved into `FaultMix`: a
        // knob dropped on the way to `FaultGenConfig`, or given in the
        // wrong unit, changes a plan.
        use crate::ext_attack::attack_cfg;
        use crate::ext_gray::gray_cfg;
        let table: [(&str, ChaosConfig, [u64; 3]); 6] = [
            (
                "default",
                ChaosConfig::default(),
                [0x70e3cb063ae7eeb4, 0xef0ea5af37a3ff92, 0x0ae2955d2cd812c9],
            ),
            (
                "attack",
                attack_cfg(),
                [0xaf463a1de3faff64, 0x1eed574d4d04b735, 0xf3acd630b05cd6cc],
            ),
            (
                "gray/none",
                gray_cfg("none"),
                [0x2b537f56dccd2777, 0xd8cc2efbbffb4742, 0xa6003e78a0a1430d],
            ),
            (
                "gray/slowdown",
                gray_cfg("slowdown"),
                [0x540aa38a9bd7656f, 0xb91dc24b0f027d6b, 0x307361c3de626aa6],
            ),
            (
                "gray/stall",
                gray_cfg("stall"),
                [0x5172afa25e7b80db, 0x80f999a66f211a57, 0xa214de03694f71b9],
            ),
            (
                "gray/flapping",
                gray_cfg("flapping"),
                [0x1a8d46b3f33585a3, 0x9956f2da30b5b126, 0x73e67e4a16a84ac1],
            ),
        ];
        for (name, cfg, want) in table {
            for (seed, want) in [1, 7, 2006].into_iter().zip(want) {
                let got = plan_fingerprint(&FaultPlan::generate(seed, cfg.fault_gen()));
                assert_eq!(got, want, "{name} at seed {seed}: {got:#018x}");
            }
        }
    }
}
