//! End-to-end benchmark of the gridmarket reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (why each was chosen, and which layers it bypasses, is in
//! `perfbench/README.md`):
//!
//! * `chaos_sweep` — a block of default chaos seeds ([`scenarios::chaos`]);
//! * `vcg_window` — VCG pricing of seeded welfare windows
//!   ([`vcg_window::run`]);
//! * `table1_paper` — the paper's §5.3 Table 1 run ([`scenarios::table1`]),
//!   kept for its profile and output checks but left out of
//!   `BENCHMARK.json`: its one 1.2 s unit cannot be timed steadily on a
//!   shared machine (see the README).
//!
//! Inputs derive from `--seed` only. Each workload runs its inputs once,
//! untimed, on the program's own path as the warm-up and the reference,
//! then runs a fixed number of passes (fewer only if `--seconds` runs
//! out first): each pass builds its inputs in a timed batch (the set-up)
//! and runs them on the program's own path (the timed phase), and every
//! pass's output must equal the reference. With `--trace 0` it reports
//! the end-to-end metrics (`run_s`, `setup_s` and `peak_rss_mb`); with
//! `--trace 1` it alternates plain and traced passes, prints a ranked
//! hot-layer list and reports every per-layer metric. The work runs on
//! one thread at a time. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod scenarios;
mod stats;
mod trace;
mod vcg_window;
mod world;

use std::time::Instant;

/// Every per-layer metric, in output order, with its unit. A traced run
/// reports all of them; a layer its workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("driver.self_s", "s"),
    ("report.assemble_s", "s"),
    ("policy.glue_s", "s"),
    ("grid.admit_s", "s"),
    ("grid.admit_calls", "count"),
    ("grid.pre_tick_s", "s"),
    ("grid.pre_tick_us_p50", "us"),
    ("grid.pre_tick_us_p99", "us"),
    ("grid.fault_s", "s"),
    ("grid.redispatch_ratio", "ratio"),
    ("market.advance_s", "s"),
    ("market.advance_us_p50", "us"),
    ("market.bid_reject_ratio", "ratio"),
    ("ledger.audit_s", "s"),
    ("ledger.audits", "count"),
    ("ledger.audit_ms_mean", "ms"),
    ("ledger.restart_s", "s"),
    ("ledger.restarts", "count"),
    ("ledger.replayed_per_audit", "count"),
    ("mc.seed_ms_p50", "ms"),
    ("mc.seed_ms_max", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.loo_solve_ms", "ms"),
    ("lp.loo_solves", "count"),
    ("lp.loo_skipped", "count"),
    ("lp.vcg_over_solve", "ratio"),
    ("driver.ticks", "count"),
    ("market.bids_placed", "count"),
    ("market.bank_transfers", "count"),
    ("ledger.appends", "count"),
    ("ledger.records_replayed", "count"),
    ("grid.dispatches", "count"),
    ("grid.degraded_quotes", "count"),
    ("predict.samples", "count"),
    ("faults.injected", "count"),
    ("trace.overhead", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        };
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a workload measured and whether its outputs checked out.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Outcome {
        Outcome {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// The end-to-end metrics: the pass time of the untraced passes, the
    /// set-up time, and the peak resident memory of the workload's
    /// reference run on the program's own path. The peak is read before
    /// the passes, so it is the program's and not the benchmark's; read
    /// at the end of the run, the allocator's reuse of the memory the
    /// passes free moved the process peak of `chaos_sweep` between 11.6
    /// and 18.1 MB from run to run.
    pub fn end_to_end(&mut self, run: &PassClock, setup: &SetupClock, peak_rss_mb: f64) {
        println!(
            "run_s: {:.6} s per pass from the fastest units of {} passes (median pass {:.6} s)",
            run.pass_s(),
            run.passes(),
            run.median_pass_s()
        );
        println!(
            "setup_s: {:.6} s, fastest of {} batches of {} builds (median batch {:.6} s)",
            setup.setup_s(),
            setup.batches.len(),
            setup.builds,
            stats::median(&setup.batches)
        );
        self.metrics.push(("run_s", run.pass_s(), "s"));
        self.metrics.push(("setup_s", setup.setup_s(), "s"));
        self.metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
    }

    /// One per-layer metric (must be listed in `PER_LAYER`).
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            PER_LAYER.contains(&(name, unit)),
            "unlisted per-layer metric {name} [{unit}]"
        );
        self.metrics.push((name, value, unit));
    }

    fn json(&self, trace: bool) -> String {
        let metrics: Vec<(&str, f64, &str)> = if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| {
                    let v = self.metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
                    (n, v, u)
                })
                .collect()
        } else {
            self.metrics.clone()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| {
                // `+ 0.0` turns the -0.0 of an empty float sum into 0.
                let v = if v.is_finite() { v + 0.0 } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Run `pass(i)` for `i = 0 .. count`, stopping early only once
/// `seconds` have passed (after at least two passes). The count is fixed
/// per workload and fills three quarters of the 45 s that
/// `BENCHMARK.json` gives a run, so faster code gets no more samples than
/// slower code; `--seconds` is a cap that keeps a run on a loaded machine
/// within its time.
pub fn passes(seconds: f64, count: usize, mut pass: impl FnMut(usize)) {
    let t0 = Instant::now();
    for i in 0..count {
        if i >= 2 && t0.elapsed().as_secs_f64() >= seconds {
            println!("passes: --seconds ran out after {i} of {count} passes");
            break;
        }
        pass(i);
    }
}

/// Set-up times of one run: one batch per pass, each the fastest of
/// `builds` builds of that pass's inputs.
///
/// A build is timed on its own and dropped after its clock stops, except
/// the last, which the pass consumes, so no batch holds more than one
/// copy of the inputs: with many live copies, the allocator's reuse of
/// freed memory and page faults, not the build, decide the time. A
/// neighbour on the shared machine only ever adds time, and slows whole
/// stretches of a run (the median batch of identical Table-1 builds read
/// 62–108 µs from run to run), so the set-up time is the fastest build of
/// the run, as the run time is made of the fastest units. Every run makes
/// the same number of builds.
pub struct SetupClock {
    builds: usize,
    batches: Vec<f64>,
}

impl SetupClock {
    pub fn new(builds: usize) -> SetupClock {
        assert!(builds > 0, "at least one build per batch");
        SetupClock {
            builds,
            batches: Vec::new(),
        }
    }

    /// Time one batch of builds and return the last build.
    pub fn batch<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut fastest = f64::INFINITY;
        for _ in 1..self.builds {
            let t0 = Instant::now();
            let built = std::hint::black_box(build());
            fastest = fastest.min(t0.elapsed().as_secs_f64());
            drop(built);
        }
        let t0 = Instant::now();
        let kept = std::hint::black_box(build());
        self.batches.push(fastest.min(t0.elapsed().as_secs_f64()));
        kept
    }

    /// Seconds to build one pass's inputs.
    pub fn setup_s(&self) -> f64 {
        self.batches.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Wall times of the passes of one run, each split into the units a pass
/// is made of (the seeds of a chaos block, the windows of a VCG set) and
/// the rest of the pass.
///
/// The machine is shared, and a neighbour slows stretches of a few
/// seconds by 10–50%: over 45 s of identical 27 ms LP pricings, the
/// median of 3-second windows moved between 26.7 and 41.3 ms while their
/// fastest call moved between 25.6 and 27.4 ms. Such noise only ever adds
/// time, so the time of one pass is estimated as the sum of every unit's
/// fastest time over the passes plus the fastest rest. A workload without
/// units reports its fastest pass. Every run makes the same number of
/// passes (see [`passes`]), so the estimate does not depend on how many
/// samples the code's speed bought.
#[derive(Default)]
pub struct PassClock {
    units: Vec<Vec<f64>>,
    rest: Vec<f64>,
    pass: Vec<f64>,
}

impl PassClock {
    /// Record one pass: its wall time and the time of each of its units.
    pub fn record(&mut self, pass_s: f64, unit_s: &[f64]) {
        if self.pass.is_empty() {
            self.units = vec![Vec::new(); unit_s.len()];
        }
        assert_eq!(
            self.units.len(),
            unit_s.len(),
            "every pass has the same units"
        );
        for (samples, &s) in self.units.iter_mut().zip(unit_s) {
            samples.push(s);
        }
        self.rest.push(pass_s - unit_s.iter().sum::<f64>());
        self.pass.push(pass_s);
    }

    pub fn passes(&self) -> usize {
        self.pass.len()
    }

    /// The estimated wall time of one pass.
    pub fn pass_s(&self) -> f64 {
        let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        self.units.iter().map(|u| fastest(u)).sum::<f64>() + fastest(&self.rest)
    }

    pub fn median_pass_s(&self) -> f64 {
        stats::median(&self.pass)
    }

    /// The mean pass, the base the traced per-pass layer times add up to.
    pub fn mean_pass_s(&self) -> f64 {
        stats::mean(&self.pass)
    }
}

/// One row of the hot-layer ranking.
pub struct Layer {
    krate: &'static str,
    what: &'static str,
    secs: f64,
}

impl Layer {
    pub fn new(krate: &'static str, what: &'static str, secs: f64) -> Layer {
        Layer { krate, what, secs }
    }
}

/// Print the layers of one traced pass, hottest first, and the share of
/// the pass the timed calls account for. Returns whether they cover at
/// least 90% of it; a traced run that misses that gate is not correct.
pub fn print_ranking(workload: &str, pass_s: f64, layers: &[Layer], untimed_s: f64) -> bool {
    let mut order: Vec<&Layer> = layers.iter().collect();
    order.sort_by(|a, b| b.secs.total_cmp(&a.secs));
    let cover = 1.0 - untimed_s / pass_s;
    let gate = cover >= 0.9;
    println!(
        "hot layers, {workload}: traced pass {pass_s:.4} s, timed calls cover {:.1}% ({})",
        100.0 * cover,
        if gate {
            "within the 10% gate"
        } else {
            "OUTSIDE the 10% gate"
        }
    );
    for (rank, l) in order.iter().enumerate() {
        println!(
            "  {:>2}. {:>6.2}%  {:>11.6} s  {:<10} {}",
            rank + 1,
            100.0 * l.secs / pass_s + 0.0,
            l.secs + 0.0,
            l.krate,
            l.what
        );
    }
    println!(
        "      {:>6.2}%  {:>11.6} s  (untimed: loop self time)",
        100.0 * untimed_s / pass_s,
        untimed_s
    );
    gate
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <table1_paper|chaos_sweep|vcg_window> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!("machine: {}", stats::machine());
    let outcome = match args.workload.as_str() {
        "table1_paper" => scenarios::table1(&args),
        "chaos_sweep" => scenarios::chaos(&args),
        "vcg_window" => vcg_window::run(&args),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.json(args.trace));
}
