//! `mc` — the Monte-Carlo robustness CLI (DESIGN.md §13, §16, §17).
//!
//! ```text
//! mc chaos  [--seeds N] [--base-seed HEX] [--threads N] [--check]
//! mc attack [--seeds N] [--base-seed HEX] [--threads N] [--check]
//! mc gray   [--seeds N] [--base-seed HEX] [--threads N] [--check]
//! mc report [--seeds N] [--base-seed HEX] [--threads N] [--paper-scale]
//! ```
//!
//! `chaos` runs the per-policy random-fault sweep (Tycoon, the VCG
//! optimization tier, and the four baselines); `attack` the
//! *(policy × strategy)* adversarial matrix (tycoon defended and open
//! against the six `adversary` bidder strategies); `gray` the
//! *(policy × gray scenario)* matrix (plus `tycoon_nospec`, the agent
//! with health scoring and speculation off). Each prints Student-t
//! results plus every quarantined seed with its replay hint. `--check`
//! turns a matrix into its CI gate and exits 1 when the gate fails:
//!
//! * `chaos`: zero quarantined seeds, both banked policies' conservation
//!   residuals exactly 0;
//! * `attack`: zero quarantined runs, the honest cohort bit-identical
//!   with defenses on and off, the guard reducing volatility and
//!   honest-fairness degradation under at least two strategies;
//! * `gray`: zero quarantined runs, money conserved exactly in every
//!   banked cell, the gray-free column bit-identical armed vs off,
//!   speculation cutting on-time misses on at least two scenarios.
//!
//! `report` re-runs the paper's figure experiments as seeded batches;
//! `--paper-scale` (alias `--paper`) runs them at the paper's full §5
//! parameters instead of the quick CI sizes. A bad command line exits 2.

use gm_experiments::matrix::{Gate, MatrixReport};
use gm_experiments::mc::{self, Cli, Mode, USAGE};
use gm_experiments::{ext_attack, ext_gray};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&argv).unwrap_or_else(|e| {
        eprintln!("mc: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (m, check): (MatrixReport, Gate) = match cli.mode {
        Mode::Report => {
            println!("{}", mc::report(cli.scale, cli.args).rendered);
            return;
        }
        Mode::Chaos => (mc::chaos(cli.args), mc::check_chaos),
        Mode::Attack => (ext_attack::matrix(cli.args), ext_attack::check),
        Mode::Gray => (ext_gray::matrix(cli.args), ext_gray::check),
    };
    println!("{}", m.rendered);
    if cli.check {
        match check(&m, &cli.args) {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("{line}");
                std::process::exit(1);
            }
        }
    }
}
