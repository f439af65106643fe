//! # gm-experiments — regenerators for the paper's evaluation
//!
//! One module per table/figure of the paper's Section 5, each with a
//! `run(scale)` entry point returning both structured results (consumed by
//! tests and benches) and a rendered report (printed by the binaries).
//!
//! | Module   | Paper artifact | What it reproduces |
//! |----------|----------------|--------------------|
//! | [`table1`] | Table 1 | equal funding: 5 users × $100, group metrics |
//! | [`table2`] | Table 2 | two-point funding 100,100,500,500,500 |
//! | [`fig3`]   | Fig. 3  | normal-model guarantee curves (80/90/99 %) |
//! | [`fig4`]   | Fig. 4  | AR(6) 1 h forecast + smoothing, ε vs naive |
//! | [`fig5`]   | Fig. 5  | risk-free vs equal-share portfolio |
//! | [`fig6`]   | Fig. 6  | price distribution over hour/day/week windows |
//! | [`fig7`]   | Fig. 7  | dual-window approximation vs measured |
//!
//! Extensions of ours: [`ext_sweep`] (funding sweep against fixed
//! background load, validating the Fig. 3 budget advice in vivo),
//! [`ext_volatility`] (the §6 price-predictability debate measured on our
//! Tycoon / G-commerce / WTA implementations), [`ext_scaling`] (§3's
//! weak-scaling claim) and [`ext_vcg`] (the optimization tier of
//! DESIGN.md §14: welfare/revenue/fairness of the VCG welfare-LP policy
//! against Tycoon and every baseline on one SLA workload).
//!
//! [`mc`] runs all of the above as Monte-Carlo populations: the
//! per-policy chaos sweep behind `just mc-chaos` and the seeded figure
//! report behind `just mc-report` (DESIGN.md §13). The chaos sweep, the
//! attack matrix ([`ext_attack`], over the strategic bidders of
//! [`adversary`]; DESIGN.md §16) and the gray matrix
//! ([`ext_gray`], §17) are each one [`matrix::Matrix`] declaration,
//! run and gated by the `mc` binary. Every figure module
//! exposes a `run_seeded(scale, seed)` variant for this; the plain
//! `run(scale)` entry points delegate to it with the historical seed, so
//! single-seed outputs are unchanged.
//!
//! Absolute numbers differ from the paper (their testbed was 30 physical
//! machines; ours is a simulator) — the *shapes* are asserted in
//! `tests/experiments.rs` and recorded in `EXPERIMENTS.md`.

pub mod adversary;
pub mod ext_attack;
pub mod ext_gray;
pub mod ext_scaling;
pub mod ext_sweep;
pub mod ext_vcg;
pub mod ext_volatility;
pub mod matrix;
pub mod mc;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod pricegen;
pub mod table1;
pub mod table2;

/// Experiment scale: `Quick` for CI/benches, `Paper` for the full §5
/// parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced problem sizes (seconds of wall-clock).
    Quick,
    /// The paper's parameters (30 hosts, 212 min chunks, 40 h traces).
    Paper,
}

impl Scale {
    /// Parse from a CLI argument of the single-experiment binaries
    /// (`--paper` or its `--paper-scale` alias selects full scale; the
    /// `mc` binary parses the same two flags with [`mc::Cli`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper" || a == "--paper-scale") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }
}
