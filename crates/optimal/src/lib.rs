//! Optimization-based allocation tier (DESIGN.md §14).
//!
//! Where the Tycoon tier prices resources through proportional-share
//! auctions and the baselines through queues, this crate allocates each
//! planning window by *solving for the welfare optimum directly*:
//!
//! 1. [`SlaCurve`] — concave piecewise-linear value curves mapping
//!    delivered work to credits (partial delivery earns partial
//!    credit; the linear special case reproduces the suite's
//!    all-or-nothing budget model at full delivery).
//! 2. [`WelfareProgram`] — one window (apps × hosts with capacity,
//!    demand and deadline caps). Its linear program is a fractional
//!    knapsack with nested capacities, so one greedy sweep by slope
//!    solves it exactly and yields each app's delivery plus the host
//!    shadow price; a test-only simplex checks it in the tests.
//!    [`WelfareProgram::place`] spreads the deliveries over the hosts.
//! 3. [`vcg()`] — prices every app by its externality: one sort, one
//!    sweep that keeps its state at the cut (the position that sets the
//!    price), and each leave-one-out restarted from there, bit-identical
//!    to a from-scratch re-solve. Its [`VcgReceipt`]s' payments are
//!    non-negative, individually rational and truthful.
//! 4. [`VcgSlaPolicy`] — packages the above as a standard
//!    [`gm_core::AllocationPolicy`]: windowed replanning, fault
//!    tolerance, and VCG settlement through a journaled
//!    [`gm_tycoon::Bank`] so conservation auditing covers the tier.
//!
//! Everything is pure Rust on the workspace's own crates — no solver
//! library, and byte-identical results for a given seed at any thread
//! count.

pub mod policy;
pub mod program;
pub mod sla;
pub mod vcg;

pub use policy::VcgSlaPolicy;
pub use program::{WelfareApp, WelfareProgram, WelfareSolution};
pub use sla::{SlaCurve, SlaError};
pub use vcg::{vcg, VcgOutcome, VcgReceipt};
