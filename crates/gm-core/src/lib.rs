//! # gm-core — the scheduler core
//!
//! One driver, many allocation policies. This crate is the seam between
//! the simulation substrate (`gm-des` clocks and fault plans, `gm-tycoon`
//! host capacity) and the allocators that compete in the paper's
//! market-vs-baseline comparison:
//!
//! - [`workload`] — the policy-neutral job description
//!   ([`JobRequest`]) and per-run report ([`RunResult`]) shared by every
//!   scheduler, market or not.
//! - [`metrics`] — the comparison metrics (Jain fairness index, price
//!   volatility) used by policy reports and the experiments crate.
//! - [`policy`] — the [`AllocationPolicy`] trait (admit / place /
//!   advance / settle / price hooks over a shared host-capacity + clock
//!   view) and the single [`PolicyDriver`] tick loop that replaces the
//!   per-baseline `run()` loops: every policy sees *identical* arrival
//!   streams, fault plans, and telemetry, so A/B results are
//!   byte-reproducible.
//! - [`montecarlo`] — the deterministic parallel scenario runner
//!   ([`MonteCarlo`]): fans seeded scenarios over `gm-des`'s scoped
//!   chunk map, one result slot per scenario, quarantines panicking
//!   seeds as [`ScenarioFailure`] data points, and aggregates Student-t
//!   confidence-interval reports ([`McReport`]) over robustness
//!   metrics.
//!
//! The crate deliberately depends only on `gm-des`, `gm-tycoon` (for
//! `HostSpec`/`UserId`), `gm-telemetry`, and the in-repo `gm-numeric`
//! substrate; the grid stack plugs in from above via
//! `gridmarket::policy::TycoonPolicy`.
#![deny(clippy::too_many_lines)]

pub mod metrics;
pub mod montecarlo;
pub mod policy;
pub mod workload;

pub use metrics::{jain_fairness, price_volatility, revenue, welfare};
pub use montecarlo::{
    seed_stream, McBatch, McOutcome, McReport, MetricSummary, MonteCarlo, ScenarioFailure,
};
pub use policy::{AllocationPolicy, DriverStats, PolicyDriver, PolicyError, TickCtx};
pub use workload::{JobOutcome, JobRequest, RunResult};
