//! # gridmarket — market-based resource allocation for HPC grids
//!
//! A faithful reimplementation of *Sandholm, Lai, Andrade & Odeberg,
//! "Market-Based Resource Allocation using Price Prediction in a High
//! Performance Computing Grid for Scientific Applications" (HPDC 2006)*:
//! the Tycoon proportional-share market integrated with a NorduGrid/
//! ARC-style meta-scheduler, transfer-token security, and the price
//! prediction suite — all running on a deterministic simulator.
//!
//! ## Quick start
//!
//! ```
//! use gridmarket::scenario::{Scenario, UserSetup};
//!
//! // Two users compete for 4 hosts with different funding.
//! let result = Scenario::builder()
//!     .seed(7)
//!     .hosts(4)
//!     .user(UserSetup::new(100.0).subjobs(2).label("frugal"))
//!     .user(UserSetup::new(500.0).subjobs(2).label("flush"))
//!     .chunk_minutes(20.0)
//!     .deadline_minutes(120)
//!     .horizon_hours(8)
//!     .run()
//!     .expect("scenario runs");
//! assert!(result.all_done());
//! ```
//!
//! The crates underneath (each re-exported here):
//!
//! * [`gm_core`] — the [`AllocationPolicy`] trait and the unified
//!   [`PolicyDriver`] tick loop ([`sched`]); [`policy::TycoonPolicy`]
//!   puts the whole market stack behind it.
//! * [`gm_tycoon`] — bank, auctioneers, Best Response ([`tycoon`]).
//! * [`gm_grid`] — xRSL, transfer tokens, VMs, job manager ([`grid`]).
//! * [`gm_predict`] — §4's prediction models ([`predict`]).
//! * [`gm_bio`] — the bioinformatics workload ([`bio`]).
//! * [`gm_baselines`] — FIFO/equal-share/G-commerce/WTA baselines
//!   ([`baselines`]).
//! * [`gm_telemetry`] — deterministic metrics + tracing ([`telemetry`]).
//! * [`gm_des`] / [`gm_numeric`] — simulation kernel and numerics.

pub mod mc;
pub mod policy;
pub mod report;
pub mod scenario;

pub use gm_core::{AllocationPolicy, PolicyDriver, PolicyError};
pub use mc::{chaos_runner, chaos_scenario, chaos_scenario_with, ChaosConfig, ChaosMetrics};
pub use policy::{submit_funded, tycoon_policy, TycoonJobSetup, TycoonPolicy};
pub use report::GroupRow;
pub use scenario::{Scenario, ScenarioResult, UserReport, UserSetup, World};

pub use gm_baselines as baselines;
pub use gm_core as sched;
pub use gm_bio as bio;
pub use gm_des as des;
pub use gm_grid as grid;
pub use gm_numeric as numeric;
pub use gm_predict as predict;
pub use gm_telemetry as telemetry;
pub use gm_tycoon as tycoon;
