//! # gm-des — deterministic simulation primitives
//!
//! The substrate underneath every experiment in this repository. The paper's
//! testbed was a physical 30-host cluster; we replace it with a
//! deterministic simulation (the `gm-core` `PolicyDriver` tick loop) so that
//! every table and figure can be regenerated byte-for-byte from a seed (see
//! `DESIGN.md` §2, §7). This crate holds the primitives it is built from,
//! kept intentionally small and allocation-conscious:
//!
//! * [`SimTime`]/[`SimDuration`] — integer microsecond timestamps, so there
//!   is no floating-point drift in event ordering.
//! * [`rng`] — `SplitMix64` and `Pcg32` pseudo-random generators (own
//!   implementations, no external dependency) behind the [`rng::Rng64`]
//!   trait used by the samplers in `gm-numeric`.
//! * [`trace`] — a time-series recorder used to collect spot-price history
//!   for the prediction experiments.
//! * [`fault`] — seedable fault-injection schedules ([`FaultPlan`]) for
//!   byte-reproducible chaos runs (see `DESIGN.md` §8).
//! * [`stat`] — [`NodeStat`], the per-job concurrency average and peak
//!   every allocation policy reports.
//! * [`check`] — a minimal seeded property-testing harness used by the
//!   workspace test suites (no external dependency).

pub mod check;
pub mod fault;
pub mod rng;
pub mod stat;
pub mod time;
pub mod trace;

pub use fault::{
    gray_host, gray_payload, gray_target, FaultEvent, FaultGenConfig, FaultKind, FaultMix,
    FaultPlan, MAX_GRAY_HOSTS,
};
pub use rng::{Pcg32, Rng64, SplitMix64};
pub use stat::NodeStat;
pub use time::{SimDuration, SimTime};
pub use trace::{Series, TimeWentBackwards, Trace};
