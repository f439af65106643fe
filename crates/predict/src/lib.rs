//! # gm-predict — price and performance prediction suite
//!
//! The paper's Section 4: tools that tell a grid user *how much to spend*
//! to hit a deadline, or what performance to expect for a budget.
//!
//! * [`normal`] — the lightweight stateless model (§4.2): assume spot
//!   prices are normal, combine `Φ⁻¹` guarantees with Best Response to map
//!   budgets ↔ capacity at 80/90/99 % confidence (Fig. 3).
//! * [`ar`] — AR(k) time-series forecasting (§4.3): Yule-Walker via
//!   Levinson-Durbin, optional smoothing-spline pre-filter, and the paper's
//!   ε validation metric (Fig. 4).
//! * [`portfolio`] — Markowitz mean-variance selection (§4.4): covariance
//!   estimation, minimum-variance ("risk-free") portfolio, efficient
//!   frontier (Fig. 5).
//! * [`slots`] — the auctioneer's self-adjusting slot table recording the
//!   proportion of prices per price bracket (§4.1, Fig. 6).
//! * [`window`] — the dual-distribution moving-window approximation with
//!   lag-proportional merging (§4.5, Fig. 6–7).
//! * [`tracker`] — per-model prediction-error telemetry feeding the
//!   scenario-wide `gm_telemetry` registry.

pub mod ar;
pub mod normal;
pub mod portfolio;
pub mod slots;
pub mod tracker;
pub mod window;

pub use slots::SlotTable;
pub use tracker::PredictionTracker;
pub use window::DualWindowDistribution;
