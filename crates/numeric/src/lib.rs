//! # gm-numeric — numerical substrate
//!
//! Self-contained numerical routines backing the paper's prediction suite
//! (Section 4) and the experiment harness:
//!
//! * [`linalg`] — dense matrices, LU decomposition with partial pivoting,
//!   linear solves and inverses (used by Markowitz portfolio selection).
//! * [`toeplitz`] — sample autocorrelation and the Levinson-Durbin solver
//!   for the Yule-Walker equations of the AR(k) price model (§4.3).
//! * [`spline`] — Reinsch cubic smoothing spline, the smoothing function
//!   the paper applies before fitting the AR model (§5.4, Fig. 4).
//! * [`probit`] — the standard normal CDF Φ and quantile Φ⁻¹ used by the
//!   stateless price prediction model (§4.2, Eq. 4–5).
//! * [`stats`] — running and exponentially-smoothed windowed moments
//!   (mean, std, skewness, kurtosis; §4.5).
//! * [`student`] — Student's t distribution (ln-gamma, incomplete beta,
//!   CDF/quantile) and [`Summary`]: the
//!   confidence-interval math behind the Monte-Carlo robustness reports
//!   (DESIGN.md §13).
//! * [`samplers`] — uniform / normal / exponential / gamma / beta
//!   samplers over any [`gm_des::Rng64`] (used by Fig. 5 and Fig. 7).
//! * [`histogram`] — fixed-range histograms for measured distributions.
//!
//! Everything is implemented from scratch against published algorithms; no
//! external numerics dependency.

pub mod histogram;
pub mod linalg;
pub mod probit;
pub mod samplers;
pub mod spline;
pub mod stats;
pub mod student;
pub mod toeplitz;

pub use histogram::Histogram;
pub use linalg::Matrix;
pub use probit::norm_quantile;
pub use samplers::{Normal, Sampler};
pub use spline::smoothing_spline;
pub use stats::Moments;
pub use student::Summary;
pub use toeplitz::levinson_durbin;
