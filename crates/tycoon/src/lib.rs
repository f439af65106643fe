//! # gm-tycoon — the Tycoon market-based resource allocation system
//!
//! Reimplementation of the market substrate the paper builds on (§2.2):
//! decentralized, continuous, bid-based proportional-share markets, one per
//! host, with a central bank. Host discovery — the paper's service location
//! service — is the market's [`arena::HostArena`].
//!
//! * [`money`] — exact fixed-point credits (micro-dollar accounting).
//! * [`bank`] — user accounts, signed transfer receipts, sub-accounts
//!   (the Bank component of Fig. 1).
//! * [`host`] — host specifications (CPUs, per-CPU capacity, virtualization
//!   overhead à la Xen's 1–5 %).
//! * [`auction`] — the per-host Auctioneer: continuous bids, spot price
//!   `y_j = Σ x_ij` (Eq. 1), proportional-share allocation at a 10 s
//!   reallocation interval, pay-for-use charging with refunds.
//! * [`best_response()`] — the Feldman–Lai–Zhang Best Response optimizer
//!   that distributes a budget across hosts (Eq. 1–2).
//! * [`market`] — glue that drives all auctioneers one allocation interval
//!   at a time and records price history.
//! * [`service`] — the same market behind message-passing service
//!   boundaries (bank thread + one auctioneer thread per host), matching
//!   the paper's deployment as networked services.
//! * [`telemetry`] — pre-resolved `gm_telemetry` instrument handles for
//!   the market hot path (tick duration, spot gauges, bid/refund/outage
//!   counters).
//! * [`transport`] — deterministic lossy links, bounded mailboxes that
//!   shed at the sender, and per-endpoint circuit breakers for the live
//!   runtime (`DESIGN.md` §12).
//! * [`guard`] — market defenses against strategic bidders: per-account
//!   bid-rate limiting with seeded-jitter backoff, account quarantine
//!   with escrow refunds, and the per-host price-band circuit breaker
//!   (`DESIGN.md` §16).
//! * [`health`] — online per-host gray-failure health scoring (EWMA of
//!   observed vs expected progress with hysteresis probation bands),
//!   published as an advisory `HostArena` column (`DESIGN.md` §17).

pub mod arena;
pub mod auction;
pub mod bank;
pub mod best_response;
pub mod guard;
pub mod health;
pub mod host;
pub mod ledger;
pub mod market;
pub mod money;
pub mod service;
pub mod telemetry;
pub mod transport;

pub use auction::{Allocation, Auctioneer, BidHandle, UserId};
pub use bank::{AccountId, Bank, BankError, Receipt};
pub use best_response::{best_response, utility, HostQuote};
pub use guard::{GuardConfig, MarketGuard};
pub use health::{HealthConfig, HealthScore};
pub use host::{HostId, HostSpec};
pub use ledger::{
    AuditReport, BankEvent, BankSnapshot, ConservationAuditor, RecoverError, RecoveryReport,
};
pub use market::{CrashReport, Market, MarketError, DEFAULT_INTERVAL_SECS};
pub use money::Credits;
pub use service::{AuctioneerClient, BankClient, LiveMarket, NetConfig, ServiceError};
pub use telemetry::{NetInstruments, ServiceInstruments};
pub use transport::{BreakerConfig, QueueConfig};
