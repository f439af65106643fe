//! # gm-telemetry — deterministic metrics + structured tracing
//!
//! A zero-external-dependency observability layer for the grid-market
//! workspace (`DESIGN.md` §9). Three pieces:
//!
//! * **Metrics** — a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s with p50/p90/p99 readout. Handles are
//!   cheap `Arc` clones safe to use from the live-service threads, read
//!   out by [`Registry::snapshot`].
//! * **Tracing** — a [`Tracer`] recording [`TraceEvent`]s into a bounded
//!   ring buffer with drop-counting. Timestamps
//!   come from an injectable [`Clock`]: [`ManualClock`] driven by the DES
//!   loop keeps runs byte-reproducible, [`WallClock`] serves live runs.
//! * **Exporters** — [`metrics_jsonl`]/[`trace_jsonl`] dumps and a
//!   plain-text [`render_top`] table in the `gm_core::report` style.
//!
//! The crate deliberately depends on nothing else in the workspace (and
//! nothing outside `std`), so every layer — `gm-des`, `gm-tycoon`,
//! `gm-grid`, `gm-predict`, `gm-core` — can report through it without
//! dependency cycles.
//!
//! ```
//! use gm_telemetry::{ManualClock, Registry, Tracer};
//! use std::sync::Arc;
//!
//! let clock = ManualClock::new();
//! let registry = Registry::new();
//! let tracer = Tracer::new(1024, Arc::new(clock.clone()));
//!
//! clock.set_micros(1_000_000);
//! registry.counter("grid.dispatches").inc();
//! registry.histogram("market.tick_us").record(350.0);
//! tracer.event_with("fault.host_crash", &[("host", "host003".into())]);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["grid.dispatches"], 1);
//! println!("{}", gm_telemetry::metrics_jsonl(&snap));
//! ```

pub mod clock;
pub mod export;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use export::{metrics_jsonl, render_top, trace_jsonl};
pub use metrics::{Counter, Gauge, HistData, HistSummary, Histogram, MetricsSnapshot, Registry};
pub use trace::{TraceEvent, Tracer};
