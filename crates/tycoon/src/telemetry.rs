//! Market-side telemetry: pre-created instrument handles.
//!
//! The market is on the hot path (one [`crate::market::Market::tick`] per
//! allocation interval across every host), so instruments are resolved
//! once at attach time and recording is a couple of relaxed atomic ops —
//! the `BENCH_telemetry.json` microbench holds the overhead under 5 %.
//!
//! Metric names follow the `DESIGN.md` §9 scheme:
//!
//! | name                    | kind      | meaning                                  |
//! |-------------------------|-----------|------------------------------------------|
//! | `market.ticks`          | counter   | allocation intervals run                 |
//! | `market.tick_us`        | histogram | wall/sim duration of one tick            |
//! | `market.spot.<host>`    | gauge     | latest spot price of each host           |
//! | `market.bids_placed`    | counter   | funded bids accepted                     |
//! | `market.bids_rejected`  | counter   | funded bids refused (any error)          |
//! | `market.evictions`      | counter   | bids evicted by host crashes             |
//! | `market.refunds`        | counter   | escrow refunds (cancel + crash refunds)  |
//! | `market.bank_transfers` | counter   | successful bank book transfers           |
//! | `market.bank_unavailable` | counter | operations refused by an outage window   |
//! | `market.bank_outages`   | counter   | outage windows opened                    |
//!
//! Guard-layer metrics (`crate::guard`, DESIGN.md §16), registered
//! **lazily on the first guard event** — honest runs (where the guard
//! never fires) keep their historical byte-identical JSONL export:
//!
//! | name                         | kind    | meaning                               |
//! |------------------------------|---------|---------------------------------------|
//! | `market.guard.rate_limited`  | counter | bids rejected by the per-account cap  |
//! | `market.guard.breaker_trips` | counter | price-band circuit-breaker trips      |
//! | `market.guard.quarantines`   | counter | accounts quarantined                  |
//! | `market.guard.refunded_bids` | counter | bids evicted+refunded by quarantines  |

//!
//! Live-service metrics (`crate::service`):
//!
//! | name                  | kind      | meaning                                |
//! |-----------------------|-----------|----------------------------------------|
//! | `service.request_us`  | histogram | client-observed request round trip     |
//! | `service.timeouts`    | counter   | calls that exhausted their retries     |
//! | `service.retries`     | counter   | re-sends after a lost/late reply       |
//! | `service.disconnects` | counter   | calls that found the service dead      |
//!
//! Overload / lossy-transport metrics (`crate::transport`), registered
//! lazily — only runs that opt into a [`NetInstruments`] export them, so
//! fault-free runs keep their historical byte-identical JSONL:
//!
//! | name                        | kind      | meaning                            |
//! |-----------------------------|-----------|------------------------------------|
//! | `net.shed`                  | counter   | requests shed by a bounded mailbox |
//! | `net.breaker_open`          | counter   | circuit-breaker trips              |
//! | `net.dup_suppressed`        | counter   | duplicate transfers deduplicated   |
//! | `net.drops`                 | counter   | messages lost by a lossy link      |
//! | `net.shed_depth`            | histogram | queue depth observed at shed time  |
//! | `net.queue_depth.<service>` | gauge     | live mailbox depth per service     |
//!
//! Durable-ledger metrics (`crate::ledger`, `crate::bank`):
//!
//! | name                      | kind    | meaning                               |
//! |---------------------------|---------|---------------------------------------|
//! | `ledger.appends`          | counter | WAL records written                   |
//! | `ledger.snapshots`        | counter | compactions (checkpoints) taken       |
//! | `ledger.recoveries`       | counter | `Bank::recover` replays completed     |
//! | `ledger.records_replayed` | counter | WAL events applied across recoveries  |
//! | `ledger.torn_tail_bytes`  | counter | bytes truncated from torn WAL tails   |
//! | `ledger.corrupt_records`  | counter | checksum-failing records that stopped replay |
//! | `ledger.audits`           | counter | conservation-auditor passes run       |
//! | `ledger.audit_failures`   | counter | passes where an invariant did not hold |

use std::sync::Arc;

use gm_telemetry::{Clock, Counter, Gauge, Histogram, Registry};

use crate::host::HostId;

/// Instrument handles for one [`crate::market::Market`].
pub struct MarketInstruments {
    registry: Registry,
    clock: Arc<dyn Clock>,
    // Dense cache indexed by `HostId.0`: `set_spot` runs for every host on
    // every tick, and host ids are small sequential integers, so a Vec
    // index keeps the per-tick cost inside the 5 % budget where a map
    // lookup per host did not.
    spot: Vec<Option<Gauge>>,
    // Guard counters, created on the first guard event so honest exports
    // stay byte-identical (the NetInstruments lazy-opt-in pattern).
    guard: Option<GuardInstruments>,
    /// `market.ticks`
    pub ticks: Counter,
    /// `market.tick_us`
    pub tick_us: Histogram,
    /// `market.bids_placed`
    pub bids_placed: Counter,
    /// `market.bids_rejected`
    pub bids_rejected: Counter,
    /// `market.evictions`
    pub evictions: Counter,
    /// `market.refunds`
    pub refunds: Counter,
    /// `market.bank_transfers`
    pub bank_transfers: Counter,
    /// `market.bank_unavailable`
    pub bank_unavailable: Counter,
    /// `market.bank_outages`
    pub bank_outages: Counter,
}

impl MarketInstruments {
    /// Resolve every market instrument against `registry`, stamping tick
    /// durations with `clock`.
    pub fn new(registry: &Registry, clock: Arc<dyn Clock>) -> MarketInstruments {
        MarketInstruments {
            registry: registry.clone(),
            clock,
            spot: Vec::new(),
            guard: None,
            ticks: registry.counter("market.ticks"),
            tick_us: registry.histogram("market.tick_us"),
            bids_placed: registry.counter("market.bids_placed"),
            bids_rejected: registry.counter("market.bids_rejected"),
            evictions: registry.counter("market.evictions"),
            refunds: registry.counter("market.refunds"),
            bank_transfers: registry.counter("market.bank_transfers"),
            bank_unavailable: registry.counter("market.bank_unavailable"),
            bank_outages: registry.counter("market.bank_outages"),
        }
    }

    /// Current time on the injected clock (microseconds).
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Set the `market.spot.<host>` gauge, creating it on first use.
    pub fn set_spot(&mut self, host: HostId, price: f64) {
        let idx = host.0 as usize;
        if idx >= self.spot.len() {
            self.spot.resize(idx + 1, None);
        }
        self.spot[idx]
            .get_or_insert_with(|| self.registry.gauge(&format!("market.spot.{host}")))
            .set(price);
    }

    /// The lazily-registered `market.guard.*` counters, created on the
    /// first guard event (rate limit, breaker trip, or quarantine) so
    /// guard-silent runs export byte-identical JSONL.
    pub fn guard(&mut self) -> &GuardInstruments {
        self.guard
            .get_or_insert_with(|| GuardInstruments::new(&self.registry))
    }

    /// Bulk per-tick spot export: set the gauge of every live host from
    /// the arena's epoch price column (the price just published at this
    /// tick boundary). One pass, no per-host map lookups.
    pub fn export_spots_from(&mut self, arena: &crate::arena::HostArena) {
        for &slot in arena.ordered_slots() {
            let slot = slot as usize;
            if arena.is_live(slot) {
                self.set_spot(arena.id(slot), arena.published_spot(slot));
            }
        }
    }
}

/// Instrument handles for the market guard layer ([`crate::guard`]).
/// Constructing one registers the `market.guard.*` counters, so only runs
/// where a guard actually fired carry them in their export — reach them
/// through [`MarketInstruments::guard`], never eagerly.
#[derive(Clone)]
pub struct GuardInstruments {
    /// `market.guard.rate_limited`
    pub rate_limited: Counter,
    /// `market.guard.breaker_trips`
    pub breaker_trips: Counter,
    /// `market.guard.quarantines`
    pub quarantines: Counter,
    /// `market.guard.refunded_bids`
    pub refunded_bids: Counter,
}

impl GuardInstruments {
    /// Resolve the guard instruments against `registry`.
    pub fn new(registry: &Registry) -> GuardInstruments {
        GuardInstruments {
            rate_limited: registry.counter("market.guard.rate_limited"),
            breaker_trips: registry.counter("market.guard.breaker_trips"),
            quarantines: registry.counter("market.guard.quarantines"),
            refunded_bids: registry.counter("market.guard.refunded_bids"),
        }
    }
}

/// Instrument handles for the live-service client path
/// ([`crate::service`]): request round-trip latency plus timeout, retry
/// and disconnect counters. Cloning shares every instrument.
#[derive(Clone)]
pub struct ServiceInstruments {
    clock: Arc<dyn Clock>,
    /// `service.request_us`
    pub request_us: Histogram,
    /// `service.timeouts`
    pub timeouts: Counter,
    /// `service.retries`
    pub retries: Counter,
    /// `service.disconnects`
    pub disconnects: Counter,
}

impl ServiceInstruments {
    /// Resolve the live-service instruments against `registry`, stamping
    /// request latencies with `clock` (a `WallClock` for real timing).
    pub fn new(registry: &Registry, clock: Arc<dyn Clock>) -> ServiceInstruments {
        ServiceInstruments {
            clock,
            request_us: registry.histogram("service.request_us"),
            timeouts: registry.counter("service.timeouts"),
            retries: registry.counter("service.retries"),
            disconnects: registry.counter("service.disconnects"),
        }
    }

    /// Current time on the injected clock (microseconds).
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }
}

/// Instrument handles for the overload-and-loss layer
/// ([`crate::transport`]): shed / breaker / dedup / drop counters plus
/// per-service queue-depth gauges. Constructing one registers the `net.*`
/// instruments, so only runs that opt into the overload layer carry them
/// in their export.
#[derive(Clone)]
pub struct NetInstruments {
    registry: Registry,
    /// `net.shed`
    pub shed: Counter,
    /// `net.breaker_open`
    pub breaker_open: Counter,
    /// `net.dup_suppressed`
    pub dup_suppressed: Counter,
    /// `net.drops`
    pub drops: Counter,
    /// `net.shed_depth`
    pub shed_depth: Histogram,
}

impl NetInstruments {
    /// Resolve the overload-layer instruments against `registry`.
    pub fn new(registry: &Registry) -> NetInstruments {
        NetInstruments {
            registry: registry.clone(),
            shed: registry.counter("net.shed"),
            breaker_open: registry.counter("net.breaker_open"),
            dup_suppressed: registry.counter("net.dup_suppressed"),
            drops: registry.counter("net.drops"),
            shed_depth: registry.histogram("net.shed_depth"),
        }
    }

    /// The `net.queue_depth.<service>` gauge for one service mailbox.
    pub fn queue_depth_gauge(&self, service: &str) -> Gauge {
        self.registry.gauge(&format!("net.queue_depth.{service}"))
    }
}

/// Instrument handles for the durable ledger ([`crate::bank::Bank`]'s
/// journal plus recovery/audit paths). Cloning shares every counter, so
/// the market and the bank can hold the same set.
#[derive(Clone)]
pub struct LedgerInstruments {
    /// `ledger.appends`
    pub appends: Counter,
    /// `ledger.snapshots`
    pub snapshots: Counter,
    /// `ledger.recoveries`
    pub recoveries: Counter,
    /// `ledger.records_replayed`
    pub records_replayed: Counter,
    /// `ledger.torn_tail_bytes`
    pub torn_tail_bytes: Counter,
    /// `ledger.corrupt_records`
    pub corrupt_records: Counter,
    /// `ledger.audits`
    pub audits: Counter,
    /// `ledger.audit_failures`
    pub audit_failures: Counter,
}

impl LedgerInstruments {
    /// Resolve the ledger instruments against `registry`.
    pub fn new(registry: &Registry) -> LedgerInstruments {
        LedgerInstruments {
            appends: registry.counter("ledger.appends"),
            snapshots: registry.counter("ledger.snapshots"),
            recoveries: registry.counter("ledger.recoveries"),
            records_replayed: registry.counter("ledger.records_replayed"),
            torn_tail_bytes: registry.counter("ledger.torn_tail_bytes"),
            corrupt_records: registry.counter("ledger.corrupt_records"),
            audits: registry.counter("ledger.audits"),
            audit_failures: registry.counter("ledger.audit_failures"),
        }
    }
}
