//! Deterministic lossy transport, bounded mailboxes, and circuit breakers
//! for the live service runtime (`DESIGN.md` §12).
//!
//! The paper's deployment talks to auctioneers and the bank over
//! best-effort networks under open-ended load. This module gives the
//! in-process service runtime the same failure surface, deterministically:
//!
//! * [`LinkProfile`] — per-link drop / delay / duplicate / reorder
//!   probabilities, drawn from the service's own seeded [`SplitMix64`]
//!   stream. The [`LinkProfile::PERFECT`] default performs **zero** RNG
//!   draws, so runs with faults disabled are bit-identical to runs built
//!   before this module existed.
//! * [`QueueGate`] — a bounded-mailbox view over the unbounded `mpsc`
//!   channel: a shared depth counter gated by a capacity and a
//!   [`ShedPolicy`]. `RejectNew` sheds at the sender (the client sees
//!   `Overloaded { retry_after }` and backs off with seeded jitter);
//!   `DropOldest` sheds at the receiver (the oldest queued request is
//!   discarded, which the caller observes as a lost reply and retries).
//! * [`CircuitBreaker`] — a per-endpoint closed / open / half-open
//!   breaker over transport-level failures, driven by an injected
//!   [`Clock`] so DES runs using a `ManualClock` stay reproducible.
//! * [`ReplayCache`] — the bounded replacement for the bank's previously
//!   unbounded transfer dedup map (insertion-order eviction; see
//!   `crate::service` for the durability half of the contract).
//!
//! Control messages (shutdown, fault injection) are exempt from every
//! fault and shed decision: a lossy link must never be able to wedge a
//! shutdown.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gm_des::{Rng64, SplitMix64};
use gm_telemetry::{Clock, Gauge};

use crate::telemetry::NetInstruments;

/// Default `retry_after` hint handed to shed clients.
pub const DEFAULT_RETRY_AFTER: Duration = Duration::from_millis(20);

/// Default capacity of the bank's volatile transfer-replay cache.
pub const DEFAULT_REPLAY_CACHE: usize = 4096;

// ------------------------------------------------------------ link model

/// Per-link fault probabilities for one client→service link.
///
/// All probabilities are in `[0, 1]` and are evaluated against the
/// service's own deterministic RNG stream in a fixed order (drop →
/// duplicate → reorder), so a given `(seed, profile)` pair always yields
/// the same fault schedule for the same message sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Probability a request is silently dropped before the service sees
    /// it (the client observes a timeout and re-sends).
    pub drop_request: f64,
    /// Probability the service's reply is lost after the request executed
    /// (exercises the idempotent-replay path).
    pub drop_reply: f64,
    /// Probability a delivered request is delivered **again** right after
    /// (duplicate delivery; the dedup layers must suppress it).
    pub duplicate: f64,
    /// Probability a request is held back and delivered after the next
    /// message (adjacent-pair reordering).
    pub reorder: f64,
    /// Probability a request is delayed by [`LinkProfile::delay`].
    pub delay_p: f64,
    /// Added latency when a delay fires (real sleep on the live path).
    pub delay: Duration,
}

impl LinkProfile {
    /// The default loss-free link: no drops, no duplicates, no reorders,
    /// no delays, and — crucially — **no RNG draws at all**.
    pub const PERFECT: LinkProfile = LinkProfile {
        drop_request: 0.0,
        drop_reply: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        delay_p: 0.0,
        delay: Duration::ZERO,
    };

    /// `true` when every fault probability is zero (the transport then
    /// skips its RNG entirely).
    pub fn is_perfect(&self) -> bool {
        self.drop_request == 0.0
            && self.drop_reply == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay_p == 0.0
    }

    /// A uniformly lossy profile (drop/dup/reorder all at `p`, replies
    /// included) — the chaos-suite workhorse.
    pub fn lossy(p: f64) -> LinkProfile {
        LinkProfile {
            drop_request: p,
            drop_reply: p,
            duplicate: p,
            reorder: p,
            ..LinkProfile::PERFECT
        }
    }
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile::PERFECT
    }
}

// --------------------------------------------------------- bounded queue

/// What to do when a service mailbox is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Refuse new requests at the sender: the client gets
    /// `ServiceError::Overloaded { retry_after }` and backs off.
    #[default]
    RejectNew,
    /// Accept the new request and discard the oldest queued one at the
    /// receiver; the displaced caller observes a lost reply and retries.
    DropOldest,
}

/// Mailbox bound for one service.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueConfig {
    /// Maximum queued (sent but not yet received) requests; `None` keeps
    /// the historical unbounded mailbox.
    pub capacity: Option<usize>,
    /// Shed policy once the mailbox is full.
    pub policy: ShedPolicy,
    /// Back-off hint returned with `Overloaded` rejections.
    pub retry_after: Duration,
}

impl QueueConfig {
    /// A bounded mailbox of `capacity` requests with the given policy and
    /// the default retry hint.
    pub fn bounded(capacity: usize, policy: ShedPolicy) -> QueueConfig {
        QueueConfig {
            capacity: Some(capacity),
            policy,
            retry_after: DEFAULT_RETRY_AFTER,
        }
    }
}

/// Shared depth accounting for one service mailbox. Clones share the
/// counter: clients increment on send, the service decrements on receive.
#[derive(Clone)]
pub struct QueueGate {
    depth: Arc<AtomicUsize>,
    config: QueueConfig,
    gauge: Option<Gauge>,
}

impl QueueGate {
    /// Gate for one service; `gauge`, when present, tracks live depth as
    /// `net.queue_depth.<endpoint>`.
    pub fn new(config: QueueConfig, gauge: Option<Gauge>) -> QueueGate {
        QueueGate {
            depth: Arc::new(AtomicUsize::new(0)),
            config,
            gauge,
        }
    }

    /// Current queued-request count.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The configured bound.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Client-side admission: count one send, or refuse it with the
    /// retry-after hint when the mailbox is full under `RejectNew`.
    pub fn try_enqueue(&self) -> Result<(), Duration> {
        if let Some(cap) = self.config.capacity {
            if self.config.policy == ShedPolicy::RejectNew
                && self.depth.load(Ordering::Relaxed) >= cap
            {
                return Err(self.config.retry_after);
            }
        }
        self.count_send();
        Ok(())
    }

    /// Count a control-plane send that bypasses admission (shutdown,
    /// fault injection, the scatter-gather tick).
    pub fn count_send(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(g) = &self.gauge {
            g.set(d as f64);
        }
    }

    /// Roll back a counted send whose channel-send failed.
    pub fn cancel_send(&self) {
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Service-side: count one receive. Returns `true` when the popped
    /// (oldest) message should be shed because the backlog is still over
    /// capacity under `DropOldest`.
    pub fn on_recv(&self) -> bool {
        let before = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            })
            .unwrap_or(0);
        let after = before.saturating_sub(1);
        if let Some(g) = &self.gauge {
            g.set(after as f64);
        }
        match self.config.capacity {
            Some(cap) => self.config.policy == ShedPolicy::DropOldest && after >= cap,
            None => false,
        }
    }
}

// ------------------------------------------------------ service transport

/// The service-side end of one lossy, bounded link: wraps the raw
/// `mpsc::Receiver` and applies, deterministically, the configured fault
/// profile and shed policy to every delivered message.
pub struct ServiceTransport<R> {
    rx: Receiver<R>,
    /// Fault state; `None` for a perfect link (plain `recv`, zero draws).
    faults: Option<LinkFaults<R>>,
    gate: Option<QueueGate>,
    is_control: fn(&R) -> bool,
    telemetry: Option<NetInstruments>,
    /// One-shot reply drop migrated from the old `inject_drop_next_reply`.
    drop_next_reply: bool,
}

struct LinkFaults<R> {
    profile: LinkProfile,
    rng: SplitMix64,
    /// Messages owed to the service ahead of the channel: released
    /// reorder holds and duplicate deliveries.
    pending: VecDeque<R>,
    /// A message held back by a reorder fault.
    held: Option<R>,
}

impl<R: Clone> ServiceTransport<R> {
    /// Transport for one service. `is_control` marks messages exempt from
    /// faults and shedding (shutdown must always get through).
    pub fn new(
        rx: Receiver<R>,
        profile: LinkProfile,
        fault_seed: u64,
        gate: Option<QueueGate>,
        telemetry: Option<NetInstruments>,
        is_control: fn(&R) -> bool,
    ) -> ServiceTransport<R> {
        let faults = if profile.is_perfect() {
            None
        } else {
            Some(LinkFaults {
                profile,
                rng: SplitMix64::new(fault_seed),
                pending: VecDeque::new(),
                held: None,
            })
        };
        ServiceTransport {
            rx,
            faults,
            gate,
            is_control,
            telemetry,
            drop_next_reply: false,
        }
    }

    /// Next request the service should handle, or `None` once every
    /// sender is gone (queued duplicates and reorder holds are flushed
    /// before the link reports closed).
    pub fn recv(&mut self) -> Option<R> {
        loop {
            if let Some(f) = &mut self.faults {
                if let Some(m) = f.pending.pop_front() {
                    return Some(m);
                }
            }
            let msg = match self.rx.recv() {
                Ok(m) => m,
                Err(_) => {
                    return self.faults.as_mut().and_then(|f| f.held.take());
                }
            };
            let control = (self.is_control)(&msg);
            if let Some(gate) = &self.gate {
                let shed_oldest = gate.on_recv();
                if shed_oldest && !control {
                    if let Some(net) = &self.telemetry {
                        net.shed.inc();
                        net.shed_depth.record(gate.depth() as f64);
                    }
                    continue;
                }
            }
            if control {
                return Some(msg);
            }
            let Some(f) = &mut self.faults else {
                return Some(msg);
            };
            if f.profile.drop_request > 0.0 && f.rng.next_f64() < f.profile.drop_request {
                if let Some(net) = &self.telemetry {
                    net.drops.inc();
                }
                continue;
            }
            if f.profile.delay_p > 0.0 && f.rng.next_f64() < f.profile.delay_p {
                std::thread::sleep(f.profile.delay);
            }
            if f.profile.duplicate > 0.0 && f.rng.next_f64() < f.profile.duplicate {
                f.pending.push_back(msg.clone());
            }
            if f.profile.reorder > 0.0
                && f.held.is_none()
                && f.rng.next_f64() < f.profile.reorder
            {
                f.held = Some(msg);
                continue;
            }
            if let Some(h) = f.held.take() {
                f.pending.push_back(h);
            }
            return Some(msg);
        }
    }

    /// Should the reply to the request just handled be lost? Combines the
    /// one-shot injected drop with the link's `drop_reply` probability.
    pub fn reply_lost(&mut self) -> bool {
        if std::mem::take(&mut self.drop_next_reply) {
            return true;
        }
        let Some(f) = &mut self.faults else {
            return false;
        };
        if f.profile.drop_reply > 0.0 && f.rng.next_f64() < f.profile.drop_reply {
            if let Some(net) = &self.telemetry {
                net.drops.inc();
            }
            return true;
        }
        false
    }

    /// Fault injection: lose the reply to the next (non-control) request.
    pub fn inject_drop_next_reply(&mut self) {
        self.drop_next_reply = true;
    }

    /// Shared net telemetry, for dedup bookkeeping in the service loop.
    pub fn telemetry(&self) -> Option<&NetInstruments> {
        self.telemetry.as_ref()
    }
}

// -------------------------------------------------------- circuit breaker

/// Circuit-breaker tuning for one endpoint.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Outcomes per tumbling window before the failure rate is judged.
    pub window: u32,
    /// Failure fraction (`failures / window`) at or above which the
    /// breaker opens.
    pub failure_threshold: f64,
    /// How long an open breaker fast-fails before allowing a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            cooldown: Duration::from_millis(100),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed { successes: u32, failures: u32 },
    Open { since_micros: u64 },
    HalfOpen { probe_inflight: bool },
}

/// A closed / open / half-open circuit breaker over transport-level
/// failures for one endpoint. Clones share state, so every client of the
/// endpoint sees the same circuit.
#[derive(Clone)]
pub struct CircuitBreaker {
    state: Arc<Mutex<BreakerState>>,
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    telemetry: Option<NetInstruments>,
}

impl CircuitBreaker {
    /// Breaker driven by `clock` (a `ManualClock` keeps DES runs
    /// reproducible; a `WallClock` suits the live runtime).
    pub fn new(
        config: BreakerConfig,
        clock: Arc<dyn Clock>,
        telemetry: Option<NetInstruments>,
    ) -> CircuitBreaker {
        CircuitBreaker {
            state: Arc::new(Mutex::new(BreakerState::Closed {
                successes: 0,
                failures: 0,
            })),
            config,
            clock,
            telemetry,
        }
    }

    /// May a request proceed right now? An open breaker fast-fails until
    /// its cooldown elapses, then admits exactly one half-open probe.
    pub fn admit(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        match *st {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { since_micros } => {
                let now = self.clock.now_micros();
                if now.saturating_sub(since_micros) >= self.config.cooldown.as_micros() as u64 {
                    *st = BreakerState::HalfOpen {
                        probe_inflight: true,
                    };
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen {
                ref mut probe_inflight,
            } => {
                if *probe_inflight {
                    false
                } else {
                    *probe_inflight = true;
                    true
                }
            }
        }
    }

    /// Record a transport-level success (the service answered).
    pub fn record_success(&self) {
        let mut st = self.state.lock().unwrap();
        match *st {
            BreakerState::Closed {
                ref mut successes, ..
            } => {
                *successes += 1;
                self.roll_window(&mut st);
            }
            BreakerState::HalfOpen { .. } => {
                *st = BreakerState::Closed {
                    successes: 0,
                    failures: 0,
                };
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Record a transport-level failure (timeout, disconnect, overload).
    pub fn record_failure(&self) {
        let mut st = self.state.lock().unwrap();
        match *st {
            BreakerState::Closed {
                ref mut failures, ..
            } => {
                *failures += 1;
                self.roll_window(&mut st);
            }
            BreakerState::HalfOpen { .. } => self.trip(&mut st),
            BreakerState::Open { .. } => {}
        }
    }

    /// `true` while the breaker is open or probing (degraded mode).
    pub fn is_open(&self) -> bool {
        !matches!(*self.state.lock().unwrap(), BreakerState::Closed { .. })
    }

    /// Judge a completed tumbling window; trips on a failure rate at or
    /// above the threshold.
    fn roll_window(&self, st: &mut BreakerState) {
        let BreakerState::Closed {
            successes,
            failures,
        } = *st
        else {
            return;
        };
        let total = successes + failures;
        if total < self.config.window {
            return;
        }
        if f64::from(failures) / f64::from(total) >= self.config.failure_threshold {
            self.trip(st);
        } else {
            *st = BreakerState::Closed {
                successes: 0,
                failures: 0,
            };
        }
    }

    fn trip(&self, st: &mut BreakerState) {
        *st = BreakerState::Open {
            since_micros: self.clock.now_micros(),
        };
        if let Some(net) = &self.telemetry {
            net.breaker_open.inc();
        }
    }
}

// ----------------------------------------------------------- replay cache

/// A bounded, insertion-order-evicting replay cache: the volatile half of
/// the bank's transfer idempotency (the durable half is the journaled
/// applied-request-id set; see `DESIGN.md` §12).
///
/// Before eviction a duplicate request id replays the recorded outcome
/// byte-for-byte; after eviction the durable set still refuses to
/// re-execute it, so money never moves twice either way.
pub struct ReplayCache<V> {
    map: HashMap<u64, V>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl<V> ReplayCache<V> {
    /// Cache holding at most `capacity` outcomes (at least 1).
    pub fn new(capacity: usize) -> ReplayCache<V> {
        ReplayCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Recorded outcome for `id`, if not yet evicted.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.map.get(&id)
    }

    /// Record `id → outcome`, evicting the oldest entry over capacity.
    pub fn insert(&mut self, id: u64, outcome: V) {
        if self.map.insert(id, outcome).is_none() {
            self.order.push_back(id);
            if self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    /// Live (non-evicted) entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------- jitter

/// Seeded back-off jitter: scales `base` by
/// [`gm_des::rng::jitter_factor`] of `(salt, attempt)`, so overloaded clients
/// de-synchronise deterministically instead of thundering back together.
pub fn jittered_backoff(base: Duration, jitter: f64, salt: u64, attempt: u32) -> Duration {
    if jitter <= 0.0 {
        return base;
    }
    Duration::from_secs_f64(base.as_secs_f64() * gm_des::rng::jitter_factor(jitter, salt, attempt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    use gm_telemetry::ManualClock;

    fn transport(
        profile: LinkProfile,
        seed: u64,
        gate: Option<QueueGate>,
    ) -> (std::sync::mpsc::Sender<u32>, ServiceTransport<u32>) {
        let (tx, rx) = channel();
        // Odd numbers are "control" in these tests.
        (tx, ServiceTransport::new(rx, profile, seed, gate, None, |m| m % 2 == 1))
    }

    #[test]
    fn perfect_link_is_fifo_and_draws_no_randomness() {
        let (tx, mut t) = transport(LinkProfile::PERFECT, 7, None);
        assert!(t.faults.is_none(), "perfect link must not build an RNG");
        for i in 0..10u32 {
            tx.send(i * 2).unwrap();
        }
        drop(tx);
        let got: Vec<u32> = std::iter::from_fn(|| t.recv()).collect();
        assert_eq!(got, (0..10u32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn lossy_link_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (tx, mut t) = transport(LinkProfile::lossy(0.3), seed, None);
            for i in 0..200u32 {
                tx.send(i * 2).unwrap();
            }
            drop(tx);
            std::iter::from_fn(|| t.recv()).collect::<Vec<u32>>()
        };
        assert_eq!(run(42), run(42), "same seed, same fault schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
        // Duplicates can outnumber drops in raw length, so judge loss by
        // how many *distinct* originals ever arrived.
        let delivered = run(42);
        let unique: std::collections::HashSet<u32> = delivered.iter().copied().collect();
        assert!(unique.len() < 200, "some messages must drop");
        assert!(delivered.len() > unique.len(), "some messages must duplicate");
    }

    #[test]
    fn duplicates_are_delivered_twice_and_reorders_swap_neighbours() {
        let dup_only = LinkProfile {
            duplicate: 1.0,
            ..LinkProfile::PERFECT
        };
        let (tx, mut t) = transport(dup_only, 1, None);
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(t.recv(), Some(2));
        assert_eq!(t.recv(), Some(2), "duplicate delivery");
        assert_eq!(t.recv(), None);

        let reorder_only = LinkProfile {
            reorder: 1.0,
            ..LinkProfile::PERFECT
        };
        let (tx, mut t) = transport(reorder_only, 1, None);
        tx.send(2).unwrap();
        tx.send(4).unwrap();
        drop(tx);
        // 2 is held; 4 is also a reorder candidate but the hold slot is
        // taken, so 4 delivers and releases 2 behind it.
        assert_eq!(t.recv(), Some(4));
        assert_eq!(t.recv(), Some(2));
        assert_eq!(t.recv(), None);
    }

    #[test]
    fn control_messages_bypass_faults_and_shedding() {
        let black_hole = LinkProfile {
            drop_request: 1.0,
            ..LinkProfile::PERFECT
        };
        let gate = QueueGate::new(QueueConfig::bounded(1, ShedPolicy::DropOldest), None);
        let (tx, mut t) = transport(black_hole, 5, Some(gate.clone()));
        gate.count_send();
        tx.send(2).unwrap(); // shed by the gate (backlog over capacity)
        gate.count_send();
        tx.send(1).unwrap(); // control: must get through
        drop(tx);
        assert_eq!(t.recv(), Some(1));
        assert_eq!(t.recv(), None);
    }

    #[test]
    fn reject_new_gate_refuses_at_capacity_and_drains() {
        let gate = QueueGate::new(QueueConfig::bounded(2, ShedPolicy::RejectNew), None);
        assert!(gate.try_enqueue().is_ok());
        assert!(gate.try_enqueue().is_ok());
        let err = gate.try_enqueue().unwrap_err();
        assert_eq!(err, DEFAULT_RETRY_AFTER);
        assert!(!gate.on_recv(), "RejectNew never sheds at the receiver");
        assert!(gate.try_enqueue().is_ok(), "a drain frees a slot");
    }

    #[test]
    fn drop_oldest_sheds_backlog_down_to_capacity() {
        let gate = QueueGate::new(QueueConfig::bounded(2, ShedPolicy::DropOldest), None);
        let (tx, mut t) = transport(LinkProfile::PERFECT, 0, Some(gate.clone()));
        for i in 0..5u32 {
            gate.count_send();
            tx.send(i * 2).unwrap();
        }
        drop(tx);
        // Backlog 5, capacity 2: the three oldest shed, the last two land.
        let got: Vec<u32> = std::iter::from_fn(|| t.recv()).collect();
        assert_eq!(got, vec![6, 8]);
        assert_eq!(gate.depth(), 0);
    }

    #[test]
    fn breaker_trips_on_failure_rate_and_recovers_via_half_open_probe() {
        let clock = Arc::new(ManualClock::new());
        let cfg = BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            cooldown: Duration::from_micros(100),
        };
        let b = CircuitBreaker::new(cfg, clock.clone(), None);
        assert!(b.admit());
        // 2 failures out of 4 → 50% ≥ threshold → trips.
        b.record_success();
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert!(b.is_open());
        assert!(!b.admit(), "open breaker fast-fails");
        clock.advance_micros(100);
        assert!(b.admit(), "cooldown elapsed: one probe admitted");
        assert!(!b.admit(), "only one half-open probe at a time");
        b.record_failure();
        assert!(!b.admit(), "failed probe re-opens");
        clock.advance_micros(100);
        assert!(b.admit());
        b.record_success();
        assert!(!b.is_open(), "successful probe closes the breaker");
        assert!(b.admit());
    }

    #[test]
    fn healthy_window_resets_without_tripping() {
        let clock = Arc::new(ManualClock::new());
        let b = CircuitBreaker::new(
            BreakerConfig {
                window: 4,
                failure_threshold: 0.5,
                cooldown: Duration::from_micros(1),
            },
            clock,
            None,
        );
        // 1 failure in 4 (25%) < 50%: window resets, breaker stays closed.
        b.record_failure();
        b.record_success();
        b.record_success();
        b.record_success();
        assert!(!b.is_open());
        // The failure above must not linger into the next window.
        b.record_failure();
        b.record_success();
        b.record_success();
        b.record_success();
        assert!(!b.is_open());
    }

    #[test]
    fn replay_cache_evicts_in_insertion_order() {
        let mut c: ReplayCache<&str> = ReplayCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.get(1), None, "oldest evicted");
        assert_eq!(c.get(2), Some(&"b"));
        assert_eq!(c.get(3), Some(&"c"));
        assert_eq!(c.len(), 2);
        // Re-inserting an existing id must not double-count it.
        c.insert(3, "c2");
        assert_eq!(c.get(2), Some(&"b"));
        assert_eq!(c.get(3), Some(&"c2"));
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(100);
        let a = jittered_backoff(base, 0.5, 9, 1);
        let b = jittered_backoff(base, 0.5, 9, 1);
        assert_eq!(a, b);
        assert_ne!(a, jittered_backoff(base, 0.5, 9, 2));
        for attempt in 0..32 {
            let d = jittered_backoff(base, 0.5, 1234, attempt);
            assert!(d >= Duration::from_millis(75) && d < Duration::from_millis(125));
        }
        assert_eq!(jittered_backoff(base, 0.0, 9, 1), base);
        // Delays recorded before the factor moved to `gm_des::rng`.
        for (salt, attempt, ns) in [
            (9, 1, 75_839_415),
            (9, 2, 120_350_074),
            (1234, 0, 111_533_326),
            (1234, 31, 101_210_225),
            (u64::MAX, 7, 102_953_864),
        ] {
            assert_eq!(jittered_backoff(base, 0.5, salt, attempt).as_nanos(), ns, "salt {salt} attempt {attempt}");
        }
    }
}
