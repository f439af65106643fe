//! The "live" service runtime: Tycoon as a set of concurrent services.
//!
//! The paper's deployment runs the Bank, the Service Location Service and
//! one Auctioneer per host as *networked services*. The experiments in
//! this repository use the deterministic in-process [`crate::Market`], but
//! the same market code also runs behind message-passing service
//! boundaries: the bank and each host's auctioneer is a thread owning its
//! state, clients talk to it through typed request/reply channels
//! (`std::sync::mpsc`), and the allocation tick is a scatter-gather across
//! all auctioneer services.
//!
//! Both kinds of service are one private actor: an `Endpoint` (the
//! thread, its mailbox gate, lossy transport and circuit breaker, control
//! sends and stop) handing out `Client`s (one `call` with deadline,
//! retries and telemetry). The bank and the auctioneers differ only in
//! their request type and handler; [`BankClient`] and
//! [`AuctioneerClient`] are typed facades over the shared client.
//!
//! Failure semantics (`DESIGN.md` §8): every client call is fallible. A
//! request is sent, the reply awaited with `recv_timeout`, and on timeout
//! re-sent a bounded number of times before surfacing
//! [`ServiceError::Timeout`]; a service whose thread has exited yields
//! [`ServiceError::Disconnected`] instead of a panic, including on the
//! shutdown path (a client outliving its service gets an error). Transfers
//! are idempotent: each logical transfer carries a client-chosen request
//! id and the bank service replays the recorded outcome for a retried id,
//! so a retry after a lost reply cannot double-debit. The scatter-gather
//! tick degrades gracefully — a dead auctioneer is skipped and its host
//! reported crashed rather than deadlocking the tick.
//!
//! `DESIGN.md` §7: the integration test suite checks that a [`LiveMarket`]
//! and a plain [`crate::Market`] driven with the same schedule produce
//! identical allocations — the service boundary adds concurrency, not
//! behaviour.
//!
//! Overload & loss (`DESIGN.md` §12): every client→service link runs
//! through a [`crate::transport`] shim — a seedable [`LinkProfile`] of
//! drop/delay/duplicate/reorder faults (perfect by default), a bounded
//! mailbox with a [`ShedPolicy`], and an optional per-endpoint
//! [`CircuitBreaker`]. Transfer idempotency is two-layered: a bounded
//! [`ReplayCache`] replays recent outcomes byte-for-byte, and the bank's
//! durable applied-request-id set refuses to re-execute anything older —
//! so a duplicate can never double-debit, before or after eviction, even
//! across a bank crash and recovery.
//!
//! Two constructors: [`LiveMarket::spawn`] (perfect links, volatile bank)
//! and [`LiveMarket::spawn_with`] (a [`NetConfig`] and, optionally, a
//! journal that makes the bank durable and restartable).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use gm_crypto::PublicKey;
use gm_ledger::SharedJournal;
use gm_telemetry::{Clock, WallClock};

use crate::auction::{Allocation, Auctioneer, BidHandle, UserId};
use crate::bank::{AccountId, Bank, BankError, Receipt};
use crate::host::{HostId, HostSpec};
use crate::ledger::{RecoverError, RecoveryReport};
use crate::money::Credits;
use crate::telemetry::{NetInstruments, ServiceInstruments};
use crate::transport::{
    jittered_backoff, BreakerConfig, CircuitBreaker, LinkProfile, QueueConfig, QueueGate,
    ReplayCache, ServiceTransport, ShedPolicy, DEFAULT_REPLAY_CACHE,
};

/// Default per-request reply deadline. Healthy in-process services reply
/// in microseconds; the deadline only fires when a service is wedged.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_millis(500);

/// Default number of re-sends after a timed-out reply before giving up.
pub const DEFAULT_CALL_RETRIES: u32 = 3;

/// Default deadline for one auctioneer's reply inside the scatter-gather
/// tick before the host is declared crashed.
pub const DEFAULT_TICK_TIMEOUT: Duration = Duration::from_secs(2);

/// Jitter fraction applied to `retry_after` back-off sleeps: a ±25 %
/// spread around the advised delay.
const OVERLOAD_BACKOFF_JITTER: f64 = 0.5;

/// RNG stream salt for the bank service's link faults.
const BANK_FAULT_STREAM: u64 = 0x6261_6e6b_2d6c_696e;

/// RNG stream salt base for auctioneer link faults (mixed with host id).
const AUCTIONEER_FAULT_STREAM: u64 = 0x6175_6374_2d6c_696e;

// ---------------------------------------------------------- net config

/// Overload-and-loss configuration for a [`LiveMarket`] and its services.
///
/// The default is the historical runtime: perfect links, unbounded
/// mailboxes, no breakers, no `net.*` telemetry — byte-for-byte the
/// behaviour before this layer existed.
#[derive(Clone)]
pub struct NetConfig {
    /// Fault profile of every client→service link (bank and auctioneers;
    /// each endpoint draws from its own seeded stream).
    pub link: LinkProfile,
    /// Mailbox bound and shed policy applied to every service.
    pub queue: QueueConfig,
    /// Per-endpoint circuit breaker; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// Capacity of the bank's volatile transfer replay cache.
    pub replay_cache: usize,
    /// Seed for the deterministic per-link fault streams.
    pub fault_seed: u64,
    /// Clock driving breaker cooldowns (`ManualClock` for DES-style
    /// reproducibility, `WallClock` for real time).
    pub clock: Arc<dyn Clock>,
    /// `net.*` instruments; `None` keeps the export free of them.
    pub telemetry: Option<NetInstruments>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            link: LinkProfile::PERFECT,
            queue: QueueConfig::default(),
            breaker: None,
            replay_cache: DEFAULT_REPLAY_CACHE,
            fault_seed: 0,
            clock: Arc::new(WallClock::new()),
            telemetry: None,
        }
    }
}

impl NetConfig {
    /// A chaos-suite configuration: uniformly lossy links at probability
    /// `p`, a small bounded mailbox, and default breakers.
    pub fn chaos(p: f64, fault_seed: u64, capacity: usize, policy: ShedPolicy) -> NetConfig {
        NetConfig {
            link: LinkProfile::lossy(p),
            queue: QueueConfig::bounded(capacity, policy),
            breaker: Some(BreakerConfig::default()),
            fault_seed,
            ..NetConfig::default()
        }
    }
}

// ------------------------------------------------------------- errors

/// Why a live-service request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// No reply arrived within the deadline, even after bounded retries.
    Timeout,
    /// The service thread has exited (shut down, killed, or panicked).
    Disconnected,
    /// The service is healthy but the bank rejected the operation.
    Rejected(BankError),
    /// The service mailbox is full and shed this request; retry no sooner
    /// than `retry_after` (clients back off with seeded jitter).
    Overloaded {
        /// Back-off hint from the service's [`QueueConfig`].
        retry_after: Duration,
    },
    /// The endpoint's circuit breaker is open: recent calls failed at or
    /// above the configured rate, so this one fast-failed without being
    /// sent. Callers should fall back to degraded mode until the breaker's
    /// half-open probe succeeds.
    CircuitOpen,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Timeout => write!(f, "service did not reply within the deadline"),
            ServiceError::Disconnected => write!(f, "service is no longer running"),
            ServiceError::Rejected(e) => write!(f, "request rejected: {e}"),
            ServiceError::Overloaded { retry_after } => {
                write!(f, "service overloaded; retry after {retry_after:?}")
            }
            ServiceError::CircuitOpen => {
                write!(f, "circuit breaker open; request fast-failed")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<BankError> for ServiceError {
    fn from(e: BankError) -> Self {
        ServiceError::Rejected(e)
    }
}

// ------------------------------------------------------------ endpoint

/// A service's request message type.
trait Request: Clone + Send + 'static {
    /// The message that stops the service loop.
    const SHUTDOWN: Self;
    /// Is this [`Request::SHUTDOWN`]?
    fn is_shutdown(&self) -> bool;
    /// Control traffic: exempt from link faults, shedding and reply loss.
    fn is_control(&self) -> bool;
}

/// Whether the link lost the reply to the request being handled. The
/// request executes either way; a lost reply is invisible to the service
/// (the sender side sees a timeout, not an error).
#[derive(Clone, Copy)]
struct Respond {
    lost: bool,
}

impl Respond {
    fn to<T>(self, reply: Sender<T>, value: T) {
        if !self.lost {
            let _ = reply.send(value);
        }
    }
}

/// The loop every service thread runs: handle requests until shutdown (or
/// until every sender is gone), drawing one reply-loss decision per
/// non-control request. Control replies are never lost: a lost tick sweep
/// would let the link falsely kill a host, and an injected reply drop
/// must not be consumed by the injection message itself.
fn serve<R: Request>(
    mut transport: ServiceTransport<R>,
    mut handle: impl FnMut(&mut ServiceTransport<R>, R, Respond),
) {
    while let Some(req) = transport.recv() {
        if req.is_shutdown() {
            break;
        }
        let lost = !req.is_control() && transport.reply_lost();
        handle(&mut transport, req, Respond { lost });
    }
}

/// A client handle to one endpoint: the request channel, the reply
/// deadline and retry budget, optional `service.*` telemetry, and the
/// client half of the overload layer — the endpoint's shared mailbox gate
/// and breaker, `net.*` instruments, and the jitter salt for
/// `retry_after` back-off.
#[derive(Clone)]
struct Client<R> {
    tx: Sender<R>,
    timeout: Duration,
    retries: u32,
    telemetry: Option<ServiceInstruments>,
    gate: Option<QueueGate>,
    breaker: Option<CircuitBreaker>,
    net: Option<NetInstruments>,
    jitter_salt: u64,
}

impl<R> Client<R> {
    fn with_deadline(self, timeout: Duration, retries: u32) -> Self {
        Client {
            timeout,
            retries,
            ..self
        }
    }

    fn with_telemetry(self, instruments: ServiceInstruments) -> Self {
        Client {
            telemetry: Some(instruments),
            ..self
        }
    }

    /// Send a message the gate has already counted, rolling the count
    /// back if the service is gone. Returns whether it was sent.
    fn send_counted(&self, req: R) -> bool {
        let sent = self.tx.send(req).is_ok();
        if !sent {
            if let Some(gate) = &self.gate {
                gate.cancel_send();
            }
        }
        sent
    }

    /// Send a control message (shutdown, fault injection, the tick),
    /// keeping the mailbox depth accounting balanced: control bypasses
    /// shedding but is still received. Returns whether it was sent.
    fn send_control(&self, req: R) -> bool {
        if let Some(gate) = &self.gate {
            gate.count_send();
        }
        self.send_counted(req)
    }

    /// Send `make(reply)` and await the reply with a deadline, re-sending
    /// up to `retries` times when no reply arrives.
    ///
    /// A reply channel closed without an answer counts as a lost reply
    /// (the service dropped it, or died with the request queued) and is
    /// retried like a timeout: if the service really is gone, the re-send
    /// itself fails and surfaces [`ServiceError::Disconnected`]. Only a
    /// dead request channel is proof of disconnection.
    ///
    /// The overload layer wraps this: an open circuit breaker fast-fails
    /// with [`ServiceError::CircuitOpen`] before anything is sent, a full
    /// mailbox under `RejectNew` sheds the attempt and backs off with
    /// seeded jitter, and every transport-level outcome feeds the
    /// breaker's failure window.
    fn call<T>(&self, make: impl FnMut(Sender<T>) -> R) -> Result<T, ServiceError> {
        if let Some(b) = &self.breaker {
            if !b.admit() {
                return Err(ServiceError::CircuitOpen);
            }
        }
        let result = self.attempts(make);
        if let Some(b) = &self.breaker {
            // Every error here is transport-level (timeout, disconnect,
            // overload) — application-level rejections never reach this
            // function as `Err`, so they correctly count as successes.
            if result.is_ok() {
                b.record_success();
            } else {
                b.record_failure();
            }
        }
        result
    }

    /// The retry loop of [`Client::call`], without the breaker wrapper.
    fn attempts<T>(&self, mut make: impl FnMut(Sender<T>) -> R) -> Result<T, ServiceError> {
        let telemetry = self.telemetry.as_ref();
        let started_micros = telemetry.map(|t| t.now_micros());
        let mut attempt = 0;
        loop {
            if let Some(gate) = &self.gate {
                if let Err(retry_after) = gate.try_enqueue() {
                    if let Some(n) = &self.net {
                        n.shed.inc();
                        n.shed_depth.record(gate.depth() as f64);
                    }
                    attempt += 1;
                    if attempt > self.retries {
                        return Err(ServiceError::Overloaded { retry_after });
                    }
                    if let Some(t) = telemetry {
                        t.retries.inc();
                    }
                    std::thread::sleep(jittered_backoff(
                        retry_after,
                        OVERLOAD_BACKOFF_JITTER,
                        self.jitter_salt,
                        attempt,
                    ));
                    continue;
                }
            }
            let (reply, rx) = channel();
            if !self.send_counted(make(reply)) {
                if let Some(t) = telemetry {
                    t.disconnects.inc();
                }
                return Err(ServiceError::Disconnected);
            }
            match rx.recv_timeout(self.timeout) {
                Ok(v) => {
                    if let (Some(t), Some(start)) = (telemetry, started_micros) {
                        t.request_us
                            .record_micros(t.now_micros().saturating_sub(start));
                    }
                    return Ok(v);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    attempt += 1;
                    if attempt > self.retries {
                        if let Some(t) = telemetry {
                            t.timeouts.inc();
                        }
                        return Err(ServiceError::Timeout);
                    }
                    if let Some(t) = telemetry {
                        t.retries.inc();
                    }
                }
            }
        }
    }
}

/// One running service: its thread, which returns the service state `S`
/// when stopped, and a template client holding the endpoint's channel,
/// mailbox gate and breaker. Dropping an endpoint stops it.
struct Endpoint<R: Request, S> {
    handle: Option<JoinHandle<S>>,
    client: Client<R>,
}

impl<R: Request, S> Endpoint<R, S> {
    /// Spawn thread `tycoon-<name>` running `run` over a transport with
    /// `net`'s link profile and mailbox bound. The endpoint's fault and
    /// back-off jitter stream is seeded with `net.fault_seed ^ stream`;
    /// with a bound or `net.*` telemetry the mailbox depth is exported as
    /// `net.queue_depth.<name>`.
    fn spawn(
        name: &str,
        stream: u64,
        net: &NetConfig,
        run: impl FnOnce(ServiceTransport<R>) -> S + Send + 'static,
    ) -> Self
    where
        S: Send + 'static,
    {
        let (tx, rx) = channel::<R>();
        let gate = (net.queue.capacity.is_some() || net.telemetry.is_some()).then(|| {
            QueueGate::new(
                net.queue,
                net.telemetry.as_ref().map(|t| t.queue_depth_gauge(name)),
            )
        });
        let fault_seed = net.fault_seed ^ stream;
        let transport = ServiceTransport::new(
            rx,
            net.link,
            fault_seed,
            gate.clone(),
            net.telemetry.clone(),
            R::is_control,
        );
        let handle = std::thread::Builder::new()
            .name(format!("tycoon-{name}"))
            .spawn(move || run(transport))
            .expect("spawn service thread");
        let breaker = net
            .breaker
            .map(|cfg| CircuitBreaker::new(cfg, net.clock.clone(), net.telemetry.clone()));
        Endpoint {
            handle: Some(handle),
            client: Client {
                tx,
                timeout: DEFAULT_CALL_TIMEOUT,
                retries: DEFAULT_CALL_RETRIES,
                telemetry: None,
                gate,
                breaker,
                net: net.telemetry.clone(),
                jitter_salt: fault_seed,
            },
        }
    }

    /// A client on the default deadline, recording `service.*` metrics
    /// through `telemetry` when given.
    fn client(&self, telemetry: Option<&ServiceInstruments>) -> Client<R> {
        Client {
            telemetry: telemetry.cloned(),
            ..self.client.clone()
        }
    }

    /// Stop the service and join its thread, returning its final state;
    /// `None` when it was already stopped or its thread panicked. Clients
    /// outliving the service get [`ServiceError::Disconnected`].
    fn stop(&mut self) -> Option<S> {
        let handle = self.handle.take()?;
        self.client.send_control(R::SHUTDOWN);
        handle.join().ok()
    }
}

impl<R: Request, S> Drop for Endpoint<R, S> {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------- bank

#[derive(Clone)]
enum BankRequest {
    OpenAccount {
        owner: PublicKey,
        label: String,
        reply: Sender<AccountId>,
    },
    Mint {
        to: AccountId,
        amount: Credits,
        reply: Sender<Result<(), BankError>>,
    },
    Transfer {
        request_id: u64,
        from: AccountId,
        to: AccountId,
        amount: Credits,
        reply: Sender<Result<Receipt, BankError>>,
    },
    Balance {
        id: AccountId,
        reply: Sender<Result<Credits, BankError>>,
    },
    VerifyReceipt {
        receipt: Receipt,
        reply: Sender<bool>,
    },
    TotalMoney {
        reply: Sender<Credits>,
    },
    /// Fault injection: silently drop the reply to the next request, as if
    /// the network lost it. The request itself is still executed.
    InjectDropNextReply,
    Shutdown,
}

impl Request for BankRequest {
    const SHUTDOWN: Self = BankRequest::Shutdown;

    fn is_shutdown(&self) -> bool {
        matches!(self, BankRequest::Shutdown)
    }

    fn is_control(&self) -> bool {
        matches!(
            self,
            BankRequest::Shutdown | BankRequest::InjectDropNextReply
        )
    }
}

/// Spawn the bank service. `generation` (bumped on every restart) gives a
/// replacement bank a fresh link-fault schedule instead of replaying the
/// crashed one's.
fn spawn_bank(bank: Bank, net: &NetConfig, generation: u64) -> Endpoint<BankRequest, Bank> {
    let stream = BANK_FAULT_STREAM ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let replay_capacity = net.replay_cache;
    Endpoint::spawn("bank", stream, net, move |transport| {
        bank_service(bank, transport, replay_capacity)
    })
}

/// Runs bank requests against owned state, deduplicating transfers by
/// request id. Idempotency is two-layered: the bounded [`ReplayCache`]
/// replays the recorded outcome for recent duplicates byte-for-byte, and
/// the bank's durable applied-request-id set refuses to re-execute ids
/// the cache has already evicted (surfacing
/// [`BankError::DuplicateRequest`] instead of moving money twice).
fn bank_service(
    mut bank: Bank,
    transport: ServiceTransport<BankRequest>,
    replay_capacity: usize,
) -> Bank {
    let mut completed: ReplayCache<Result<Receipt, BankError>> = ReplayCache::new(replay_capacity);
    serve(transport, |transport, req, respond| match req {
        BankRequest::OpenAccount {
            owner,
            label,
            reply,
        } => {
            respond.to(reply, bank.open_account(owner, &label));
        }
        BankRequest::Mint { to, amount, reply } => {
            respond.to(reply, bank.mint(to, amount));
        }
        BankRequest::Transfer {
            request_id,
            from,
            to,
            amount,
            reply,
        } => {
            let outcome = if let Some(prev) = completed.get(request_id) {
                if let Some(net) = transport.telemetry() {
                    net.dup_suppressed.inc();
                }
                prev.clone()
            } else if bank.is_request_applied(request_id) {
                // Evicted from the cache but durably applied: refuse to
                // re-execute rather than double-debit.
                if let Some(net) = transport.telemetry() {
                    net.dup_suppressed.inc();
                }
                Err(BankError::DuplicateRequest(request_id))
            } else {
                let outcome = bank.transfer(from, to, amount);
                // Only successes are durably marked: a failed transfer
                // moved no money and is safe to re-execute after the
                // volatile cache forgets it.
                if outcome.is_ok() {
                    bank.record_request_applied(request_id);
                }
                completed.insert(request_id, outcome.clone());
                outcome
            };
            respond.to(reply, outcome);
        }
        BankRequest::Balance { id, reply } => {
            respond.to(reply, bank.balance(id));
        }
        BankRequest::VerifyReceipt { receipt, reply } => {
            respond.to(reply, bank.verify_receipt(&receipt));
        }
        BankRequest::TotalMoney { reply } => {
            respond.to(reply, bank.total_money());
        }
        BankRequest::InjectDropNextReply => transport.inject_drop_next_reply(),
        BankRequest::Shutdown => {}
    });
    bank
}

/// Handle to a running bank service; cheap to clone and `Send`.
#[derive(Clone)]
pub struct BankClient {
    client: Client<BankRequest>,
    next_request: Arc<AtomicU64>,
}

impl BankClient {
    /// Replace the reply deadline and retry budget (mainly for tests).
    pub fn with_deadline(self, timeout: Duration, retries: u32) -> Self {
        BankClient {
            client: self.client.with_deadline(timeout, retries),
            ..self
        }
    }

    /// Record request latency, timeout, retry and disconnect telemetry on
    /// every call made through this client.
    pub fn with_telemetry(self, instruments: ServiceInstruments) -> Self {
        BankClient {
            client: self.client.with_telemetry(instruments),
            ..self
        }
    }

    /// Open an account (see [`Bank::open_account`]).
    pub fn open_account(&self, owner: PublicKey, label: &str) -> Result<AccountId, ServiceError> {
        self.client.call(|reply| BankRequest::OpenAccount {
            owner,
            label: label.to_owned(),
            reply,
        })
    }

    /// Mint simulation money (see [`Bank::mint`]).
    pub fn mint(&self, to: AccountId, amount: Credits) -> Result<(), ServiceError> {
        self.client
            .call(|reply| BankRequest::Mint { to, amount, reply })?
            .map_err(ServiceError::from)
    }

    /// Transfer money (see [`Bank::transfer`]).
    ///
    /// Idempotent across retries: the request id is chosen once per call,
    /// so a re-send after a lost reply replays the recorded outcome
    /// instead of debiting twice.
    pub fn transfer(
        &self,
        from: AccountId,
        to: AccountId,
        amount: Credits,
    ) -> Result<Receipt, ServiceError> {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.transfer_with_id(request_id, from, to, amount)
    }

    /// [`BankClient::transfer`] with an explicit request id — the replay
    /// key for idempotency. Two calls with the same id execute the
    /// transfer once and return the same outcome.
    pub fn transfer_with_id(
        &self,
        request_id: u64,
        from: AccountId,
        to: AccountId,
        amount: Credits,
    ) -> Result<Receipt, ServiceError> {
        self.client
            .call(|reply| BankRequest::Transfer {
                request_id,
                from,
                to,
                amount,
                reply,
            })?
            .map_err(ServiceError::from)
    }

    /// Account balance (see [`Bank::balance`]).
    pub fn balance(&self, id: AccountId) -> Result<Credits, ServiceError> {
        self.client
            .call(|reply| BankRequest::Balance { id, reply })?
            .map_err(ServiceError::from)
    }

    /// Verify a receipt signature (see [`Bank::verify_receipt`]).
    pub fn verify_receipt(&self, receipt: &Receipt) -> Result<bool, ServiceError> {
        self.client.call(|reply| BankRequest::VerifyReceipt {
            receipt: receipt.clone(),
            reply,
        })
    }

    /// Total credits across accounts (see [`Bank::total_money`]).
    pub fn total_money(&self) -> Result<Credits, ServiceError> {
        self.client.call(|reply| BankRequest::TotalMoney { reply })
    }

    /// Fault injection: make the service lose the reply to its next
    /// request (the request still executes). Used to exercise the
    /// timeout/retry and idempotent-replay paths in tests.
    pub fn inject_drop_next_reply(&self) -> Result<(), ServiceError> {
        if self.client.send_control(BankRequest::InjectDropNextReply) {
            Ok(())
        } else {
            Err(ServiceError::Disconnected)
        }
    }
}

// ---------------------------------------------------------- auctioneer

#[derive(Clone)]
enum AuctionRequest {
    PlaceBid {
        user: UserId,
        rate: f64,
        escrow: Credits,
        reply: Sender<BidHandle>,
    },
    CancelBid {
        handle: BidHandle,
        reply: Sender<Option<Credits>>,
    },
    TopUp {
        handle: BidHandle,
        extra: Credits,
        reply: Sender<bool>,
    },
    UpdateRate {
        handle: BidHandle,
        rate: f64,
        reply: Sender<bool>,
    },
    Quote {
        user: UserId,
        reply: Sender<(f64, f64)>, // (spot price, others' rate)
    },
    Allocate {
        dt_secs: f64,
        reply: Sender<Vec<Allocation>>,
    },
    Earned {
        reply: Sender<Credits>,
    },
    Shutdown,
}

/// `Allocate` is control: the scatter-gather tick has its own timeout and
/// dead-host machinery, and a shed tick reply must never be able to mark
/// a healthy host crashed.
impl Request for AuctionRequest {
    const SHUTDOWN: Self = AuctionRequest::Shutdown;

    fn is_shutdown(&self) -> bool {
        matches!(self, AuctionRequest::Shutdown)
    }

    fn is_control(&self) -> bool {
        matches!(
            self,
            AuctionRequest::Shutdown | AuctionRequest::Allocate { .. }
        )
    }
}

/// Spawn one host's auctioneer service; its fault stream mixes the host id
/// into the auctioneer salt.
fn spawn_auctioneer(spec: HostSpec, net: &NetConfig) -> Endpoint<AuctionRequest, Auctioneer> {
    let host = spec.id;
    let stream = AUCTIONEER_FAULT_STREAM ^ u64::from(host.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Endpoint::spawn(&host.to_string(), stream, net, move |transport| {
        let mut a = Auctioneer::new(spec);
        serve(transport, |_, req, respond| match req {
            AuctionRequest::PlaceBid {
                user,
                rate,
                escrow,
                reply,
            } => respond.to(reply, a.place_bid(user, rate, escrow)),
            AuctionRequest::CancelBid { handle, reply } => {
                respond.to(reply, a.cancel_bid(handle));
            }
            AuctionRequest::TopUp {
                handle,
                extra,
                reply,
            } => respond.to(reply, a.top_up(handle, extra)),
            AuctionRequest::UpdateRate {
                handle,
                rate,
                reply,
            } => respond.to(reply, a.update_rate(handle, rate)),
            AuctionRequest::Quote { user, reply } => {
                respond.to(reply, (a.spot_price(), a.others_rate(user)));
            }
            AuctionRequest::Allocate { dt_secs, reply } => {
                respond.to(reply, a.allocate(dt_secs));
            }
            AuctionRequest::Earned { reply } => respond.to(reply, a.earned()),
            AuctionRequest::Shutdown => {}
        });
        a
    })
}

/// Handle to one host's auctioneer service.
#[derive(Clone)]
pub struct AuctioneerClient {
    host: HostId,
    client: Client<AuctionRequest>,
}

impl AuctioneerClient {
    /// Replace the reply deadline and retry budget (mainly for tests).
    pub fn with_deadline(self, timeout: Duration, retries: u32) -> Self {
        AuctioneerClient {
            client: self.client.with_deadline(timeout, retries),
            ..self
        }
    }

    /// Record request latency, timeout, retry and disconnect telemetry on
    /// every call made through this client.
    pub fn with_telemetry(self, instruments: ServiceInstruments) -> Self {
        AuctioneerClient {
            client: self.client.with_telemetry(instruments),
            ..self
        }
    }

    /// The host this client talks to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Place a bid (see [`Auctioneer::place_bid`]).
    pub fn place_bid(
        &self,
        user: UserId,
        rate: f64,
        escrow: Credits,
    ) -> Result<BidHandle, ServiceError> {
        self.client.call(|reply| AuctionRequest::PlaceBid {
            user,
            rate,
            escrow,
            reply,
        })
    }

    /// Cancel a bid, refunding the remaining escrow.
    pub fn cancel_bid(&self, handle: BidHandle) -> Result<Option<Credits>, ServiceError> {
        self.client
            .call(|reply| AuctionRequest::CancelBid { handle, reply })
    }

    /// Add escrow to a live bid.
    pub fn top_up(&self, handle: BidHandle, extra: Credits) -> Result<bool, ServiceError> {
        self.client.call(|reply| AuctionRequest::TopUp {
            handle,
            extra,
            reply,
        })
    }

    /// Change a live bid's rate.
    pub fn update_rate(&self, handle: BidHandle, rate: f64) -> Result<bool, ServiceError> {
        self.client.call(|reply| AuctionRequest::UpdateRate {
            handle,
            rate,
            reply,
        })
    }

    /// `(spot price, others' rate for user)` in one round trip.
    pub fn quote(&self, user: UserId) -> Result<(f64, f64), ServiceError> {
        self.client
            .call(|reply| AuctionRequest::Quote { user, reply })
    }

    /// Run one allocation interval on this host.
    pub fn allocate(&self, dt_secs: f64) -> Result<Vec<Allocation>, ServiceError> {
        self.client
            .call(|reply| AuctionRequest::Allocate { dt_secs, reply })
    }

    /// Host income so far.
    pub fn earned(&self) -> Result<Credits, ServiceError> {
        self.client.call(|reply| AuctionRequest::Earned { reply })
    }
}

// ------------------------------------------------------------- market

/// A market whose bank and auctioneers run as concurrent services, one
/// service thread for the bank and one per host.
pub struct LiveMarket {
    bank: Endpoint<BankRequest, Bank>,
    /// The transfer request-id counter every bank client draws from. It
    /// outlives bank restarts, so ids consumed before a crash (now durably
    /// marked applied) are never reissued to new transfers.
    next_request: Arc<AtomicU64>,
    /// One auctioneer service per host, in registration order.
    auctioneers: Vec<(HostId, Endpoint<AuctionRequest, Auctioneer>)>,
    /// Hosts whose auctioneer has been observed (or made) dead. Guarded by
    /// a mutex so the shared `tick` path can record deaths through
    /// `&self`.
    dead: Mutex<BTreeSet<HostId>>,
    telemetry: Option<ServiceInstruments>,
    net: NetConfig,
    /// Bumped on every bank restart so the replacement service draws a
    /// fresh link-fault schedule instead of replaying the crashed one's.
    bank_generation: u64,
}

impl LiveMarket {
    /// Spawn a live market: one bank service and one auctioneer service
    /// per host, on perfect links with unbounded mailboxes and a volatile
    /// bank.
    pub fn spawn(seed: &[u8], hosts: Vec<HostSpec>) -> LiveMarket {
        LiveMarket::spawn_with(seed, hosts, NetConfig::default(), None)
    }

    /// [`LiveMarket::spawn`] with an overload/loss configuration — every
    /// client→service link gets `net`'s fault profile, bounded mailbox and
    /// circuit breaker (`DESIGN.md` §12) — and, given a `journal`, a
    /// durable bank: every bank mutation is journaled into it. The caller
    /// keeps a clone of the journal; that shared handle is what makes
    /// [`LiveMarket::restart_bank`] possible after a
    /// [`LiveMarket::kill_bank`].
    pub fn spawn_with(
        seed: &[u8],
        hosts: Vec<HostSpec>,
        net: NetConfig,
        journal: Option<SharedJournal>,
    ) -> LiveMarket {
        let mut bank = Bank::new(seed);
        if let Some(journal) = journal {
            bank.attach_ledger(journal);
        }
        LiveMarket {
            bank: spawn_bank(bank, &net, 0),
            next_request: Arc::new(AtomicU64::new(1)),
            auctioneers: hosts
                .into_iter()
                .map(|spec| (spec.id, spawn_auctioneer(spec, &net)))
                .collect(),
            dead: Mutex::new(BTreeSet::new()),
            telemetry: None,
            net,
            bank_generation: 0,
        }
    }

    /// Fault injection: crash the bank service. The thread is stopped and
    /// its in-memory state — books **and** the volatile transfer-outcome
    /// cache — is discarded. Clients created before the kill fail with
    /// [`ServiceError::Disconnected`]; fresh clients from
    /// [`LiveMarket::bank`] reach the replacement only after
    /// [`LiveMarket::restart_bank`]. Only state the bank journaled to a
    /// [`SharedJournal`] survives, via [`Bank::recover`] — the books, the
    /// spent-token set, and the applied-request-id set.
    pub fn kill_bank(&mut self) {
        self.bank.stop();
    }

    /// Bring the bank back from its journal: [`Bank::recover`] replays
    /// `snapshot + WAL`, the journal is re-attached (checkpointing), and
    /// a fresh service thread is spawned.
    ///
    /// Transfer idempotency survives the crash: applied request ids are
    /// journaled, so a client retrying a transfer whose first execution
    /// landed just before the crash gets
    /// [`BankError::DuplicateRequest`] from the recovered bank rather
    /// than a double-execution. (The recorded *outcome* is volatile — the
    /// retry sees the duplicate rejection, not the original receipt; see
    /// `DESIGN.md` §12.) The request-id counter is preserved across the
    /// restart so fresh transfers never collide with pre-crash ids.
    pub fn restart_bank(
        &mut self,
        seed: &[u8],
        journal: &SharedJournal,
    ) -> Result<RecoveryReport, RecoverError> {
        let (mut bank, report) = Bank::recover(seed, journal)?;
        bank.attach_ledger(journal.clone());
        self.bank_generation += 1;
        self.bank = spawn_bank(bank, &self.net, self.bank_generation);
        Ok(report)
    }

    /// Attach telemetry: every client subsequently handed out records
    /// `service.*` metrics (request latency, timeouts, retries,
    /// disconnects) through `instruments`. Clients obtained earlier are
    /// unaffected.
    pub fn attach_telemetry(&mut self, instruments: ServiceInstruments) {
        self.telemetry = Some(instruments);
    }

    /// A bank client.
    pub fn bank(&self) -> BankClient {
        BankClient {
            client: self.bank.client(self.telemetry.as_ref()),
            next_request: Arc::clone(&self.next_request),
        }
    }

    /// A client for one host's auctioneer. Clients for a dead host are
    /// still handed out; their calls fail with
    /// [`ServiceError::Disconnected`].
    pub fn auctioneer(&self, host: HostId) -> Option<AuctioneerClient> {
        self.auctioneers
            .iter()
            .find(|(id, _)| *id == host)
            .map(|(_, svc)| AuctioneerClient {
                host,
                client: svc.client(self.telemetry.as_ref()),
            })
    }

    /// All hosts the market was spawned with (alive or dead).
    pub fn host_ids(&self) -> Vec<HostId> {
        self.auctioneers.iter().map(|(id, _)| *id).collect()
    }

    fn dead_set(&self) -> MutexGuard<'_, BTreeSet<HostId>> {
        self.dead.lock().expect("dead-host set poisoned")
    }

    /// Hosts currently known dead (killed, or detected during a tick).
    pub fn dead_hosts(&self) -> Vec<HostId> {
        self.dead_set().iter().copied().collect()
    }

    /// Fault injection: crash one host's auctioneer service. The thread is
    /// stopped and joined; subsequent client calls fail with
    /// [`ServiceError::Disconnected`] and [`LiveMarket::tick`] skips the
    /// host. Returns `false` for an unknown host.
    pub fn kill_auctioneer(&mut self, host: HostId) -> bool {
        let Some((_, svc)) = self.auctioneers.iter_mut().find(|(id, _)| *id == host) else {
            return false;
        };
        svc.stop();
        self.dead_set().insert(host);
        true
    }

    /// Scatter-gather allocation tick: every live auctioneer runs its
    /// allocation concurrently; results return in deterministic host
    /// order.
    ///
    /// Degrades gracefully: a host whose service cannot be reached, or
    /// whose reply does not arrive within the tick deadline, is recorded
    /// in [`LiveMarket::dead_hosts`] and omitted from the result — the
    /// tick never deadlocks on a dead auctioneer.
    pub fn tick(&self, dt_secs: f64) -> Vec<(HostId, Vec<Allocation>)> {
        let mut newly_dead = Vec::new();
        // Scatter one control-class `Allocate` per host not already known
        // dead.
        let pending: Vec<_> = {
            let dead = self.dead_set();
            self.auctioneers
                .iter()
                .filter(|(host, _)| !dead.contains(host))
                .filter_map(|(host, svc)| {
                    let (reply, rx) = channel();
                    let request = AuctionRequest::Allocate { dt_secs, reply };
                    let sent = svc.client.send_control(request);
                    if !sent {
                        newly_dead.push(*host);
                    }
                    sent.then_some((*host, rx))
                })
                .collect()
        };
        // Gather in host order, skipping hosts that died mid-tick.
        let mut out = Vec::with_capacity(pending.len());
        for (host, rx) in pending {
            match rx.recv_timeout(DEFAULT_TICK_TIMEOUT) {
                Ok(allocations) => out.push((host, allocations)),
                Err(_) => newly_dead.push(host),
            }
        }
        if !newly_dead.is_empty() {
            self.dead_set().extend(newly_dead);
        }
        out
    }

    /// Shut all services down, recovering the bank for inspection.
    pub fn shutdown(mut self) -> Bank {
        for (_, svc) in &mut self.auctioneers {
            svc.stop();
        }
        self.bank.stop().expect("bank service running")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_crypto::Keypair;

    fn specs(n: u32) -> Vec<HostSpec> {
        (0..n).map(HostSpec::testbed).collect()
    }

    #[test]
    fn bank_service_round_trips() {
        let live = LiveMarket::spawn(b"svc", specs(1));
        let bank = live.bank();
        let key = Keypair::from_seed(b"svc-user").public;
        let a = bank.open_account(key, "a").unwrap();
        let b = bank.open_account(key, "b").unwrap();
        bank.mint(a, Credits::from_whole(100)).unwrap();
        let receipt = bank.transfer(a, b, Credits::from_whole(30)).unwrap();
        assert!(bank.verify_receipt(&receipt).unwrap());
        assert_eq!(bank.balance(a).unwrap(), Credits::from_whole(70));
        assert_eq!(bank.balance(b).unwrap(), Credits::from_whole(30));
        assert_eq!(bank.total_money().unwrap(), Credits::from_whole(100));
        let recovered = live.shutdown();
        assert_eq!(recovered.total_money(), Credits::from_whole(100));
    }

    #[test]
    fn auctioneer_service_allocates_like_local() {
        let live = LiveMarket::spawn(b"svc2", specs(1));
        let client = live.auctioneer(HostId(0)).unwrap();
        let h1 = client
            .place_bid(UserId(1), 0.3, Credits::from_whole(100))
            .unwrap();
        let _h2 = client
            .place_bid(UserId(2), 0.1, Credits::from_whole(100))
            .unwrap();

        // Mirror locally.
        let mut local = Auctioneer::new(HostSpec::testbed(0));
        let l1 = local.place_bid(UserId(1), 0.3, Credits::from_whole(100));
        let _l2 = local.place_bid(UserId(2), 0.1, Credits::from_whole(100));

        let (spot, others) = client.quote(UserId(1)).unwrap();
        assert_eq!(spot, local.spot_price());
        assert_eq!(others, local.others_rate(UserId(1)));

        let remote = client.allocate(10.0).unwrap();
        let here = local.allocate(10.0);
        assert_eq!(remote, here, "service boundary changed allocation");

        assert!(client.top_up(h1, Credits::from_whole(5)).unwrap());
        assert!(local.top_up(l1, Credits::from_whole(5)));
        assert!(client.update_rate(h1, 0.5).unwrap());
        assert!(local.update_rate(l1, 0.5));
        assert_eq!(client.allocate(10.0).unwrap(), local.allocate(10.0));
        assert_eq!(client.earned().unwrap(), local.earned());

        assert_eq!(
            client.cancel_bid(h1).unwrap(),
            local.cancel_bid(l1),
            "refunds differ"
        );
        live.shutdown();
    }

    #[test]
    fn scatter_gather_tick_covers_all_hosts() {
        let live = LiveMarket::spawn(b"svc3", specs(4));
        for id in live.host_ids() {
            let c = live.auctioneer(id).unwrap();
            c.place_bid(UserId(1), 0.1, Credits::from_whole(10)).unwrap();
        }
        let results = live.tick(10.0);
        assert_eq!(results.len(), 4);
        for (_, allocs) in &results {
            assert_eq!(allocs.len(), 1);
            assert!(allocs[0].share > 0.99);
        }
        live.shutdown();
    }

    #[test]
    fn concurrent_clients_do_not_corrupt_state() {
        let live = LiveMarket::spawn(b"svc4", specs(1));
        let client = live.auctioneer(HostId(0)).unwrap();
        let bank = live.bank();
        let key = Keypair::from_seed(b"conc").public;
        let acct = bank.open_account(key, "conc").unwrap();
        bank.mint(acct, Credits::from_whole(1_000_000)).unwrap();

        let threads: Vec<_> = (0..8)
            .map(|i| {
                let c = client.clone();
                std::thread::spawn(move || {
                    let mut handles = Vec::new();
                    for k in 0..50 {
                        let h = c
                            .place_bid(
                                UserId(i),
                                0.01 + k as f64 * 1e-4,
                                Credits::from_whole(1),
                            )
                            .unwrap();
                        handles.push(h);
                    }
                    // Cancel half.
                    let mut refunded = Credits::ZERO;
                    for h in handles.iter().step_by(2) {
                        if let Some(r) = c.cancel_bid(*h).unwrap() {
                            refunded += r;
                        }
                    }
                    refunded
                })
            })
            .collect();
        let refunded: Credits = threads.into_iter().map(|t| t.join().unwrap()).sum();
        // 8 threads × 50 bids × 1 credit deposited; half cancelled before
        // any allocation → exactly half refunded.
        assert_eq!(refunded, Credits::from_whole(8 * 25));
        let allocs = client.allocate(10.0).unwrap();
        assert_eq!(allocs.len(), 8 * 25, "remaining bids");
        live.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_on_drop() {
        let live = LiveMarket::spawn(b"svc5", specs(2));
        drop(live); // must not hang
    }

    #[test]
    fn live_market_conserves_money_through_bid_lifecycle() {
        let live = LiveMarket::spawn(b"svc6", specs(2));
        let bank = live.bank();
        let key = Keypair::from_seed(b"lm").public;
        let user_acct = bank.open_account(key, "user").unwrap();
        let host_acct = bank.open_account(key, "host0-escrow").unwrap();
        bank.mint(user_acct, Credits::from_whole(100)).unwrap();

        // Manual funded-bid flow against the service API.
        let c = live.auctioneer(HostId(0)).unwrap();
        bank.transfer(user_acct, host_acct, Credits::from_whole(40))
            .unwrap();
        let bid = c.place_bid(UserId(1), 1.0, Credits::from_whole(40)).unwrap();
        live.tick(10.0); // charges 10
        let refund = c.cancel_bid(bid).unwrap().unwrap();
        assert_eq!(refund, Credits::from_whole(30));
        bank.transfer(host_acct, user_acct, refund).unwrap();
        assert_eq!(bank.total_money().unwrap(), Credits::from_whole(100));
        assert_eq!(c.earned().unwrap(), Credits::from_whole(10));
        live.shutdown();
    }

    #[test]
    fn client_outliving_service_gets_error_not_panic() {
        let live = LiveMarket::spawn(b"svc7", specs(1));
        let bank = live.bank();
        let auc = live.auctioneer(HostId(0)).unwrap();
        let key = Keypair::from_seed(b"late").public;
        let acct = bank.open_account(key, "late").unwrap();
        live.shutdown();

        assert_eq!(bank.balance(acct), Err(ServiceError::Disconnected));
        assert_eq!(
            bank.transfer(acct, acct, Credits::from_whole(1)),
            Err(ServiceError::Disconnected)
        );
        assert_eq!(
            auc.place_bid(UserId(1), 0.1, Credits::from_whole(1)),
            Err(ServiceError::Disconnected)
        );
        assert_eq!(auc.earned(), Err(ServiceError::Disconnected));
    }

    #[test]
    fn retried_transfer_after_lost_reply_does_not_double_debit() {
        let live = LiveMarket::spawn(b"svc8", specs(1));
        // Short deadline so the lost reply turns into a quick retry.
        let bank = live.bank().with_deadline(Duration::from_millis(50), 3);
        let key = Keypair::from_seed(b"idem").public;
        let a = bank.open_account(key, "a").unwrap();
        let b = bank.open_account(key, "b").unwrap();
        bank.mint(a, Credits::from_whole(100)).unwrap();

        // The service executes the transfer but "the network" loses the
        // reply; the client times out and re-sends the same request id.
        bank.inject_drop_next_reply().unwrap();
        let receipt = bank.transfer(a, b, Credits::from_whole(30)).unwrap();
        assert!(bank.verify_receipt(&receipt).unwrap());

        // Debited exactly once despite two executions of the request.
        assert_eq!(bank.balance(a).unwrap(), Credits::from_whole(70));
        assert_eq!(bank.balance(b).unwrap(), Credits::from_whole(30));

        // An explicit replay of the same id (ids are handed out from a
        // shared counter starting at 1, and the lost-reply transfer was
        // the only id-consuming call) returns the same receipt and still
        // moves no additional money.
        let replay = bank.transfer_with_id(1, a, b, Credits::from_whole(30)).unwrap();
        assert_eq!(replay, receipt);
        assert_eq!(bank.balance(a).unwrap(), Credits::from_whole(70));
        live.shutdown();
    }

    #[test]
    fn telemetry_observes_latency_retries_and_disconnects() {
        use gm_telemetry::{Registry, WallClock};
        let registry = Registry::new();
        let instruments =
            ServiceInstruments::new(&registry, Arc::new(WallClock::new()));
        let mut live = LiveMarket::spawn(b"svc10", specs(2));
        live.attach_telemetry(instruments);

        let bank = live.bank().with_deadline(Duration::from_millis(50), 3);
        let key = Keypair::from_seed(b"tele").public;
        let acct = bank.open_account(key, "tele").unwrap();
        bank.mint(acct, Credits::from_whole(10)).unwrap();

        // A lost reply forces one retry before the call succeeds.
        bank.inject_drop_next_reply().unwrap();
        assert_eq!(bank.balance(acct).unwrap(), Credits::from_whole(10));

        // A killed auctioneer surfaces as a disconnect.
        let auc = live.auctioneer(HostId(1)).unwrap();
        live.kill_auctioneer(HostId(1));
        assert_eq!(auc.earned(), Err(ServiceError::Disconnected));

        let snap = registry.snapshot();
        assert!(snap.histograms["service.request_us"].count >= 3);
        assert_eq!(snap.counters["service.retries"], 1);
        assert_eq!(snap.counters["service.disconnects"], 1);
        assert_eq!(snap.counters["service.timeouts"], 0);

        // Per-thread shards merge into the same histogram.
        let hot = live.bank().with_deadline(Duration::from_millis(50), 3);
        let before = snap.histograms["service.request_us"].count;
        let per_thread = hot.client.telemetry.as_ref().unwrap().per_thread();
        let shard_client = hot.with_telemetry(per_thread);
        shard_client.total_money().unwrap();
        let after = registry.snapshot().histograms["service.request_us"].count;
        assert_eq!(after, before + 1);
        live.shutdown();
    }

    #[test]
    fn killed_bank_recovers_from_journal_with_spent_set_intact() {
        let journal = SharedJournal::new();
        let mut live = LiveMarket::spawn_with(
            b"svc-wal",
            specs(1),
            NetConfig::default(),
            Some(journal.clone()),
        );
        let bank = live.bank();
        let key = Keypair::from_seed(b"wal-user").public;
        let a = bank.open_account(key, "a").unwrap();
        let b = bank.open_account(key, "b").unwrap();
        bank.mint(a, Credits::from_whole(100)).unwrap();
        let receipt = bank.transfer(a, b, Credits::from_whole(25)).unwrap();

        live.kill_bank();
        // Clients created before the kill are dead, not hanging.
        assert_eq!(bank.balance(a), Err(ServiceError::Disconnected));

        let report = live.restart_bank(b"svc-wal", &journal).unwrap();
        assert!(report.records_replayed > 0 || report.snapshot_restored);
        let bank = live.bank();
        // Books survived the crash byte-for-byte...
        assert_eq!(bank.balance(a).unwrap(), Credits::from_whole(75));
        assert_eq!(bank.balance(b).unwrap(), Credits::from_whole(25));
        assert_eq!(bank.total_money().unwrap(), Credits::from_whole(100));
        // ...and the restarted bank still verifies pre-crash receipts
        // (same seed → same key).
        assert!(bank.verify_receipt(&receipt).unwrap());
        // The restarted service keeps working.
        bank.transfer(a, b, Credits::from_whole(5)).unwrap();
        assert_eq!(bank.total_money().unwrap(), Credits::from_whole(100));
        let final_bank = live.shutdown();
        assert!(!final_bank.is_token_spent(receipt.transfer_id));
        assert_eq!(final_bank.total_money(), final_bank.total_minted());
    }

    #[test]
    fn kill_without_journal_loses_state_restart_with_empty_journal_is_fresh() {
        let mut live = LiveMarket::spawn(b"svc-volatile", specs(1));
        let bank = live.bank();
        let key = Keypair::from_seed(b"gone").public;
        let a = bank.open_account(key, "a").unwrap();
        bank.mint(a, Credits::from_whole(10)).unwrap();
        live.kill_bank();
        // Restarting from an empty journal yields an empty bank: nothing
        // was durable, nothing comes back.
        let empty = SharedJournal::new();
        let report = live.restart_bank(b"svc-volatile", &empty).unwrap();
        assert!(!report.snapshot_restored);
        let bank = live.bank();
        assert_eq!(bank.total_money().unwrap(), Credits::ZERO);
        assert!(bank.balance(a).is_err(), "account did not survive");
        live.shutdown();
    }

    #[test]
    fn dead_auctioneer_is_skipped_not_deadlocked() {
        let mut live = LiveMarket::spawn(b"svc9", specs(3));
        for id in live.host_ids() {
            let c = live.auctioneer(id).unwrap();
            c.place_bid(UserId(1), 0.1, Credits::from_whole(100)).unwrap();
        }
        assert!(live.kill_auctioneer(HostId(1)));
        assert!(!live.kill_auctioneer(HostId(9)), "unknown host");

        let results = live.tick(10.0);
        let hosts: Vec<HostId> = results.iter().map(|(h, _)| *h).collect();
        assert_eq!(hosts, vec![HostId(0), HostId(2)], "dead host skipped");
        assert_eq!(live.dead_hosts(), vec![HostId(1)]);

        // Clients for the dead host error rather than hang.
        let c = live.auctioneer(HostId(1)).unwrap();
        assert_eq!(c.allocate(10.0), Err(ServiceError::Disconnected));
        live.shutdown();
    }
}
