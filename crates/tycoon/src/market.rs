//! The assembled Tycoon market: bank + one auctioneer per host.
//!
//! `Market` is the facade the grid layer talks to. It keeps the bank's
//! books consistent with the auctioneers' escrows: placing a bid moves
//! money from the payer's bank account into the host's bank account, and
//! cancelling refunds the unspent escrow back — so total money is conserved
//! at every step (tested below and property-tested in the workspace
//! integration suite).
//!
//! Since the scale refactor (DESIGN.md §15) the hot state lives in a
//! dense struct-of-arrays [`HostArena`] instead
//! of per-host `BTreeMap`s: host lookup is an O(1) intern, the tick sweep
//! is a linear scan over slots (optionally sharded across scoped workers
//! via [`Market::set_sharding`] — byte-identical at any shard count), and
//! each bid carries its payer account in the bid lane itself, so evicting
//! or exhausting a bid drops the payer record in the same pass. Spot
//! prices are *published* into an epoch buffer at each tick boundary;
//! readers of that epoch price during tick `e` see the prices
//! of epoch `e-1`, which is what makes the sharded sweep order-free.

use std::sync::Arc;

use gm_des::{SimDuration, SimTime, Trace};
use gm_ledger::SharedJournal;
use gm_telemetry::{Clock, Registry};

use crate::arena::HostArena;
use crate::auction::{Allocation, Auctioneer, BidHandle, UserId};
use crate::bank::{AccountId, Bank, BankError};
use crate::best_response::HostQuote;
use crate::guard::{GuardConfig, GuardVerdict, MarketGuard};
use crate::host::{HostId, HostSpec};
use crate::ledger::{AuditReport, ConservationAuditor, RecoverError, RecoveryReport};
use crate::money::Credits;
use crate::telemetry::{LedgerInstruments, MarketInstruments};

/// A complete single-site Tycoon market.
pub struct Market {
    bank: Bank,
    /// Dense struct-of-arrays host state: auctioneers, accounts, labels,
    /// liveness and epoch prices, interned by `HostId` (DESIGN.md §15).
    arena: HostArena,
    /// When `false`, every money-moving operation fails with
    /// [`MarketError::BankUnavailable`] (fault injection: bank outage).
    bank_online: bool,
    /// Fault injection: when `true`, the quote links are degraded — fresh
    /// quotes are unavailable ([`Market::try_quotes_for`] returns `None`)
    /// and consumers fall back to degraded-mode pricing (`DESIGN.md` §12).
    links_degraded: bool,
    price_trace: Trace,
    /// Recording the per-tick price trace is O(hosts) strings + series
    /// memory per tick; the 100k-host scale bench turns it off.
    price_trace_enabled: bool,
    interval_secs: f64,
    /// Number of contiguous host-range shards the tick sweep is split
    /// into; `1` = sequential.
    shards: usize,
    /// Optional instrumentation; `None` keeps the uninstrumented market
    /// entirely free of telemetry work.
    telemetry: Option<MarketInstruments>,
    /// The bank's key seed, kept so [`Market::restart_bank`] can re-derive
    /// the signing key when recovering from the journal.
    seed: Vec<u8>,
    /// The bank's durable journal, when one is attached.
    journal: Option<SharedJournal>,
    /// `ledger.*` counters shared with the bank.
    ledger_telemetry: Option<LedgerInstruments>,
    /// Strategic-bidder defenses (DESIGN.md §16): per-account rate
    /// limiting, quarantine, and the price-band circuit breaker. Armed by
    /// default with thresholds honest workloads never reach.
    guard: MarketGuard,
}

/// What a host crash did to the market: each evicted bid with the escrow
/// refunded to its payer.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// The crashed host.
    pub host: HostId,
    /// `(bid, owning user, escrow refunded)` for every evicted bid.
    pub evicted: Vec<(BidHandle, UserId, Credits)>,
}

/// The paper's default reallocation interval (10 seconds, §2.2).
pub const DEFAULT_INTERVAL_SECS: f64 = 10.0;

impl Market {
    /// New market with a bank seeded from `seed`.
    pub fn new(seed: &[u8]) -> Market {
        Market {
            bank: Bank::new(seed),
            arena: HostArena::new(),
            bank_online: true,
            links_degraded: false,
            price_trace: Trace::new(),
            price_trace_enabled: true,
            interval_secs: DEFAULT_INTERVAL_SECS,
            shards: 1,
            telemetry: None,
            seed: seed.to_vec(),
            journal: None,
            ledger_telemetry: None,
            guard: MarketGuard::new(GuardConfig::default()),
        }
    }

    /// Replace the guard layer's knobs (strike and quarantine books are
    /// reset). [`GuardConfig::disabled`] restores the pre-guard market.
    pub fn set_guard(&mut self, cfg: GuardConfig) {
        self.guard = MarketGuard::new(cfg);
    }

    /// The guard layer's current state (knobs, strikes, quarantines).
    pub fn guard(&self) -> &MarketGuard {
        &self.guard
    }

    /// Attach telemetry: every subsequent market operation records into
    /// `registry` (`market.*` metrics), with tick durations stamped by
    /// `clock`. Pass a `ManualClock` driven by the simulation for
    /// byte-reproducible DES exports, or a `WallClock` for live timing.
    /// Also resolves the `ledger.*` counters and hands them to the bank.
    pub fn attach_telemetry(&mut self, registry: &Registry, clock: Arc<dyn Clock>) {
        self.telemetry = Some(MarketInstruments::new(registry, clock));
        let ledger = LedgerInstruments::new(registry);
        self.bank.attach_ledger_telemetry(ledger.clone());
        self.ledger_telemetry = Some(ledger);
    }

    /// Attach a durable journal to the bank (checkpointing the current
    /// state into it) and remember it so [`Market::restart_bank`] can
    /// recover from it after a `BankRestart` fault.
    pub fn attach_ledger(&mut self, journal: SharedJournal) {
        self.bank.attach_ledger(journal.clone());
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&SharedJournal> {
        self.journal.as_ref()
    }

    /// Fault injection: the bank process dies and comes back from disk.
    /// With a journal attached, the in-memory bank is **discarded** and
    /// rebuilt via [`Bank::recover`] (then re-attached, which
    /// checkpoints, and given the old bank's checkpoint cadence), the
    /// conservation auditor runs, and the bank is marked online. Without
    /// a journal there is no durable state to recover from, so the
    /// restart degrades to an outage-restore (the in-memory books
    /// survive — the volatile pre-ledger behaviour).
    pub fn restart_bank(&mut self) -> Result<RecoveryReport, RecoverError> {
        let Some(journal) = self.journal.clone() else {
            self.bank_online = true;
            return Ok(RecoveryReport::default());
        };
        let (mut bank, report) = Bank::recover(&self.seed, &journal)?;
        if let Some(ins) = &self.ledger_telemetry {
            bank.attach_ledger_telemetry(ins.clone());
            ins.recoveries.inc();
            ins.records_replayed.add(report.records_replayed as u64);
            ins.torn_tail_bytes.add(report.torn_tail_bytes as u64);
            ins.corrupt_records.add(report.corrupt_records as u64);
        }
        bank.attach_ledger(journal);
        bank.set_snapshot_every(self.bank.snapshot_every());
        self.bank = bank;
        self.bank_online = true;
        self.audit_ledger();
        Ok(report)
    }

    /// Run the online [`ConservationAuditor`] over the bank and its
    /// journal, recording `ledger.audits` / `ledger.audit_failures`.
    pub fn audit_ledger(&self) -> AuditReport {
        let report = ConservationAuditor::default().audit(&self.bank, self.journal.as_ref());
        if let Some(ins) = &self.ledger_telemetry {
            ins.audits.inc();
            if !report.ok() {
                ins.audit_failures.inc();
            }
        }
        report
    }

    /// Override the reallocation interval (seconds).
    ///
    /// # Panics
    /// Panics unless positive and finite.
    pub fn set_interval_secs(&mut self, secs: f64) {
        assert!(secs > 0.0 && secs.is_finite());
        self.interval_secs = secs;
    }

    /// The reallocation interval in seconds.
    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// Split the tick sweep into `shards` contiguous host-range shards
    /// run on scoped workers (`gm_des::par_chunks_mut`). Per-host sweeps
    /// touch only their own host's state and all cross-host reads go
    /// through the epoch price buffer, so results are **byte-identical at
    /// any shard count** (DESIGN.md §15). `1` restores the sequential
    /// sweep.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn set_sharding(&mut self, shards: usize) {
        assert!(shards >= 1, "at least one shard");
        self.shards = shards;
    }

    /// Enable/disable the per-tick spot-price trace (on by default). The
    /// trace stores every host's full price history — at 100k hosts the
    /// scale bench disables it.
    pub fn set_price_trace_enabled(&mut self, enabled: bool) {
        self.price_trace_enabled = enabled;
    }

    /// Immutable access to the bank.
    pub fn bank(&self) -> &Bank {
        &self.bank
    }

    /// Mutable access to the bank (account setup, endowments).
    pub fn bank_mut(&mut self) -> &mut Bank {
        &mut self.bank
    }

    /// Add a host to the market; returns its bank account id.
    ///
    /// # Panics
    /// Panics on duplicate host ids or invalid specs.
    pub fn add_host(&mut self, spec: HostSpec) -> AccountId {
        assert!(!self.arena.contains(spec.id), "duplicate host {:?}", spec.id);
        let account = self
            .bank
            .open_account(self.bank.public_key(), &format!("{}", spec.id));
        self.arena.insert(Auctioneer::new(spec), account);
        account
    }

    /// All host ids in deterministic order.
    pub fn host_ids(&self) -> Vec<HostId> {
        self.arena.ids_in_order().collect()
    }

    /// Auctioneer of a host.
    pub fn auctioneer(&self, id: HostId) -> Option<&Auctioneer> {
        self.arena.slot_of(id).map(|s| self.arena.auctioneer(s))
    }

    /// Build Best Response quotes for `user` over `hosts`, weighting each
    /// host by its deliverable vCPU capacity. Crashed hosts yield no quote.
    pub fn quotes_for(&self, user: UserId, hosts: &[HostId]) -> Vec<HostQuote> {
        hosts
            .iter()
            .filter_map(|&id| {
                let slot = self.arena.slot_of(id)?;
                if !self.arena.is_live(slot) {
                    return None;
                }
                let a = self.arena.auctioneer(slot);
                Some(HostQuote {
                    host: id,
                    weight: a.spec().vcpu_capacity_mhz(),
                    others_rate: a.others_rate(user),
                })
            })
            .collect()
    }

    /// [`Market::quotes_for`] behind the degraded-link switch: `None`
    /// while the links are degraded (a `LinkDown` fault window), when the
    /// caller should fall back to its last-known or predicted prices
    /// instead of trusting stale quotes.
    pub fn try_quotes_for(&self, user: UserId, hosts: &[HostId]) -> Option<Vec<HostQuote>> {
        if self.links_degraded {
            return None;
        }
        Some(self.quotes_for(user, hosts))
    }

    /// Place a funded bid: debit `escrow` from `payer` into the host
    /// account and register the bid with the host's auctioneer. The payer
    /// is recorded *on the bid* (in the bid lane), so eviction, exhaustion
    /// and cancellation drop the payer record in the same pass.
    pub fn place_funded_bid(
        &mut self,
        user: UserId,
        payer: AccountId,
        host: HostId,
        rate: f64,
        escrow: Credits,
    ) -> Result<BidHandle, MarketError> {
        let result = self.place_funded_bid_inner(user, payer, host, rate, escrow);
        if let Some(t) = self.telemetry.as_mut() {
            match &result {
                Ok(_) => {
                    t.bids_placed.inc();
                    t.bank_transfers.inc();
                }
                Err(e) => {
                    t.bids_rejected.inc();
                    match e {
                        MarketError::BankUnavailable => t.bank_unavailable.inc(),
                        // Quarantine itself is counted where it happens.
                        MarketError::RateLimited { .. } => t.guard().rate_limited.inc(),
                        _ => {}
                    }
                }
            }
        }
        result
    }

    fn place_funded_bid_inner(
        &mut self,
        user: UserId,
        payer: AccountId,
        host: HostId,
        rate: f64,
        escrow: Credits,
    ) -> Result<BidHandle, MarketError> {
        let slot = self.arena.slot_of(host);
        if let Some(s) = slot {
            if !self.arena.is_live(s) {
                return Err(MarketError::HostOffline(host));
            }
        }
        if !self.bank_online {
            return Err(MarketError::BankUnavailable);
        }
        let slot = slot.ok_or(MarketError::NoSuchHost(host))?;
        // Guard layer (DESIGN.md §16): vet the bid before any money moves.
        match self.guard.vet_bid(payer, rate) {
            Ok(()) => {}
            Err(GuardVerdict::RateLimited { retry_after_secs }) => {
                return Err(MarketError::RateLimited { retry_after_secs });
            }
            Err(GuardVerdict::Quarantined) => {
                self.evict_and_refund_quarantined(payer);
                return Err(MarketError::AccountQuarantined(payer));
            }
            Err(GuardVerdict::AlreadyQuarantined) => {
                return Err(MarketError::AccountQuarantined(payer));
            }
        }
        self.bank.transfer(payer, self.arena.account(slot), escrow)?;
        let handle = self
            .arena
            .auctioneer_mut(slot)
            .place_funded_bid(user, rate, escrow, Some(payer));
        Ok(handle)
    }

    /// Cancel a bid and refund the unspent escrow from the host account to
    /// `refund_to`. Returns the refunded amount.
    pub fn cancel_bid(
        &mut self,
        host: HostId,
        handle: BidHandle,
        refund_to: AccountId,
    ) -> Result<Credits, MarketError> {
        if !self.bank_online {
            if let Some(t) = &self.telemetry {
                t.bank_unavailable.inc();
            }
            return Err(MarketError::BankUnavailable);
        }
        let slot = self.arena.slot_of(host).ok_or(MarketError::NoSuchHost(host))?;
        let refund = self
            .arena
            .auctioneer_mut(slot)
            .cancel_bid(handle)
            .ok_or(MarketError::NoSuchBid(host, handle))?;
        if refund.is_positive() {
            self.bank.transfer(self.arena.account(slot), refund_to, refund)?;
        }
        if let Some(t) = &self.telemetry {
            t.refunds.inc();
            if refund.is_positive() {
                t.bank_transfers.inc();
            }
        }
        Ok(refund)
    }

    /// Boost a live bid with extra funds from `payer`.
    pub fn top_up_bid(
        &mut self,
        host: HostId,
        handle: BidHandle,
        payer: AccountId,
        extra: Credits,
    ) -> Result<(), MarketError> {
        let slot = self.arena.slot_of(host);
        if let Some(s) = slot {
            if !self.arena.is_live(s) {
                return Err(MarketError::HostOffline(host));
            }
        }
        if !self.bank_online {
            if let Some(t) = &self.telemetry {
                t.bank_unavailable.inc();
            }
            return Err(MarketError::BankUnavailable);
        }
        let slot = slot.ok_or(MarketError::NoSuchHost(host))?;
        if self.guard.vet_funding(payer).is_err() {
            return Err(MarketError::AccountQuarantined(payer));
        }
        if self.arena.auctioneer(slot).escrow(handle).is_none() {
            return Err(MarketError::NoSuchBid(host, handle));
        }
        self.bank.transfer(payer, self.arena.account(slot), extra)?;
        let ok = self.arena.auctioneer_mut(slot).top_up(handle, extra);
        debug_assert!(ok);
        if let Some(t) = &self.telemetry {
            t.bank_transfers.inc();
        }
        Ok(())
    }

    /// Re-bid: change the rate of a live bid.
    pub fn update_bid_rate(
        &mut self,
        host: HostId,
        handle: BidHandle,
        rate: f64,
    ) -> Result<(), MarketError> {
        let slot = self.arena.slot_of(host).ok_or(MarketError::NoSuchHost(host))?;
        // Guard layer (DESIGN.md §16): re-bids are vetted like placements —
        // escalating a live bid past the rate cap is the cheapest way to
        // spike a spot price, so the unguarded path would let an attacker
        // place a tiny bid and then crank it each tick.
        if let Some(payer) = self.arena.auctioneer(slot).payer(handle) {
            match self.guard.vet_bid(payer, rate) {
                Ok(()) => {}
                Err(GuardVerdict::RateLimited { retry_after_secs }) => {
                    if let Some(t) = self.telemetry.as_mut() {
                        t.guard().rate_limited.inc();
                    }
                    return Err(MarketError::RateLimited { retry_after_secs });
                }
                Err(GuardVerdict::Quarantined) => {
                    self.evict_and_refund_quarantined(payer);
                    return Err(MarketError::AccountQuarantined(payer));
                }
                Err(GuardVerdict::AlreadyQuarantined) => {
                    return Err(MarketError::AccountQuarantined(payer));
                }
            }
        }
        if self.arena.auctioneer_mut(slot).update_rate(handle, rate) {
            Ok(())
        } else {
            Err(MarketError::NoSuchBid(host, handle))
        }
    }

    /// Run one allocation interval on every online host, recording spot
    /// prices into the price trace. Returns per-host allocations in
    /// ascending host-id order; crashed hosts are omitted entirely (no
    /// price sample, no allocation).
    ///
    /// With sharding enabled the per-host sweeps run on
    /// scoped workers over contiguous slot ranges; every per-host result
    /// depends only on that host's own state, so the outcome is identical
    /// at any shard count. At the end of the tick each swept host's
    /// tick-start spot price is published into the epoch buffer
    /// ([`HostArena::published_spot`]).
    pub fn tick(&mut self, now: SimTime) -> Vec<(HostId, Vec<Allocation>)> {
        let started_micros = self.telemetry.as_ref().map(|t| t.now_micros());
        let dt = self.interval_secs;
        let shards = self.shards;

        // The sweep: per-slot tick-start spot + allocations. Slot-order
        // execution (sequential or sharded) is safe because a host's sweep
        // reads and writes only its own lane; emission order is ascending
        // host id either way, so the two paths are byte-identical.
        let n_slots = self.arena.capacity_slots();
        let mut out = Vec::with_capacity(self.arena.len());
        if shards <= 1 || n_slots < 2 {
            // Sequential fast path: walk the occupied slots in host-id
            // order and emit inline — no per-slot staging buffer, each
            // lane and its output touched exactly once.
            for i in 0..self.arena.len() {
                let slot = self.arena.ordered_slots()[i] as usize;
                if !self.arena.is_live(slot) {
                    continue;
                }
                let (spot, allocations) = self.arena.auctioneer_mut(slot).sweep(dt);
                let published = self.republish(slot, now, spot);
                self.arena.publish_spot(slot, published);
                out.push((self.arena.id(slot), allocations));
            }
        } else {
            // Phase 1 — slot-chunked parallel sweep into a slot-indexed
            // staging buffer.
            let (auctioneers, occupied, live) = self.arena.sweep_columns();
            let chunk = n_slots.div_ceil(shards);
            let mut sweep: Vec<Option<(f64, Vec<Allocation>)>> =
                gm_des::par_chunks_mut(shards, auctioneers, chunk, |_ci, base, slice| {
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(k, a)| {
                            let slot = base + k;
                            (occupied[slot] && live[slot]).then(|| a.sweep(dt))
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();

            // Phase 2 — deterministic emission in ascending host-id order:
            // price trace, epoch publication, and the caller's allocations.
            for i in 0..self.arena.len() {
                let slot = self.arena.ordered_slots()[i] as usize;
                if let Some((spot, allocations)) = sweep[slot].take() {
                    let published = self.republish(slot, now, spot);
                    self.arena.publish_spot(slot, published);
                    out.push((self.arena.id(slot), allocations));
                }
            }
        }
        // Spot gauges read straight from the arena's epoch column.
        if let Some(t) = self.telemetry.as_mut() {
            t.export_spots_from(&self.arena);
            t.ticks.inc();
            if let Some(start) = started_micros {
                t.tick_us.record_micros(t.now_micros().saturating_sub(start));
            }
        }
        out
    }

    /// True when a [`Market::tick`] would change nothing but counters,
    /// clocks and price samples: on every live host no bid is in the
    /// lane, the breaker is not cooling down, and the published spot is
    /// bit for bit the live spot (so republishing it is a no-op). A span
    /// of such ticks is crossed in one [`Market::tick_quiet`] call.
    pub fn is_quiet(&self) -> bool {
        self.arena.ordered_slots().iter().all(|&s| {
            let s = s as usize;
            !self.arena.is_live(s) || {
                let a = self.arena.auctioneer(s);
                a.live_bids() == 0
                    && self.arena.breaker_cooldown(s) == 0
                    && self.arena.published_spot(s).to_bits() == a.spot_price().to_bits()
            }
        })
    }

    /// Run `k` ticks at `now, now + dt, …` on a quiet market in one pass
    /// over the hosts, with the effect of `k` calls of [`Market::tick`]:
    /// each live host, in id order, gets `k` price-trace samples of its
    /// published spot; `market.ticks` grows by `k`; `market.tick_us` gets
    /// `k` samples of the span's elapsed clock time divided by `k` (0 on
    /// a simulation clock); and the spot gauges, which every one of those
    /// ticks would set to the same prices, are exported once.
    ///
    /// # Panics
    /// Panics unless [`Market::is_quiet`] holds.
    pub fn tick_quiet(&mut self, now: SimTime, dt: SimDuration, k: u64) {
        assert!(self.is_quiet(), "tick_quiet on a market with work to do");
        if k == 0 {
            return;
        }
        let started_micros = self.telemetry.as_ref().map(|t| t.now_micros());
        if self.price_trace_enabled {
            for &slot in self.arena.ordered_slots() {
                let slot = slot as usize;
                if self.arena.is_live(slot) {
                    let spot = self.arena.published_spot(slot);
                    self.price_trace.record_steps(self.arena.label(slot), now, dt, k, spot);
                }
            }
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.export_spots_from(&self.arena);
            t.ticks.add(k);
            if let Some(start) = started_micros {
                let per_tick = t.now_micros().saturating_sub(start) / k;
                t.tick_us.record_n(per_tick as f64, k);
            }
        }
    }

    /// Run one slot's epoch-price publication through the breaker
    /// (DESIGN.md §16): damp the raw tick-start `spot` against the slot's
    /// previously published price, record the *published* value in the
    /// price trace (the breaker protects exactly the external price
    /// signals), update the breaker-cooldown column, and return the price
    /// to publish. With the guard at rest this is bit-for-bit the raw
    /// spot. Runs single-threaded in both tick paths, so breaker state is
    /// byte-identical at any shard count.
    fn republish(&mut self, slot: usize, now: SimTime, spot: f64) -> f64 {
        let prev = self.arena.published_spot(slot);
        let cooldown = self.arena.breaker_cooldown(slot);
        let (published, new_cooldown, tripped) = self.guard.damp_republish(prev, spot, cooldown);
        if cooldown != new_cooldown {
            self.arena.set_breaker_cooldown(slot, new_cooldown);
        }
        if tripped {
            if let Some(t) = self.telemetry.as_mut() {
                t.guard().breaker_trips.inc();
            }
        }
        if self.price_trace_enabled {
            self.price_trace.record(self.arena.label(slot), now, published);
        }
        published
    }


    /// Spot prices of all hosts (deterministic order). These are *live*
    /// prices — recomputed from the current bid lanes, reflecting any
    /// mid-tick mutation — as opposed to the epoch price each host
    /// published at its last tick boundary.
    pub fn spot_prices(&self) -> Vec<(HostId, f64)> {
        self.arena
            .ordered_slots()
            .iter()
            .map(|&s| {
                let s = s as usize;
                (self.arena.id(s), self.arena.auctioneer(s).spot_price())
            })
            .collect()
    }

    /// The recorded spot-price history.
    pub fn price_trace(&self) -> &Trace {
        &self.price_trace
    }

    /// Move the recorded spot-price history out, leaving it empty: for
    /// a caller done with the market that keeps the trace.
    pub fn take_price_trace(&mut self) -> Trace {
        std::mem::take(&mut self.price_trace)
    }

    /// Total payer records across all hosts — the size of the (virtual)
    /// payer index. Payers live in the bid lanes, so this is structurally
    /// bounded by the number of live funded bids: evicted, exhausted and
    /// cancelled bids shed their payer record in the same pass.
    #[cfg(test)]
    fn payer_index_len(&self) -> usize {
        self.arena
            .ordered_slots()
            .iter()
            .map(|&s| self.arena.auctioneer(s as usize).funded_bids())
            .sum()
    }

    // ------------------------------------------------ failure semantics

    /// Crash a host: every live bid on it is evicted and its remaining
    /// escrow refunded from the host account back to the payer recorded
    /// when the bid was placed. The host keeps income it already earned
    /// and stays registered (so it can [`Market::recover_host`] later),
    /// but takes no further bids and is skipped by [`Market::tick`].
    ///
    /// Crash settlement is an internal book transfer and deliberately
    /// ignores a concurrent bank outage — the books stay conserved no
    /// matter which faults coincide.
    pub fn crash_host(&mut self, id: HostId) -> Result<CrashReport, MarketError> {
        let slot = self.arena.slot_of(id).ok_or(MarketError::NoSuchHost(id))?;
        if !self.arena.is_live(slot) {
            return Err(MarketError::HostOffline(id));
        }
        let evicted = self.evict_and_refund(slot);
        self.arena.set_live(slot, false);
        Ok(CrashReport { host: id, evicted })
    }

    /// Evict every bid on `slot`, refunding escrows to their recorded
    /// payers (bids without a payer leave their escrow with the host —
    /// money is conserved either way).
    fn evict_and_refund(&mut self, slot: usize) -> Vec<(BidHandle, UserId, Credits)> {
        let account = self.arena.account(slot);
        let evicted = self.arena.auctioneer_mut(slot).evict_all_funded();
        if let Some(t) = &self.telemetry {
            t.evictions.add(evicted.len() as u64);
        }
        for (_handle, _user, escrow, payer) in &evicted {
            if let Some(payer) = payer {
                if escrow.is_positive() {
                    self.bank
                        .transfer(account, *payer, *escrow)
                        .expect("crash refund cannot fail: escrow is backed by host account");
                    if let Some(t) = &self.telemetry {
                        t.refunds.inc();
                        t.bank_transfers.inc();
                    }
                }
            }
        }
        evicted.into_iter().map(|(h, u, e, _)| (h, u, e)).collect()
    }

    /// Quarantine `account` by operator action (DESIGN.md §16): its live
    /// bids on every host are evicted and the unspent escrows refunded —
    /// the conservation-preserving crash-settlement book transfer, made
    /// selective — and all further placements and top-ups from it fail
    /// with [`MarketError::AccountQuarantined`]. Returns the number of
    /// bids evicted. No-op returning 0 when the guard is disabled or the
    /// account is already quarantined.
    #[cfg(test)]
    fn quarantine_account(&mut self, account: AccountId) -> usize {
        if !self.guard.quarantine(account) {
            return 0;
        }
        self.evict_and_refund_quarantined(account)
    }

    /// Lift a quarantine (operator action); the strike count is cleared.
    #[cfg(test)]
    fn release_account(&mut self, account: AccountId) -> bool {
        self.guard.release(account)
    }

    /// Evict and refund every bid funded by the freshly-quarantined
    /// `account` across all hosts, and count the quarantine in telemetry.
    /// Like crash settlement, the refunds are internal book transfers and
    /// deliberately ignore a concurrent bank outage.
    fn evict_and_refund_quarantined(&mut self, account: AccountId) -> usize {
        let slots: Vec<usize> = self.arena.ordered_slots().iter().map(|&s| s as usize).collect();
        let mut evicted_total = 0usize;
        for slot in slots {
            let host_account = self.arena.account(slot);
            let evicted = self.arena.auctioneer_mut(slot).evict_funded_by_payer(account);
            for (_handle, _user, escrow, payer) in &evicted {
                if let (Some(payer), true) = (payer, escrow.is_positive()) {
                    self.bank
                        .transfer(host_account, *payer, *escrow)
                        .expect("quarantine refund cannot fail: escrow is backed by host account");
                    if let Some(t) = &self.telemetry {
                        t.refunds.inc();
                        t.bank_transfers.inc();
                    }
                }
            }
            evicted_total += evicted.len();
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.evictions.add(evicted_total as u64);
            let g = t.guard();
            g.quarantines.inc();
            g.refunded_bids.add(evicted_total as u64);
        }
        evicted_total
    }

    /// Bring a crashed host back online, empty (no bids, no residue of the
    /// crash). No-op `Ok` if the host exists but was never crashed.
    pub fn recover_host(&mut self, id: HostId) -> Result<(), MarketError> {
        let slot = self.arena.slot_of(id).ok_or(MarketError::NoSuchHost(id))?;
        self.arena.set_live(slot, true);
        Ok(())
    }

    /// Whether a host is currently online (unknown hosts are offline).
    pub fn is_host_online(&self, id: HostId) -> bool {
        self.arena.slot_of(id).is_some_and(|s| self.arena.is_live(s))
    }

    /// Publish a host's health score into the arena's dense health
    /// column (grid-layer `HealthScore` trackers call this each tick).
    /// Unknown hosts are ignored.
    pub fn set_host_health(&mut self, id: HostId, score: f64) {
        if let Some(s) = self.arena.slot_of(id) {
            self.arena.set_health(s, score.clamp(0.0, 1.0));
        }
    }

    /// Ids of all crashed hosts, deterministic order.
    pub fn crashed_host_ids(&self) -> Vec<HostId> {
        self.arena
            .ordered_slots()
            .iter()
            .filter(|&&s| !self.arena.is_live(s as usize))
            .map(|&s| self.arena.id(s as usize))
            .collect()
    }

    /// Fault injection: make the bank unreachable (`false`) or reachable
    /// (`true`). While unreachable, money-moving market operations fail
    /// with [`MarketError::BankUnavailable`].
    pub fn set_bank_online(&mut self, online: bool) {
        if !online && self.bank_online {
            if let Some(t) = &self.telemetry {
                t.bank_outages.inc();
            }
        }
        self.bank_online = online;
    }

    /// Fault injection: degrade (`true`) or restore (`false`) the quote
    /// links. While degraded, [`Market::try_quotes_for`] yields `None`.
    pub fn set_links_degraded(&mut self, degraded: bool) {
        self.links_degraded = degraded;
    }

    /// Whether the quote links are currently degraded.
    pub fn links_degraded(&self) -> bool {
        self.links_degraded
    }
}

/// Errors from market operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketError {
    /// Unknown host.
    NoSuchHost(HostId),
    /// Unknown or expired bid handle.
    NoSuchBid(HostId, BidHandle),
    /// A bank operation failed.
    Bank(BankError),
    /// The host is crashed and cannot take the operation.
    HostOffline(HostId),
    /// The bank is in an injected outage window; retry after it lifts.
    BankUnavailable,
    /// The guard layer rejected the bid's rate (over its per-bid cap of
    /// 1 credit/second, see [`crate::guard`]); retry no sooner than
    /// the advised seconds (deterministic seeded-jitter backoff,
    /// DESIGN.md §16).
    RateLimited {
        /// Backoff advice in seconds.
        retry_after_secs: u32,
    },
    /// The paying account is quarantined by the guard layer; its escrows
    /// have been refunded and it can place no further bids.
    AccountQuarantined(AccountId),
}

impl From<BankError> for MarketError {
    fn from(e: BankError) -> Self {
        MarketError::Bank(e)
    }
}

impl std::fmt::Display for MarketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarketError::NoSuchHost(h) => write!(f, "no such host {h}"),
            MarketError::NoSuchBid(h, b) => write!(f, "no such bid {b:?} on {h}"),
            MarketError::Bank(e) => write!(f, "bank error: {e}"),
            MarketError::HostOffline(h) => write!(f, "host {h} is offline"),
            MarketError::BankUnavailable => write!(f, "bank is unavailable"),
            MarketError::RateLimited { retry_after_secs } => {
                write!(f, "bid rate limited; retry after {retry_after_secs}s")
            }
            MarketError::AccountQuarantined(a) => {
                write!(f, "account {a:?} is quarantined")
            }
        }
    }
}

impl std::error::Error for MarketError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_crypto::Keypair;

    /// The bank account of host `id`.
    fn host_account(m: &Market, id: HostId) -> AccountId {
        m.arena.account(m.arena.slot_of(id).expect("registered host"))
    }

    /// The epoch price of host `id`.
    fn published_spot(m: &Market, id: HostId) -> Option<f64> {
        m.arena.slot_of(id).map(|s| m.arena.published_spot(s))
    }

    /// Every host's epoch price, in host-id order.
    fn published_spots(m: &Market) -> Vec<(HostId, f64)> {
        m.host_ids().into_iter().map(|h| (h, published_spot(m, h).unwrap())).collect()
    }

    fn market_with_user(hosts: u32, endowment: i64) -> (Market, AccountId) {
        let mut m = Market::new(b"market-test");
        for i in 0..hosts {
            m.add_host(HostSpec::testbed(i));
        }
        let user_key = Keypair::from_seed(b"user").public;
        let acct = m.bank_mut().open_account(user_key, "user");
        m.bank_mut()
            .mint(acct, Credits::from_whole(endowment))
            .unwrap();
        (m, acct)
    }

    #[test]
    fn placing_a_bid_moves_escrow_to_host_account() {
        let (mut m, acct) = market_with_user(1, 100);
        let host = HostId(0);
        m.place_funded_bid(UserId(1), acct, host, 0.1, Credits::from_whole(40))
            .unwrap();
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(60));
        let host_acct = host_account(&m, host);
        assert_eq!(m.bank().balance(host_acct).unwrap(), Credits::from_whole(40));
    }

    #[test]
    fn insufficient_funds_fail_without_side_effects() {
        let (mut m, acct) = market_with_user(1, 10);
        let err = m
            .place_funded_bid(UserId(1), acct, HostId(0), 0.1, Credits::from_whole(40))
            .unwrap_err();
        assert!(matches!(err, MarketError::Bank(BankError::InsufficientFunds { .. })));
        assert_eq!(m.auctioneer(HostId(0)).unwrap().live_bids(), 0);
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(10));
    }

    #[test]
    fn unknown_host_rejected() {
        let (mut m, acct) = market_with_user(1, 10);
        let err = m
            .place_funded_bid(UserId(1), acct, HostId(7), 0.1, Credits::from_whole(1))
            .unwrap_err();
        assert_eq!(err, MarketError::NoSuchHost(HostId(7)));
    }

    #[test]
    fn cancel_refunds_to_payer() {
        let (mut m, acct) = market_with_user(1, 100);
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(50))
            .unwrap();
        m.tick(SimTime::from_secs(10)); // charges 10
        let refund = m.cancel_bid(HostId(0), h, acct).unwrap();
        assert_eq!(refund, Credits::from_whole(40));
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(90));
        // Host keeps its earnings.
        assert_eq!(
            m.auctioneer(HostId(0)).unwrap().earned(),
            Credits::from_whole(10)
        );
    }

    #[test]
    fn money_is_conserved_through_market_activity() {
        let (mut m, acct) = market_with_user(3, 1000);
        let mut handles = Vec::new();
        for i in 0..3 {
            let h = m
                .place_funded_bid(UserId(1), acct, HostId(i), 0.5, Credits::from_whole(100))
                .unwrap();
            handles.push((HostId(i), h));
        }
        for k in 0..5 {
            m.tick(SimTime::from_secs(10 * (k + 1)));
        }
        let (host, handle) = handles[0];
        m.cancel_bid(host, handle, acct).unwrap();
        assert_eq!(m.bank().total_money(), Credits::from_whole(1000));
    }

    #[test]
    fn tick_records_price_history_per_host() {
        let (mut m, acct) = market_with_user(2, 100);
        m.place_funded_bid(UserId(1), acct, HostId(0), 0.25, Credits::from_whole(10))
            .unwrap();
        m.tick(SimTime::from_secs(10));
        m.tick(SimTime::from_secs(20));
        let trace = m.price_trace();
        let s0 = trace.get("host000").unwrap();
        assert_eq!(s0.len(), 2);
        assert!((s0.values()[0] - 0.25001).abs() < 1e-6);
        let s1 = trace.get("host001").unwrap();
        assert!((s1.values()[0] - 1e-5).abs() < 1e-12, "idle host at reserve");
    }

    #[test]
    fn quotes_reflect_other_users_bids() {
        let (mut m, acct) = market_with_user(2, 100);
        m.place_funded_bid(UserId(1), acct, HostId(0), 0.5, Credits::from_whole(10))
            .unwrap();
        let quotes = m.quotes_for(UserId(2), &m.host_ids());
        assert_eq!(quotes.len(), 2);
        let q0 = quotes.iter().find(|q| q.host == HostId(0)).unwrap();
        assert!((q0.others_rate - (0.5 + 1e-5)).abs() < 1e-9);
        let q1 = quotes.iter().find(|q| q.host == HostId(1)).unwrap();
        assert!((q1.others_rate - 1e-5).abs() < 1e-12);
        // Own bids are not "others".
        let own = m.quotes_for(UserId(1), &[HostId(0)]);
        assert!((own[0].others_rate - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn top_up_moves_money_and_extends_escrow() {
        let (mut m, acct) = market_with_user(1, 100);
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(10))
            .unwrap();
        m.top_up_bid(HostId(0), h, acct, Credits::from_whole(20)).unwrap();
        assert_eq!(
            m.auctioneer(HostId(0)).unwrap().escrow(h).unwrap(),
            Credits::from_whole(30)
        );
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(70));
        assert_eq!(m.bank().total_money(), Credits::from_whole(100));
    }

    #[test]
    fn crash_evicts_bids_and_refunds_payers() {
        let (mut m, acct) = market_with_user(2, 100);
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(50))
            .unwrap();
        m.tick(SimTime::from_secs(10)); // charges 10 on host 0

        let report = m.crash_host(HostId(0)).unwrap();
        assert_eq!(report.evicted, vec![(h, UserId(1), Credits::from_whole(40))]);
        // Unspent escrow came back; host keeps what it earned.
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(90));
        let host_acct = host_account(&m, HostId(0));
        assert_eq!(m.bank().balance(host_acct).unwrap(), Credits::from_whole(10));
        assert_eq!(m.bank().total_money(), Credits::from_whole(100));

        // Crashed host takes no bids, gives no quotes, skips ticks.
        assert!(!m.is_host_online(HostId(0)));
        assert!(m.is_host_online(HostId(1)));
        assert_eq!(m.crashed_host_ids(), vec![HostId(0)]);
        assert_eq!(
            m.place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(1)),
            Err(MarketError::HostOffline(HostId(0)))
        );
        assert_eq!(m.quotes_for(UserId(2), &m.host_ids()).len(), 1);
        let ticked: Vec<HostId> = m
            .tick(SimTime::from_secs(20))
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ticked, vec![HostId(1)]);

        // Double crash is an error; recovery brings the host back empty.
        assert_eq!(
            m.crash_host(HostId(0)),
            Err(MarketError::HostOffline(HostId(0)))
        );
        m.recover_host(HostId(0)).unwrap();
        assert!(m.is_host_online(HostId(0)));
        assert_eq!(m.auctioneer(HostId(0)).unwrap().live_bids(), 0);
        m.place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(5))
            .unwrap();
        assert_eq!(m.bank().total_money(), Credits::from_whole(100));
    }

    #[test]
    fn bank_outage_blocks_money_movement_until_restore() {
        let (mut m, acct) = market_with_user(1, 100);
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(30))
            .unwrap();
        m.set_bank_online(false);
        assert!(!m.bank_online);
        assert_eq!(
            m.place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(10)),
            Err(MarketError::BankUnavailable)
        );
        assert_eq!(
            m.top_up_bid(HostId(0), h, acct, Credits::from_whole(10)),
            Err(MarketError::BankUnavailable)
        );
        assert_eq!(m.cancel_bid(HostId(0), h, acct), Err(MarketError::BankUnavailable));
        // The failed cancel left the bid live; ticks keep running.
        assert_eq!(m.auctioneer(HostId(0)).unwrap().live_bids(), 1);
        m.tick(SimTime::from_secs(10));
        m.set_bank_online(true);
        let refund = m.cancel_bid(HostId(0), h, acct).unwrap();
        assert_eq!(refund, Credits::from_whole(20));
        assert_eq!(m.bank().total_money(), Credits::from_whole(100));
    }

    #[test]
    fn crash_during_bank_outage_still_refunds_and_conserves() {
        let (mut m, acct) = market_with_user(1, 100);
        m.place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(40))
            .unwrap();
        m.set_bank_online(false);
        let report = m.crash_host(HostId(0)).unwrap();
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(100));
        assert_eq!(m.bank().total_money(), Credits::from_whole(100));
    }

    #[test]
    fn telemetry_counts_market_activity() {
        use gm_telemetry::{ManualClock, Registry};
        let registry = Registry::new();
        let clock = ManualClock::new();
        let (mut m, acct) = market_with_user(2, 100);
        m.attach_telemetry(&registry, std::sync::Arc::new(clock.clone()));

        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(30))
            .unwrap();
        m.place_funded_bid(UserId(1), acct, HostId(1), 0.5, Credits::from_whole(20))
            .unwrap();
        assert!(m
            .place_funded_bid(UserId(1), acct, HostId(7), 1.0, Credits::from_whole(1))
            .is_err());
        clock.set_micros(100);
        m.tick(SimTime::from_secs(10));
        m.cancel_bid(HostId(0), h, acct).unwrap();
        m.crash_host(HostId(1)).unwrap();
        m.set_bank_online(false);
        assert_eq!(
            m.place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(1)),
            Err(MarketError::BankUnavailable)
        );

        let snap = registry.snapshot();
        assert_eq!(snap.counters["market.ticks"], 1);
        assert_eq!(snap.counters["market.bids_placed"], 2);
        assert_eq!(snap.counters["market.bids_rejected"], 2);
        assert_eq!(snap.counters["market.evictions"], 1);
        assert_eq!(snap.counters["market.refunds"], 2, "cancel + crash refund");
        assert_eq!(snap.counters["market.bank_unavailable"], 1);
        assert_eq!(snap.counters["market.bank_outages"], 1);
        assert_eq!(snap.histograms["market.tick_us"].count, 1);
        assert!(snap.gauges.contains_key("market.spot.host000"));
    }

    #[test]
    fn bank_restart_recovers_books_from_journal_and_audits() {
        use gm_telemetry::{ManualClock, Registry};
        let registry = Registry::new();
        let (mut m, acct) = market_with_user(2, 100);
        m.attach_telemetry(&registry, std::sync::Arc::new(ManualClock::new()));
        m.attach_ledger(SharedJournal::new());
        // Pre-restart activity: a bid moves escrow, a token spend is
        // recorded, an outage is open when the restart lands.
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(30))
            .unwrap();
        m.tick(SimTime::from_secs(10));
        m.bank_mut().record_token_spend(999);
        let digest_before = m.bank().state_digest();
        m.set_bank_online(false);

        let report = m.restart_bank().unwrap();
        assert!(report.snapshot_restored);
        assert!(m.bank_online, "restart ends the outage");
        assert_eq!(m.bank().state_digest(), digest_before, "byte-identical books");
        assert!(m.bank().is_token_spent(999), "spent set survived");
        assert_eq!(m.bank().total_money(), m.bank().total_minted());
        // The live bid and its escrow are still consistent: cancel works.
        let refund = m.cancel_bid(HostId(0), h, acct).unwrap();
        assert_eq!(refund, Credits::from_whole(20));
        assert_eq!(m.bank().total_money(), Credits::from_whole(100));

        let snap = registry.snapshot();
        assert_eq!(snap.counters["ledger.recoveries"], 1);
        assert_eq!(snap.counters["ledger.audit_failures"], 0);
        assert!(snap.counters["ledger.audits"] >= 1);
        assert!(snap.counters["ledger.appends"] > 0);
    }

    #[test]
    fn bank_restart_keeps_the_checkpoint_cadence() {
        const EVERY: u64 = 4;
        let run = |restart: bool| {
            let (mut m, acct) = market_with_user(2, 100);
            let journal = SharedJournal::new();
            m.attach_ledger(journal.clone());
            m.bank_mut().set_snapshot_every(EVERY);
            let other = m
                .bank_mut()
                .open_account(Keypair::from_seed(b"o").public, "o");
            m.bank_mut()
                .transfer(acct, other, Credits::from_whole(1))
                .unwrap();
            if restart {
                m.restart_bank().unwrap();
                assert_eq!(m.bank().snapshot_every(), EVERY, "cadence survived");
            }
            for i in 0..3 * EVERY as i64 {
                m.bank_mut()
                    .transfer(acct, other, Credits::from_whole(1 + i % 3))
                    .unwrap();
                assert!(
                    journal.record_count() < EVERY as usize,
                    "WAL compacted again"
                );
            }
            let balances = [acct, other].map(|a| m.bank().balance(a).unwrap());
            (balances, m.bank().state_digest())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn bank_restart_without_journal_degrades_to_outage_restore() {
        let (mut m, acct) = market_with_user(1, 50);
        m.set_bank_online(false);
        let report = m.restart_bank().unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert!(m.bank_online);
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(50));
    }

    #[test]
    fn audit_ledger_flags_nonconserving_books() {
        let (m, _) = market_with_user(1, 50);
        assert!(m.audit_ledger().ok());
    }

    #[test]
    fn degraded_links_withhold_quotes_until_restored() {
        let (mut m, acct) = market_with_user(2, 100);
        m.place_funded_bid(UserId(1), acct, HostId(0), 0.5, Credits::from_whole(10))
            .unwrap();
        assert!(!m.links_degraded());
        assert_eq!(m.try_quotes_for(UserId(2), &m.host_ids()).unwrap().len(), 2);
        m.set_links_degraded(true);
        assert!(m.links_degraded());
        assert!(m.try_quotes_for(UserId(2), &m.host_ids()).is_none());
        // Degraded links affect quotes only: money movement still works.
        m.place_funded_bid(UserId(1), acct, HostId(1), 0.5, Credits::from_whole(10))
            .unwrap();
        m.set_links_degraded(false);
        assert_eq!(m.try_quotes_for(UserId(2), &m.host_ids()).unwrap().len(), 2);
    }

    #[test]
    fn exhausted_bids_leave_income_with_host() {
        let (mut m, acct) = market_with_user(1, 10);
        m.place_funded_bid(UserId(1), acct, HostId(0), 1.0, Credits::from_whole(10))
            .unwrap();
        for k in 1..=3 {
            m.tick(SimTime::from_secs(10 * k));
        }
        assert_eq!(m.auctioneer(HostId(0)).unwrap().live_bids(), 0);
        assert_eq!(
            m.auctioneer(HostId(0)).unwrap().earned(),
            Credits::from_whole(10)
        );
        assert_eq!(m.bank().total_money(), Credits::from_whole(10));
    }

    // -------------------------------------------- scale-refactor tests

    #[test]
    fn sharded_tick_is_byte_identical_to_sequential() {
        let run = |shards: usize| {
            let (mut m, acct) = market_with_user(13, 10_000);
            m.set_sharding(shards);
            for i in 0..13 {
                m.place_funded_bid(UserId(1 + i % 3), acct, HostId(i), 0.1 + i as f64 * 0.01, Credits::from_whole(20))
                    .unwrap();
            }
            let mut allocs = Vec::new();
            for k in 1..=30 {
                allocs.push(m.tick(SimTime::from_secs(10 * k)));
            }
            let spots: Vec<(HostId, u64)> =
                m.spot_prices().into_iter().map(|(h, p)| (h, p.to_bits())).collect();
            let published: Vec<(HostId, u64)> =
                published_spots(&m).into_iter().map(|(h, p)| (h, p.to_bits())).collect();
            (allocs, spots, published, m.bank().state_digest())
        };
        let seq = run(1);
        assert_eq!(seq, run(2));
        assert_eq!(seq, run(8));
        assert_eq!(seq, run(64), "more shards than hosts");
    }

    #[test]
    fn published_spots_lag_the_live_price_by_one_tick() {
        let (mut m, acct) = market_with_user(1, 100);
        let reserve = m.auctioneer(HostId(0)).unwrap().spec().reserve_rate;
        // Before the first tick, the epoch buffer holds the idle spot.
        assert_eq!(published_spot(&m, HostId(0)), Some(reserve));
        m.place_funded_bid(UserId(1), acct, HostId(0), 0.25, Credits::from_whole(50))
            .unwrap();
        // Live price sees the bid immediately; the epoch price does not.
        assert!((m.spot_prices()[0].1 - (0.25 + reserve)).abs() < 1e-12);
        assert_eq!(published_spot(&m, HostId(0)), Some(reserve));
        m.tick(SimTime::from_secs(10));
        // The tick published its tick-start spot (which included the bid).
        assert!((published_spot(&m, HostId(0)).unwrap() - (0.25 + reserve)).abs() < 1e-12);
    }

    #[test]
    fn payer_index_stays_bounded_through_crash_recover_churn() {
        // The satellite regression: payer records must die with their
        // bids — across cancellation, exhaustion, eviction and recovery —
        // so the index can never grow beyond the live funded bids.
        let (mut m, acct) = market_with_user(3, 1_000_000);
        // The exhaust-in-one-tick bids run hotter than the guard's rate
        // cap; this test is about payer bookkeeping, not defenses.
        m.set_guard(GuardConfig::disabled());
        let mut tick = 0u64;
        for round in 0..50 {
            for i in 0..3 {
                // One long-lived bid and one that exhausts in a single tick.
                m.place_funded_bid(UserId(1), acct, HostId(i), 0.1, Credits::from_whole(100))
                    .unwrap();
                m.place_funded_bid(UserId(2), acct, HostId(i), 5.0, Credits::from_whole(1))
                    .unwrap();
            }
            assert_eq!(m.payer_index_len(), 6);
            tick += 1;
            m.tick(SimTime::from_secs(10 * tick)); // exhausts the rate-5 bids
            assert_eq!(m.payer_index_len(), 3, "round {round}: exhausted bids shed payers");
            let crash = HostId(round % 3);
            m.crash_host(crash).unwrap();
            assert_eq!(m.payer_index_len(), 2, "eviction sheds payers");
            m.recover_host(crash).unwrap();
            // Evict the survivors so the next round starts clean:
            // crash+recover the hosts that still carry a bid.
            for i in 0..3 {
                if m.auctioneer(HostId(i)).unwrap().live_bids() > 0 {
                    m.crash_host(HostId(i)).unwrap();
                    m.recover_host(HostId(i)).unwrap();
                }
            }
            assert_eq!(m.payer_index_len(), 0, "round {round} ends clean");
        }
        assert_eq!(m.bank().total_money(), Credits::from_whole(1_000_000), "churn conserves money");
    }

    #[test]
    fn over_limit_bidder_is_rate_limited_then_quarantined_with_refunds() {
        let (mut m, acct) = market_with_user(2, 1000);
        // An honest bid first, so quarantine has something to refund.
        m.place_funded_bid(UserId(1), acct, HostId(0), 0.05, Credits::from_whole(40))
            .unwrap();
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(960));

        // Two over-cap bids strike with escalating backoff advice ...
        let e1 = m
            .place_funded_bid(UserId(1), acct, HostId(1), 50.0, Credits::from_whole(100))
            .unwrap_err();
        let e2 = m
            .place_funded_bid(UserId(1), acct, HostId(1), 50.0, Credits::from_whole(100))
            .unwrap_err();
        let (MarketError::RateLimited { retry_after_secs: r1 },
             MarketError::RateLimited { retry_after_secs: r2 }) = (e1, e2)
        else {
            panic!("over-cap bids must be rate limited, got {e1:?} / {e2:?}");
        };
        assert!(r2 > r1, "backoff advice must escalate");
        // ... no money moved on a rejected bid.
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(960));

        // The third strike quarantines: the honest bid is evicted and its
        // escrow refunded, conserving money.
        let e3 = m
            .place_funded_bid(UserId(1), acct, HostId(1), 50.0, Credits::from_whole(100))
            .unwrap_err();
        assert_eq!(e3, MarketError::AccountQuarantined(acct));
        assert!(m.guard().quarantined_accounts().contains(&acct));
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(1000));
        assert_eq!(m.payer_index_len(), 0, "quarantine evicts the account's bids");
        assert_eq!(m.bank().total_money(), Credits::from_whole(1000));

        // Quarantined accounts cannot bid at any rate — until released.
        let e4 = m
            .place_funded_bid(UserId(1), acct, HostId(0), 0.05, Credits::from_whole(1))
            .unwrap_err();
        assert_eq!(e4, MarketError::AccountQuarantined(acct));
        assert!(m.release_account(acct));
        m.place_funded_bid(UserId(1), acct, HostId(0), 0.05, Credits::from_whole(1))
            .unwrap();
    }

    #[test]
    fn over_limit_rebid_is_vetted_like_a_placement() {
        // The cheapest spike is a tiny compliant bid cranked via re-bids:
        // `update_bid_rate` must strike and eventually quarantine exactly
        // like `place_funded_bid` does.
        let (mut m, acct) = market_with_user(1, 1000);
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 0.05, Credits::from_whole(40))
            .unwrap();
        // Compliant re-bids pass untouched.
        m.update_bid_rate(HostId(0), h, 0.08).unwrap();

        let e1 = m.update_bid_rate(HostId(0), h, 50.0).unwrap_err();
        let e2 = m.update_bid_rate(HostId(0), h, 50.0).unwrap_err();
        let (MarketError::RateLimited { retry_after_secs: r1 },
             MarketError::RateLimited { retry_after_secs: r2 }) = (e1, e2)
        else {
            panic!("over-cap re-bids must be rate limited, got {e1:?} / {e2:?}");
        };
        assert!(r2 > r1, "backoff advice must escalate");
        // The rejected update leaves the accepted rate live.
        assert!((m.auctioneer(HostId(0)).unwrap().total_bid_rate() - 0.08).abs() < 1e-12);

        // Third strike quarantines: the bid is evicted, escrow refunded.
        let e3 = m.update_bid_rate(HostId(0), h, 50.0).unwrap_err();
        assert_eq!(e3, MarketError::AccountQuarantined(acct));
        assert!(m.guard().quarantined_accounts().contains(&acct));
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(1000));
        assert_eq!(m.payer_index_len(), 0);
        assert_eq!(m.bank().total_money(), Credits::from_whole(1000));

        // With the guard disabled the same escalation sails through.
        let (mut m2, acct2) = market_with_user(1, 1000);
        m2.set_guard(GuardConfig::disabled());
        let h2 = m2
            .place_funded_bid(UserId(1), acct2, HostId(0), 0.05, Credits::from_whole(40))
            .unwrap();
        m2.update_bid_rate(HostId(0), h2, 50.0).unwrap();
        assert!((m2.auctioneer(HostId(0)).unwrap().total_bid_rate() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn quarantined_account_cannot_top_up_surviving_bids() {
        let (mut m, acct) = market_with_user(1, 1000);
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 0.05, Credits::from_whole(10))
            .unwrap();
        assert_eq!(m.quarantine_account(acct), 1);
        // The bid is gone, but even against a stale handle the guard's
        // verdict comes first.
        let err = m.top_up_bid(HostId(0), h, acct, Credits::from_whole(5)).unwrap_err();
        assert_eq!(err, MarketError::AccountQuarantined(acct));
        assert_eq!(m.bank().balance(acct).unwrap(), Credits::from_whole(1000));
    }

    #[test]
    fn breaker_damps_published_spike_but_not_live_spot() {
        // Five per-bid-compliant bids stack the spot far beyond the band:
        // the breaker clamps the *published* epoch price (and the trace)
        // while the live spot — what charging uses — stays raw.
        let (mut m, acct) = market_with_user(1, 1000);
        for _ in 0..5 {
            m.place_funded_bid(UserId(1), acct, HostId(0), 0.95, Credits::from_whole(100))
                .unwrap();
        }
        let reserve = HostSpec::testbed(0).reserve_rate;
        let raw = 5.0 * 0.95 + reserve;
        m.tick(SimTime::from_secs(10));
        let cfg = GuardConfig::default();
        let clamped = cfg.breaker_floor * cfg.breaker_band;
        assert!((published_spot(&m, HostId(0)).unwrap() - clamped).abs() < 1e-12);
        assert!((m.spot_prices()[0].1 - raw).abs() < 1e-12, "live spot stays raw");
        // Cooldown slews the published price toward the raw spot over the
        // following ticks instead of jumping.
        m.tick(SimTime::from_secs(20));
        let p2 = published_spot(&m, HostId(0)).unwrap();
        assert!(p2 > clamped && p2 <= clamped * cfg.breaker_band + 1e-12);
        // An identical market with the guard disabled publishes raw at once.
        let (mut m2, acct2) = market_with_user(1, 1000);
        m2.set_guard(GuardConfig::disabled());
        for _ in 0..5 {
            m2.place_funded_bid(UserId(1), acct2, HostId(0), 0.95, Credits::from_whole(100))
                .unwrap();
        }
        m2.tick(SimTime::from_secs(10));
        assert!((published_spot(&m2, HostId(0)).unwrap() - raw).abs() < 1e-12);
    }

    #[test]
    fn quiet_needs_empty_lanes_fresh_prices_and_settled_breakers() {
        let (mut m, acct) = market_with_user(2, 1000);
        assert!(m.is_quiet(), "an idle market publishes its reserve");
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(0), 0.5, Credits::from_whole(100))
            .unwrap();
        assert!(!m.is_quiet(), "a live bid");
        m.tick(SimTime::from_secs(0));
        assert!(!m.is_quiet(), "a live bid, even with its price published");
        m.cancel_bid(HostId(0), h, acct).unwrap();
        assert!(!m.is_quiet(), "the published spot still holds the bid");
        m.tick(SimTime::from_secs(10));
        assert!(m.is_quiet());

        // A hair-trigger breaker trips on the bid and slews the published
        // price back down after it leaves. Once the slew converges the
        // published spot equals the live one, but the cooldown still runs
        // down one tick at a time: that is not quiet yet.
        m.set_guard(GuardConfig {
            breaker_band: 1.5,
            breaker_floor: 1e-4,
            ..GuardConfig::default()
        });
        let h = m
            .place_funded_bid(UserId(1), acct, HostId(1), 0.5, Credits::from_whole(100))
            .unwrap();
        m.tick(SimTime::from_secs(20));
        m.cancel_bid(HostId(1), h, acct).unwrap();
        let slot = m.arena.slot_of(HostId(1)).unwrap();
        let mut now = SimTime::from_secs(30);
        let mut cooling_but_converged = 0;
        while m.arena.breaker_cooldown(slot) > 0 {
            m.tick(now);
            now += SimDuration::from_secs(10);
            let converged = m.arena.published_spot(slot).to_bits()
                == m.auctioneer(HostId(1)).unwrap().spot_price().to_bits();
            if converged && m.arena.breaker_cooldown(slot) > 0 {
                cooling_but_converged += 1;
                assert!(!m.is_quiet(), "the breaker is still cooling down");
            }
        }
        assert!(cooling_but_converged > 0);
        assert!(m.is_quiet());
    }

    #[test]
    fn tick_quiet_matches_ticking_an_idle_market() {
        use gm_telemetry::{metrics_jsonl, ManualClock, Registry};
        let build = |shards: usize, trace: bool| {
            let registry = Registry::new();
            let (mut m, acct) = market_with_user(3, 1000);
            m.set_sharding(shards);
            m.set_price_trace_enabled(trace);
            m.attach_telemetry(&registry, Arc::new(ManualClock::new()));
            let h = m
                .place_funded_bid(UserId(1), acct, HostId(0), 0.3, Credits::from_whole(50))
                .unwrap();
            m.tick(SimTime::from_secs(0));
            m.cancel_bid(HostId(0), h, acct).unwrap();
            m.crash_host(HostId(2)).unwrap();
            m.tick(SimTime::from_secs(10));
            m.add_host(HostSpec::testbed(3));
            (m, registry)
        };
        let trace = |m: &Market| -> Vec<(String, Vec<(SimTime, u64)>)> {
            m.price_trace()
                .iter()
                .map(|(key, s)| {
                    (key.to_owned(), s.iter().map(|(t, v)| (t, v.to_bits())).collect())
                })
                .collect()
        };
        let cases = [(1, true, 37), (2, true, 37), (1, false, 37), (1, true, 1), (2, false, 1)];
        for (shards, trace_on, k) in cases {
            let case = format!("shards {shards}, trace {trace_on}, k {k}");
            let (mut stepped, stepped_reg) = build(shards, trace_on);
            let (mut skipped, skipped_reg) = build(shards, trace_on);
            assert!(skipped.is_quiet(), "{case}");
            let (start, dt) = (SimTime::from_secs(20), SimDuration::from_secs(10));
            for j in 0..k {
                stepped.tick(start + dt * j);
            }
            skipped.tick_quiet(start, dt, k);

            assert_eq!(trace(&skipped), trace(&stepped), "{case}");
            assert_eq!(skipped.price_trace().is_empty(), !trace_on, "{case}");
            assert_eq!(published_spots(&skipped), published_spots(&stepped), "{case}");
            let (a, b) = (skipped_reg.snapshot(), stepped_reg.snapshot());
            assert_eq!(metrics_jsonl(&a), metrics_jsonl(&b), "{case}");
            assert_eq!(a.counters["market.ticks"], 2 + k, "{case}");
            assert_eq!(a.histograms["market.tick_us"].count, 2 + k, "{case}");
            // Host 3 joined after the last stepped tick: only the span
            // exports its gauge.
            assert!(a.gauges.contains_key("market.spot.host003"), "{case}");
        }
    }

    #[test]
    #[should_panic(expected = "tick_quiet on a market with work to do")]
    fn tick_quiet_refuses_a_market_with_a_live_bid() {
        let (mut m, acct) = market_with_user(2, 1000);
        m.tick(SimTime::from_secs(0));
        m.place_funded_bid(UserId(1), acct, HostId(1), 0.5, Credits::from_whole(100))
            .unwrap();
        m.tick_quiet(SimTime::from_secs(10), SimDuration::from_secs(10), 5);
    }
}
