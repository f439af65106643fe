//! Dense struct-of-arrays host arena — the market's hot state
//! (DESIGN.md §15).
//!
//! The pre-refactor `Market` kept a `BTreeMap<HostId, HostEntry>` and
//! walked it every tick; at 100k hosts that is 100k pointer-chasing tree
//! probes per interval. The arena stores every per-host column in a
//! parallel `Vec` indexed by a stable *slot*:
//!
//! * `auctioneers[slot]` — the per-host auction state (itself a dense
//!   bid lane, see `auction::BidLane`),
//! * `accounts[slot]` — the host's bank account,
//! * `labels[slot]` — the cached `"host000"` label (so the per-tick
//!   price trace never formats),
//! * `occupied[slot]` / `live[slot]` — slot in use (every slot, since
//!   hosts are never removed) / host not crashed,
//! * `published_spot[slot]` — the epoch price: the spot price published
//!   at the last tick boundary (readers during tick `e` see epoch `e-1`).
//!
//! Slots are interned through `lookup[HostId.0] → slot` (dense, `u32::MAX`
//! sentinel); hosts are never removed (a crash only clears `live`), so
//! crash/recover churn never grows the arena. Iteration uses
//! `order` — the occupied slots in ascending `HostId` order — which keeps
//! every sweep, quote and export byte-identical to the old id-ordered
//! `BTreeMap` walk.

use crate::auction::Auctioneer;
use crate::bank::AccountId;
use crate::host::{HostId, HostSpec};

/// `lookup` sentinel: this id has no slot.
const NO_SLOT: u32 = u32::MAX;

/// Dense struct-of-arrays storage for every host in the market.
pub struct HostArena {
    /// `HostId.0 → slot` interner (dense, [`u32::MAX`] = absent).
    lookup: Vec<u32>,
    /// Occupied slots in ascending `HostId` order — the deterministic
    /// iteration order of every market operation.
    order: Vec<u32>,
    /// Host id of each slot.
    ids: Vec<HostId>,
    /// Per-host auction state of each slot.
    auctioneers: Vec<Auctioneer>,
    /// Host bank account of each slot.
    accounts: Vec<AccountId>,
    /// Cached `"host000"` display label of each slot.
    labels: Vec<String>,
    /// Slot is in use (host registered, possibly crashed). Every slot is:
    /// hosts are never removed. The sharded sweep still masks on it.
    occupied: Vec<bool>,
    /// Host is online (not crashed).
    live: Vec<bool>,
    /// Epoch price: spot published at the last tick boundary. Initialised
    /// to the host's reserve rate (the idle spot) on insert.
    published_spot: Vec<f64>,
    /// Remaining price-band circuit-breaker cooldown ticks (DESIGN.md
    /// §16). `0` = breaker disengaged. Maintained at publication time —
    /// single-threaded in both tick paths — so it is byte-identical at
    /// any shard count.
    breaker_cooldown: Vec<u32>,
    /// Advisory gray-failure health score of each slot in `[0, 1]`
    /// (DESIGN.md §17). `1.0` = nominal. Published by the grid layer's
    /// `HealthScore` trackers; allocation and charging never read it —
    /// like the breaker column it is pure telemetry to the market.
    health: Vec<f64>,
}

impl HostArena {
    /// An empty arena.
    pub fn new() -> HostArena {
        HostArena {
            lookup: Vec::new(),
            order: Vec::new(),
            ids: Vec::new(),
            auctioneers: Vec::new(),
            accounts: Vec::new(),
            labels: Vec::new(),
            occupied: Vec::new(),
            live: Vec::new(),
            published_spot: Vec::new(),
            breaker_cooldown: Vec::new(),
            health: Vec::new(),
        }
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no hosts are registered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of slots ever allocated (one per registered host).
    pub fn capacity_slots(&self) -> usize {
        self.ids.len()
    }

    /// The slot of `id`, if registered.
    pub fn slot_of(&self, id: HostId) -> Option<usize> {
        match self.lookup.get(id.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: HostId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Occupied slots in ascending `HostId` order.
    pub fn ordered_slots(&self) -> &[u32] {
        &self.order
    }

    /// Register a host in the next slot. Returns the slot.
    ///
    /// # Panics
    /// Panics if `id` is already registered.
    pub fn insert(&mut self, auctioneer: Auctioneer, account: AccountId) -> usize {
        let spec: &HostSpec = auctioneer.spec();
        let id = spec.id;
        let idle_spot = spec.reserve_rate;
        assert!(!self.contains(id), "duplicate host {id:?}");
        let slot = self.ids.len();
        self.ids.push(id);
        self.auctioneers.push(auctioneer);
        self.accounts.push(account);
        self.labels.push(format!("{id}"));
        self.occupied.push(true);
        self.live.push(true);
        self.published_spot.push(idle_spot);
        self.breaker_cooldown.push(0);
        self.health.push(1.0);
        if self.lookup.len() <= id.0 as usize {
            self.lookup.resize(id.0 as usize + 1, NO_SLOT);
        }
        self.lookup[id.0 as usize] = slot as u32;
        let pos = self
            .order
            .binary_search_by_key(&id, |&s| self.ids[s as usize])
            .expect_err("id cannot already be in order");
        self.order.insert(pos, slot as u32);
        slot
    }

    /// Host id stored in `slot`.
    pub fn id(&self, slot: usize) -> HostId {
        self.ids[slot]
    }

    /// Cached display label of `slot`.
    pub fn label(&self, slot: usize) -> &str {
        &self.labels[slot]
    }

    /// Bank account of `slot`.
    pub fn account(&self, slot: usize) -> AccountId {
        self.accounts[slot]
    }

    /// Auctioneer of `slot`.
    pub fn auctioneer(&self, slot: usize) -> &Auctioneer {
        &self.auctioneers[slot]
    }

    /// Mutable auctioneer of `slot`.
    pub fn auctioneer_mut(&mut self, slot: usize) -> &mut Auctioneer {
        &mut self.auctioneers[slot]
    }

    /// Whether `slot` is online.
    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot]
    }

    /// Mark `slot` crashed (`false`) or online (`true`).
    pub fn set_live(&mut self, slot: usize, live: bool) {
        self.live[slot] = live;
    }

    /// The epoch price of `slot` — the spot published at the last tick
    /// boundary (DESIGN.md §15).
    pub fn published_spot(&self, slot: usize) -> f64 {
        self.published_spot[slot]
    }

    /// Publish `spot` as `slot`'s epoch price at a tick boundary.
    pub fn publish_spot(&mut self, slot: usize, spot: f64) {
        self.published_spot[slot] = spot;
    }

    /// Remaining circuit-breaker cooldown ticks of `slot` (DESIGN.md §16).
    pub fn breaker_cooldown(&self, slot: usize) -> u32 {
        self.breaker_cooldown[slot]
    }

    /// Store `slot`'s circuit-breaker cooldown at publication time.
    pub fn set_breaker_cooldown(&mut self, slot: usize, ticks: u32) {
        self.breaker_cooldown[slot] = ticks;
    }

    /// Advisory health score of `slot` in `[0, 1]` (DESIGN.md §17).
    pub fn health(&self, slot: usize) -> f64 {
        self.health[slot]
    }

    /// Publish `slot`'s health score (grid-layer `HealthScore` tracker).
    pub fn set_health(&mut self, slot: usize, score: f64) {
        self.health[slot] = score;
    }

    /// The columns the parallel sweep needs, borrowed disjointly: the
    /// mutable auctioneer lane plus the shared occupancy/liveness masks
    /// (workers skip crashed slots).
    pub fn sweep_columns(&mut self) -> (&mut [Auctioneer], &[bool], &[bool]) {
        (&mut self.auctioneers, &self.occupied, &self.live)
    }

    /// Ids of registered hosts in ascending order.
    pub fn ids_in_order(&self) -> impl Iterator<Item = HostId> + '_ {
        self.order.iter().map(|&s| self.ids[s as usize])
    }
}

impl Default for HostArena {
    fn default() -> Self {
        HostArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_with(ids: &[u32]) -> HostArena {
        let mut a = HostArena::new();
        for &i in ids {
            a.insert(Auctioneer::new(HostSpec::testbed(i)), AccountId(i as u64));
        }
        a
    }

    #[test]
    fn insert_interns_and_orders_by_id() {
        // Out-of-order insertion still iterates in ascending id order.
        let a = arena_with(&[5, 1, 9, 3]);
        let ids: Vec<u32> = a.ids_in_order().map(|h| h.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.slot_of(HostId(9)), Some(2));
        assert_eq!(a.slot_of(HostId(2)), None);
        assert!(a.contains(HostId(1)));
        assert_eq!(a.label(a.slot_of(HostId(3)).unwrap()), "host003");
    }

    #[test]
    fn liveness_and_epoch_price_per_slot() {
        let mut a = arena_with(&[0, 1]);
        let s = a.slot_of(HostId(0)).unwrap();
        assert!(a.is_live(s));
        a.set_live(s, false);
        assert!(!a.is_live(s));
        // Epoch price starts at the idle spot (the reserve rate).
        assert!(a.published_spot(s) > 0.0);
        a.publish_spot(s, 0.5);
        assert_eq!(a.published_spot(s), 0.5);
        // Breaker state starts disengaged and is a plain dense column.
        assert_eq!(a.breaker_cooldown(s), 0);
        a.set_breaker_cooldown(s, 6);
        assert_eq!(a.breaker_cooldown(s), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate host")]
    fn duplicate_insert_rejected() {
        let mut a = arena_with(&[0]);
        a.insert(Auctioneer::new(HostSpec::testbed(0)), AccountId(9));
    }
}
