//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a time-sorted schedule of [`FaultEvent`]s — host
//! crashes and recoveries, VM failures, bank outages and restarts,
//! degraded-link windows, adversary arrivals and gray host faults. Plans
//! are either built explicitly (fixed times, for regression scenarios) or
//! generated from a seed with [`FaultPlan::generate`], so chaos runs are
//! byte-reproducible: the same seed always yields the same schedule, and
//! the consumers downstream (market, grid, scenario driver) are themselves
//! deterministic.
//!
//! The kernel crate knows nothing about hosts or banks; targets are plain
//! `u32` indices that the layer applying the plan maps onto its own IDs.

use crate::rng::{Rng64, SplitMix64};
use crate::time::{SimDuration, SimTime};

/// The kind of a scheduled fault.
///
/// The discriminants are fixed: they order events at the same instant
/// (the derived `Ord` and the `(at, kind, target)` plan sort) and feed the
/// golden schedule fingerprints below. Ordinals 3 and 4 belonged to two
/// message faults no plan ever scheduled and stay unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A host fails abruptly: its bids are evicted, its VMs die, and any
    /// subjob running on it is interrupted.
    HostCrash = 0,
    /// A previously crashed host rejoins the market (empty, no VMs).
    HostRecover = 1,
    /// A single VM on an otherwise healthy host dies.
    VmFailure = 2,
    /// The bank becomes unreachable; money movement fails until the paired
    /// [`FaultKind::BankRestore`].
    BankOutage = 5,
    /// The bank comes back online.
    BankRestore = 6,
    /// The bank process dies and is brought back from its durable journal
    /// (snapshot + WAL replay). Unlike [`FaultKind::BankOutage`], the
    /// in-memory bank state is discarded — only journaled state survives.
    ///
    /// Appended last so the `(at, kind, target)` sort order of plans that
    /// never schedule restarts is unchanged.
    BankRestart = 7,
    /// The service links degrade: quotes and transfers become lossy until
    /// the paired [`FaultKind::LinkUp`], and consumers fall back to
    /// degraded-mode pricing (`DESIGN.md` §12).
    ///
    /// Appended after [`FaultKind::BankRestart`] so existing plans keep
    /// their `(at, kind, target)` sort order.
    LinkDown = 8,
    /// The degraded service links recover.
    LinkUp = 9,
    /// A strategic adversary cohort arrives (the `gm-adversary` attack
    /// library materialises the actual hostile job requests at these
    /// times; policies themselves only trace the event). `target` is the
    /// adversary index within the cohort.
    ///
    /// Appended after [`FaultKind::LinkUp`] so existing plans keep their
    /// `(at, kind, target)` sort order.
    AdversaryArrival = 10,
    /// A host degrades *gray*: it stays online, keeps its VMs and keeps
    /// accepting bids, but delivers only a fraction of its nominal
    /// compute rate until the paired [`FaultKind::HostRestore`]. The
    /// target packs the host index in the low 16 bits and the delivered
    /// rate in permille (1..=1000) in the high 16 bits — see
    /// [`gray_target`].
    ///
    /// Appended after [`FaultKind::AdversaryArrival`] so existing plans
    /// keep their `(at, kind, target)` sort order.
    HostSlowdown = 11,
    /// A gray-degraded host returns to nominal rate (clears any active
    /// slowdown or stall). Target is the plain host index.
    HostRestore = 12,
    /// A host stalls completely for a bounded window: progress is zero
    /// but the host never leaves the market. The target packs the host
    /// index in the low 16 bits and the stall window in whole seconds
    /// in the high 16 bits — see [`gray_target`]. Self-expiring; no
    /// paired restore event is required.
    HostStall = 13,
}

/// Maximum host index addressable by packed gray-fault targets (the low
/// 16 bits of [`FaultEvent::target`]).
pub const MAX_GRAY_HOSTS: u32 = 1 << 16;

/// Pack a gray-fault target: host index in the low 16 bits, payload in
/// the high 16 bits (delivered rate in permille for
/// [`FaultKind::HostSlowdown`], stall window in seconds for
/// [`FaultKind::HostStall`]).
pub fn gray_target(host: u32, payload: u16) -> u32 {
    (host & (MAX_GRAY_HOSTS - 1)) | (u32::from(payload) << 16)
}

/// Host index of a packed gray-fault target.
pub fn gray_host(target: u32) -> u32 {
    target & (MAX_GRAY_HOSTS - 1)
}

/// Payload of a packed gray-fault target (permille or seconds).
pub fn gray_payload(target: u32) -> u16 {
    (target >> 16) as u16
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
    /// Target index: host index for host/VM faults, a packed host and
    /// payload for gray faults (see [`gray_target`]), the adversary index
    /// for [`FaultKind::AdversaryArrival`], unused (0) for bank and link
    /// faults.
    pub target: u32,
}

/// Parameters for seeded fault-schedule generation: the targets and the
/// window a plan is drawn over, and the mix of faults drawn into it.
#[derive(Debug, Clone, Copy)]
pub struct FaultGenConfig {
    /// Number of hosts fault targets are drawn from (indices `0..hosts`).
    pub hosts: u32,
    /// Faults are scheduled strictly before this time.
    pub horizon: SimTime,
    /// How many faults of each class, and how long each lasts.
    pub mix: FaultMix,
}

impl Default for FaultGenConfig {
    fn default() -> Self {
        FaultGenConfig {
            hosts: 4,
            horizon: SimTime::from_secs(4 * 3600),
            mix: FaultMix::default(),
        }
    }
}

/// The fault classes a generated plan draws, their counts and their
/// lengths — the part of a [`FaultGenConfig`] a chaos world configures
/// (`gridmarket::ChaosConfig` holds one and adds the hosts and horizon).
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Number of host crash events (each paired with a recovery).
    pub crashes: u32,
    /// Mean downtime between a crash and its recovery; actual downtimes are
    /// jittered uniformly in `[0.5, 1.5] ×` this value.
    pub mean_downtime: SimDuration,
    /// Number of standalone VM failures.
    pub vm_failures: u32,
    /// Number of bank unavailability windows.
    pub bank_outages: u32,
    /// Length of each bank outage window.
    pub outage_len: SimDuration,
    /// Number of bank restarts (kill + recover from the durable journal).
    pub bank_restarts: u32,
    /// Number of degraded-link windows (each paired with a recovery).
    pub link_outages: u32,
    /// Length of each degraded-link window.
    pub link_outage_len: SimDuration,
    /// Number of adversary arrival events (strategic-bidder cohorts;
    /// `gm-adversary` turns them into hostile job requests). Drawn after
    /// every other stream so pre-adversary seeds keep their schedules
    /// byte-identical.
    pub adversary_arrivals: u32,
    /// Number of gray slowdown windows (each paired with a restore when
    /// the window ends inside the horizon). Drawn after every earlier
    /// stream — the append-last seed-stability contract.
    pub slowdowns: u32,
    /// Length of each gray slowdown window.
    pub slowdown_len: SimDuration,
    /// Lower bound (inclusive) of the delivered rate drawn per slowdown,
    /// in permille of nominal capacity.
    pub slowdown_min_permille: u16,
    /// Upper bound (inclusive) of the delivered rate drawn per slowdown.
    pub slowdown_max_permille: u16,
    /// Number of complete-stall windows (progress zero, host stays up).
    pub stalls: u32,
    /// Length of each stall window. Packed into the event target in whole
    /// seconds, so it saturates at `u16::MAX` seconds.
    pub stall_len: SimDuration,
    /// Number of flapping hosts: each gets a seeded schedule of
    /// `flap_cycles` slowdown/restore cycles spaced `flap_period` apart.
    pub flapping_hosts: u32,
    /// Slowdown/restore cycles per flapping host.
    pub flap_cycles: u32,
    /// Period of one flap cycle (degraded for the first half, restored
    /// for the second).
    pub flap_period: SimDuration,
}

impl Default for FaultMix {
    /// Two crashes, two VM failures and one bank outage. Every other
    /// class is off (count 0); its length is what a caller that only
    /// sets the count gets.
    fn default() -> Self {
        FaultMix {
            crashes: 2,
            mean_downtime: SimDuration::from_minutes(30),
            vm_failures: 2,
            bank_outages: 1,
            outage_len: SimDuration::from_minutes(5),
            bank_restarts: 0,
            link_outages: 0,
            link_outage_len: SimDuration::from_minutes(5),
            adversary_arrivals: 0,
            slowdowns: 0,
            slowdown_len: SimDuration::from_minutes(30),
            slowdown_min_permille: 150,
            slowdown_max_permille: 500,
            stalls: 0,
            stall_len: SimDuration::from_secs(600),
            flapping_hosts: 0,
            flap_cycles: 4,
            flap_period: SimDuration::from_minutes(20),
        }
    }
}

/// A deterministic, time-sorted schedule of fault events.
///
/// Events are consumed in order via [`FaultPlan::take_due`]; the cursor
/// never rewinds, so a driver polling once per interval sees every event
/// exactly once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// Empty plan (no faults — chaos runs degenerate to normal runs).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Generate a random but fully seed-determined plan.
    ///
    /// Per-host crash/recovery windows never overlap: a host that is down
    /// cannot crash again until after it has recovered. Draws that cannot
    /// be placed without overlap after a bounded number of retries are
    /// dropped (the plan then simply contains fewer crashes).
    pub fn generate(seed: u64, cfg: FaultGenConfig) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        if cfg.horizon == SimTime::ZERO {
            return plan;
        }
        let horizon_us = cfg.horizon.as_micros();
        let mix = cfg.mix;

        // Host crash + recovery pairs, non-overlapping per host.
        let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cfg.hosts as usize];
        for _ in 0..mix.crashes {
            if cfg.hosts == 0 {
                break;
            }
            for _attempt in 0..16 {
                let host = rng.next_bounded(cfg.hosts as u64) as u32;
                let at = rng.next_bounded(horizon_us);
                let jitter = 0.5 + rng.next_f64();
                let down = mix.mean_downtime.mul_f64(jitter).as_micros().max(1);
                let until = at.saturating_add(down);
                let lanes = &mut busy[host as usize];
                if lanes.iter().all(|&(s, e)| until < s || at > e) {
                    lanes.push((at, until));
                    plan.push(SimTime::from_micros(at), FaultKind::HostCrash, host);
                    if until < horizon_us {
                        plan.push(SimTime::from_micros(until), FaultKind::HostRecover, host);
                    }
                    break;
                }
            }
        }

        // Standalone VM failures on any host.
        for _ in 0..mix.vm_failures {
            if cfg.hosts == 0 {
                break;
            }
            let host = rng.next_bounded(cfg.hosts as u64) as u32;
            let at = rng.next_bounded(horizon_us);
            plan.push(SimTime::from_micros(at), FaultKind::VmFailure, host);
        }

        // Bank outage windows.
        for _ in 0..mix.bank_outages {
            let at = rng.next_bounded(horizon_us);
            let until = at.saturating_add(mix.outage_len.as_micros().max(1));
            plan.push(SimTime::from_micros(at), FaultKind::BankOutage, 0);
            if until < horizon_us {
                plan.push(SimTime::from_micros(until), FaultKind::BankRestore, 0);
            }
        }

        // Bank restarts (drawn last, so pre-restart seeds keep their
        // schedules byte-identical).
        for _ in 0..mix.bank_restarts {
            let at = rng.next_bounded(horizon_us);
            plan.push(SimTime::from_micros(at), FaultKind::BankRestart, 0);
        }

        // Degraded-link windows (drawn after every earlier stream, same
        // seed-stability contract as bank restarts).
        for _ in 0..mix.link_outages {
            let at = rng.next_bounded(horizon_us);
            let until = at.saturating_add(mix.link_outage_len.as_micros().max(1));
            plan.push(SimTime::from_micros(at), FaultKind::LinkDown, 0);
            if until < horizon_us {
                plan.push(SimTime::from_micros(until), FaultKind::LinkUp, 0);
            }
        }

        // Adversary arrivals (drawn after every earlier stream — the same
        // seed-stability contract as bank restarts and link outages).
        for i in 0..mix.adversary_arrivals {
            let at = rng.next_bounded(horizon_us);
            plan.push(SimTime::from_micros(at), FaultKind::AdversaryArrival, i);
        }

        // Gray slowdown windows (drawn after every binary stream — same
        // append-last contract). The host keeps accepting bids but only
        // delivers `permille`/1000 of nominal progress until the restore.
        let gray_hosts = u64::from(cfg.hosts.min(MAX_GRAY_HOSTS));
        let lo = u64::from(mix.slowdown_min_permille.clamp(1, 1000));
        let hi = u64::from(mix.slowdown_max_permille.clamp(1, 1000)).max(lo);
        for _ in 0..mix.slowdowns {
            if gray_hosts == 0 {
                break;
            }
            let host = rng.next_bounded(gray_hosts) as u32;
            let at = rng.next_bounded(horizon_us);
            let permille = (lo + rng.next_bounded(hi - lo + 1)) as u16;
            let until = at.saturating_add(mix.slowdown_len.as_micros().max(1));
            plan.push(
                SimTime::from_micros(at),
                FaultKind::HostSlowdown,
                gray_target(host, permille),
            );
            if until < horizon_us {
                plan.push(SimTime::from_micros(until), FaultKind::HostRestore, host);
            }
        }

        // Complete-stall windows (self-expiring; drawn after slowdowns).
        let stall_secs = u16::try_from(mix.stall_len.as_micros() / 1_000_000).unwrap_or(u16::MAX);
        for _ in 0..mix.stalls {
            if gray_hosts == 0 {
                break;
            }
            let host = rng.next_bounded(gray_hosts) as u32;
            let at = rng.next_bounded(horizon_us);
            plan.push(
                SimTime::from_micros(at),
                FaultKind::HostStall,
                gray_target(host, stall_secs.max(1)),
            );
        }

        // Flapping hosts: a seeded schedule of repeated slowdown/restore
        // cycles per drawn host (drawn after every earlier stream).
        for _ in 0..mix.flapping_hosts {
            if gray_hosts == 0 || mix.flap_cycles == 0 {
                break;
            }
            let host = rng.next_bounded(gray_hosts) as u32;
            let start = rng.next_bounded(horizon_us);
            let permille = (lo + rng.next_bounded(hi - lo + 1)) as u16;
            let period = mix.flap_period.as_micros().max(2);
            for c in 0..mix.flap_cycles {
                let down = start.saturating_add(period.saturating_mul(u64::from(c)));
                if down >= horizon_us {
                    break;
                }
                plan.push(
                    SimTime::from_micros(down),
                    FaultKind::HostSlowdown,
                    gray_target(host, permille),
                );
                let up = down.saturating_add(period / 2);
                if up < horizon_us {
                    plan.push(SimTime::from_micros(up), FaultKind::HostRestore, host);
                }
            }
        }

        plan
    }

    /// Schedule an event. The plan stays sorted by `(at, kind, target)`:
    /// the event goes after every event with an equal or smaller key, so
    /// equal keys keep their insertion order, as a stable sort would.
    pub fn push(&mut self, at: SimTime, kind: FaultKind, target: u32) -> &mut Self {
        assert_eq!(self.cursor, 0, "cannot extend a plan already being consumed");
        let key = (at, kind, target);
        let i = self.events.partition_point(|e| (e.at, e.kind, e.target) <= key);
        self.events.insert(i, FaultEvent { at, kind, target });
        self
    }

    /// Schedule a host crash at `at`.
    pub fn host_crash(&mut self, at: SimTime, host: u32) -> &mut Self {
        self.push(at, FaultKind::HostCrash, host)
    }

    /// Schedule a host recovery at `at`.
    pub fn host_recover(&mut self, at: SimTime, host: u32) -> &mut Self {
        self.push(at, FaultKind::HostRecover, host)
    }

    /// Schedule a single-VM failure at `at`.
    pub fn vm_failure(&mut self, at: SimTime, host: u32) -> &mut Self {
        self.push(at, FaultKind::VmFailure, host)
    }

    /// Schedule a bank outage over `[from, until)`.
    pub fn bank_outage(&mut self, from: SimTime, until: SimTime) -> &mut Self {
        self.push(from, FaultKind::BankOutage, 0);
        self.push(until, FaultKind::BankRestore, 0)
    }

    /// Schedule a bank restart (kill + journal recovery) at `at`.
    pub fn bank_restart(&mut self, at: SimTime) -> &mut Self {
        self.push(at, FaultKind::BankRestart, 0)
    }

    /// Schedule a degraded-link window over `[from, until)`.
    pub fn link_outage(&mut self, from: SimTime, until: SimTime) -> &mut Self {
        self.push(from, FaultKind::LinkDown, 0);
        self.push(until, FaultKind::LinkUp, 0)
    }

    /// Schedule an adversary-cohort arrival at `at` (adversary index
    /// `idx` within the cohort).
    pub fn adversary_arrival(&mut self, at: SimTime, idx: u32) -> &mut Self {
        self.push(at, FaultKind::AdversaryArrival, idx)
    }

    /// Schedule a gray slowdown at `at`: the host delivers
    /// `delivered_permille`/1000 of nominal rate until restored.
    pub fn host_slowdown(&mut self, at: SimTime, host: u32, delivered_permille: u16) -> &mut Self {
        self.push(
            at,
            FaultKind::HostSlowdown,
            gray_target(host, delivered_permille),
        )
    }

    /// Schedule a gray restore at `at` (clears any slowdown or stall).
    pub fn host_restore(&mut self, at: SimTime, host: u32) -> &mut Self {
        self.push(at, FaultKind::HostRestore, host)
    }

    /// Schedule a complete stall at `at` lasting `window_secs` seconds.
    pub fn host_stall(&mut self, at: SimTime, host: u32, window_secs: u16) -> &mut Self {
        self.push(at, FaultKind::HostStall, gray_target(host, window_secs))
    }

    /// All scheduled events in `(at, kind, target)` order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// True if every event has been consumed (or none were scheduled).
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Time of the next not-yet-consumed event (`None` once exhausted).
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Consume and return every not-yet-consumed event with `at <= now`.
    pub fn take_due(&mut self, now: SimTime) -> Vec<FaultEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }

    /// Rewind the consumption cursor so the plan can be replayed.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let cfg = FaultGenConfig::default();
        let a = FaultPlan::generate(0xfeed, cfg);
        let b = FaultPlan::generate(0xfeed, cfg);
        assert_eq!(a, b);
        let c = FaultPlan::generate(0xbeef, cfg);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_events_are_sorted_and_in_horizon() {
        let cfg = FaultGenConfig {
            hosts: 8,
            mix: FaultMix {
                crashes: 10,
                vm_failures: 10,
                bank_outages: 3,
                ..FaultMix::default()
            },
            ..FaultGenConfig::default()
        };
        let plan = FaultPlan::generate(7, cfg);
        let evs = plan.events();
        assert!(!evs.is_empty());
        for w in evs.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in evs {
            assert!(e.at < cfg.horizon);
            match e.kind {
                FaultKind::HostCrash | FaultKind::HostRecover | FaultKind::VmFailure => {
                    assert!(e.target < cfg.hosts)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn crash_windows_do_not_overlap_per_host() {
        let cfg = FaultGenConfig {
            hosts: 2,
            mix: FaultMix {
                crashes: 12,
                mean_downtime: SimDuration::from_minutes(60),
                ..FaultMix::default()
            },
            ..FaultGenConfig::default()
        };
        let plan = FaultPlan::generate(99, cfg);
        // Replaying crash/recover events per host must alternate: a host
        // that is down never crashes again before recovering.
        let mut down = [false; 2];
        for e in plan.events() {
            match e.kind {
                FaultKind::HostCrash => {
                    assert!(!down[e.target as usize], "host {} crashed twice", e.target);
                    down[e.target as usize] = true;
                }
                FaultKind::HostRecover => {
                    assert!(down[e.target as usize]);
                    down[e.target as usize] = false;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn take_due_consumes_in_order_exactly_once() {
        let mut plan = FaultPlan::new();
        plan.host_crash(SimTime::from_secs(50), 1)
            .vm_failure(SimTime::from_secs(10), 0)
            .bank_outage(SimTime::from_secs(20), SimTime::from_secs(30));

        let first = plan.take_due(SimTime::from_secs(25));
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].kind, FaultKind::VmFailure);
        assert_eq!(first[1].kind, FaultKind::BankOutage);

        let second = plan.take_due(SimTime::from_secs(25));
        assert!(second.is_empty(), "same poll must not re-deliver");

        let third = plan.take_due(SimTime::from_secs(100));
        assert_eq!(third.len(), 2);
        assert_eq!(third[0].kind, FaultKind::BankRestore);
        assert_eq!(third[1].kind, FaultKind::HostCrash);
        assert!(plan.is_exhausted());

        plan.reset();
        assert_eq!(plan.remaining(), 4);
    }

    #[test]
    fn bank_restarts_generate_in_horizon_without_disturbing_other_draws() {
        let base = FaultGenConfig::default();
        let with_restarts = FaultGenConfig {
            mix: FaultMix {
                bank_restarts: 3,
                ..base.mix
            },
            ..base
        };
        let a = FaultPlan::generate(0xabcd, base);
        let b = FaultPlan::generate(0xabcd, with_restarts);
        // Restart draws happen after every other stream: the non-restart
        // prefix of the schedule is byte-identical for the same seed.
        let non_restart: Vec<&FaultEvent> = b
            .events()
            .iter()
            .filter(|e| e.kind != FaultKind::BankRestart)
            .collect();
        assert_eq!(non_restart.len(), a.events().len());
        for (x, y) in non_restart.iter().zip(a.events()) {
            assert_eq!(**x, *y);
        }
        let restarts: Vec<&FaultEvent> = b
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::BankRestart)
            .collect();
        assert_eq!(restarts.len(), 3);
        for e in restarts {
            assert!(e.at < with_restarts.horizon);
            assert_eq!(e.target, 0);
        }
    }

    #[test]
    fn link_outages_generate_in_horizon_without_disturbing_other_draws() {
        let base = FaultGenConfig {
            mix: FaultMix {
                bank_restarts: 2,
                ..FaultMix::default()
            },
            ..FaultGenConfig::default()
        };
        let with_links = FaultGenConfig {
            mix: FaultMix {
                link_outages: 3,
                ..base.mix
            },
            ..base
        };
        let a = FaultPlan::generate(0xabcd, base);
        let b = FaultPlan::generate(0xabcd, with_links);
        // Link draws happen after every other stream (bank restarts
        // included): the non-link prefix is byte-identical per seed.
        let is_link = |e: &&FaultEvent| {
            matches!(e.kind, FaultKind::LinkDown | FaultKind::LinkUp)
        };
        let non_link: Vec<&FaultEvent> =
            b.events().iter().filter(|e| !is_link(e)).collect();
        assert_eq!(non_link.len(), a.events().len());
        for (x, y) in non_link.iter().zip(a.events()) {
            assert_eq!(**x, *y);
        }
        let downs = b
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::LinkDown)
            .count();
        assert_eq!(downs, 3);
        for e in b.events().iter().filter(|e| is_link(e)) {
            assert!(e.at < with_links.horizon);
            assert_eq!(e.target, 0);
        }
    }

    #[test]
    fn adversary_arrivals_generate_in_horizon_without_disturbing_other_draws() {
        // The PR 4/5 append-last contract, extended to the adversary
        // stream: arrivals are drawn after crashes, VM failures, bank
        // outages, restarts AND link outages, so the non-adversary prefix
        // of a schedule is byte-identical for the same seed.
        let base = FaultGenConfig {
            mix: FaultMix {
                bank_restarts: 2,
                link_outages: 2,
                ..FaultMix::default()
            },
            ..FaultGenConfig::default()
        };
        let with_adversaries = FaultGenConfig {
            mix: FaultMix {
                adversary_arrivals: 4,
                ..base.mix
            },
            ..base
        };
        let a = FaultPlan::generate(0xabcd, base);
        let b = FaultPlan::generate(0xabcd, with_adversaries);
        let non_adv: Vec<&FaultEvent> = b
            .events()
            .iter()
            .filter(|e| e.kind != FaultKind::AdversaryArrival)
            .collect();
        assert_eq!(non_adv.len(), a.events().len());
        for (x, y) in non_adv.iter().zip(a.events()) {
            assert_eq!(**x, *y);
        }
        let arrivals: Vec<&FaultEvent> = b
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::AdversaryArrival)
            .collect();
        assert_eq!(arrivals.len(), 4);
        let mut indices: Vec<u32> = arrivals.iter().map(|e| e.target).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3], "targets are adversary indices");
        for e in arrivals {
            assert!(e.at < with_adversaries.horizon);
        }
    }

    #[test]
    fn gray_faults_generate_in_horizon_without_disturbing_other_draws() {
        // The append-last contract, extended to the gray streams:
        // slowdowns, stalls and flapping schedules are all drawn after
        // crashes, VM failures, bank outages, restarts, link outages AND
        // adversary arrivals, so the non-gray prefix of a schedule is
        // byte-identical for the same seed.
        let base = FaultGenConfig {
            mix: FaultMix {
                bank_restarts: 2,
                link_outages: 2,
                adversary_arrivals: 2,
                ..FaultMix::default()
            },
            ..FaultGenConfig::default()
        };
        let with_gray = FaultGenConfig {
            mix: FaultMix {
                slowdowns: 3,
                stalls: 2,
                flapping_hosts: 2,
                ..base.mix
            },
            ..base
        };
        let a = FaultPlan::generate(0xabcd, base);
        let b = FaultPlan::generate(0xabcd, with_gray);
        let is_gray = |e: &&FaultEvent| {
            matches!(
                e.kind,
                FaultKind::HostSlowdown | FaultKind::HostRestore | FaultKind::HostStall
            )
        };
        let non_gray: Vec<&FaultEvent> = b.events().iter().filter(|e| !is_gray(e)).collect();
        assert_eq!(non_gray.len(), a.events().len());
        for (x, y) in non_gray.iter().zip(a.events()) {
            assert_eq!(**x, *y);
        }
        let slowdowns = b
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::HostSlowdown)
            .count();
        // 3 standalone slowdowns plus up to 2×flap_cycles flapping ones.
        assert!(slowdowns >= 3, "slowdown draws missing: {slowdowns}");
        for e in b.events().iter().filter(|e| is_gray(e)) {
            assert!(e.at < with_gray.horizon);
            assert!(gray_host(e.target) < with_gray.hosts);
            match e.kind {
                FaultKind::HostSlowdown => {
                    let p = gray_payload(e.target);
                    assert!((1..=1000).contains(&p), "permille out of range: {p}");
                }
                FaultKind::HostStall => {
                    let secs = u64::from(gray_payload(e.target));
                    assert_eq!(SimDuration::from_secs(secs), with_gray.mix.stall_len);
                }
                _ => assert_eq!(gray_payload(e.target), 0, "restore carries no payload"),
            }
        }
    }

    #[test]
    fn flapping_schedules_alternate_slowdown_and_restore() {
        let cfg = FaultGenConfig {
            hosts: 4,
            mix: FaultMix {
                crashes: 0,
                vm_failures: 0,
                bank_outages: 0,
                flapping_hosts: 1,
                flap_cycles: 6,
                flap_period: SimDuration::from_minutes(10),
                ..FaultMix::default()
            },
            ..FaultGenConfig::default()
        };
        let plan = FaultPlan::generate(0x5107, cfg);
        let evs = plan.events();
        assert!(!evs.is_empty(), "flapping host produced no events");
        // All events hit the same drawn host with the same drawn permille,
        // and the sequence alternates starting with a slowdown.
        let host = gray_host(evs[0].target);
        let permille = gray_payload(evs[0].target);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(gray_host(e.target), host);
            if i % 2 == 0 {
                assert_eq!(e.kind, FaultKind::HostSlowdown);
                assert_eq!(gray_payload(e.target), permille);
            } else {
                assert_eq!(e.kind, FaultKind::HostRestore);
            }
        }
    }

    #[test]
    fn gray_builders_pack_and_unpack_targets() {
        let mut plan = FaultPlan::new();
        plan.host_slowdown(SimTime::from_secs(10), 3, 250)
            .host_stall(SimTime::from_secs(20), 3, 900)
            .host_restore(SimTime::from_secs(30), 3);
        let due = plan.take_due(SimTime::from_secs(60));
        assert_eq!(due.len(), 3);
        assert_eq!(due[0].kind, FaultKind::HostSlowdown);
        assert_eq!(gray_host(due[0].target), 3);
        assert_eq!(gray_payload(due[0].target), 250);
        assert_eq!(due[1].kind, FaultKind::HostStall);
        assert_eq!(gray_payload(due[1].target), 900);
        assert_eq!(due[2].kind, FaultKind::HostRestore);
        assert_eq!(due[2].target, 3);
    }

    #[test]
    fn next_at_is_sorted_before_the_first_take() {
        let mut plan = FaultPlan::new();
        assert_eq!(plan.next_at(), None);
        plan.host_crash(SimTime::from_secs(50), 1)
            .vm_failure(SimTime::from_secs(10), 0);
        assert_eq!(plan.next_at(), Some(SimTime::from_secs(10)));
        plan.take_due(SimTime::from_secs(10));
        assert_eq!(plan.next_at(), Some(SimTime::from_secs(50)));
        plan.take_due(SimTime::from_secs(50));
        assert_eq!(plan.next_at(), None);
    }

    #[test]
    fn pushes_match_a_stable_sort_of_the_push_order() {
        crate::check::check("fault_plan_push_order", 200, |g| {
            let kinds = [
                FaultKind::HostCrash,
                FaultKind::VmFailure,
                FaultKind::BankOutage,
                FaultKind::HostSlowdown,
            ];
            let mut plan = FaultPlan::new();
            let mut pushed = Vec::new();
            for _ in 0..g.usize_in(0, 24) {
                let e = FaultEvent {
                    at: SimTime::from_secs(g.u64_in(0, 6)),
                    kind: kinds[g.usize_in(0, kinds.len() - 1)],
                    target: g.u64_in(0, 2) as u32,
                };
                plan.push(e.at, e.kind, e.target);
                pushed.push(e);
            }
            pushed.sort_by_key(|e| (e.at, e.kind, e.target));
            assert_eq!(plan.events(), &pushed[..]);
        });
    }

    #[test]
    fn golden_seed_schedule_is_byte_stable_with_gray_fields_defaulted() {
        // Satellite regression for this PR: appending the three gray
        // `FaultKind` variants and the gray `FaultGenConfig` knobs at
        // their zero defaults must leave every existing generated plan
        // byte-identical at unchanged seeds. Same fingerprint (and same
        // FNV construction) as the adversary-era golden test below — the
        // expected value was recorded before any gray field existed.
        let cfg = FaultGenConfig {
            hosts: 30,
            horizon: SimTime::from_secs(8 * 3600),
            mix: FaultMix {
                crashes: 2,
                vm_failures: 1,
                bank_outages: 1,
                bank_restarts: 1,
                link_outages: 1,
                adversary_arrivals: 2,
                ..FaultMix::default()
            },
        };
        let a = FaultPlan::generate(2006, cfg);
        let b = FaultPlan::generate(
            2006,
            FaultGenConfig {
                mix: FaultMix {
                    slowdowns: 0,
                    stalls: 0,
                    flapping_hosts: 0,
                    ..cfg.mix
                },
                ..cfg
            },
        );
        assert_eq!(a, b, "zero-default gray knobs must not consume draws");
    }

    #[test]
    fn golden_seed_schedule_is_byte_stable_with_adversary_field_defaulted() {
        // Regression for the PR 8 golden harness seed (2006): adding the
        // `adversary_arrivals` field at its zero default must leave the
        // generated schedule — and therefore every committed golden run —
        // byte-identical. The expected fingerprint was recorded before
        // the field existed.
        let cfg = FaultGenConfig {
            hosts: 30,
            horizon: SimTime::from_secs(8 * 3600),
            mix: FaultMix {
                crashes: 2,
                vm_failures: 1,
                bank_outages: 1,
                bank_restarts: 1,
                link_outages: 1,
                ..FaultMix::default()
            },
        };
        let plan = FaultPlan::generate(2006, cfg);
        // FNV-1a over the (at, kind-ordinal, target) stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in plan.events() {
            fnv(&e.at.as_micros().to_le_bytes());
            fnv(&(e.kind as u8).to_le_bytes());
            fnv(&e.target.to_le_bytes());
        }
        assert_eq!(
            h, 0x7055_145c_c2cc_4c80,
            "seed-2006 schedule fingerprint changed — the adversary stream \
             must be drawn last (see the PR 4/5 append-last pattern)"
        );
    }

    #[test]
    fn explicit_adversary_arrival_builder_schedules_event() {
        let mut plan = FaultPlan::new();
        plan.adversary_arrival(SimTime::from_secs(42), 7);
        let due = plan.take_due(SimTime::from_secs(60));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::AdversaryArrival);
        assert_eq!(due[0].target, 7);
    }

    #[test]
    fn explicit_link_outage_builder_pairs_down_and_up() {
        let mut plan = FaultPlan::new();
        plan.link_outage(SimTime::from_secs(10), SimTime::from_secs(20));
        let due = plan.take_due(SimTime::from_secs(30));
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].kind, FaultKind::LinkDown);
        assert_eq!(due[1].kind, FaultKind::LinkUp);
    }

    #[test]
    fn explicit_bank_restart_builder_schedules_event() {
        let mut plan = FaultPlan::new();
        plan.bank_restart(SimTime::from_secs(42));
        let due = plan.take_due(SimTime::from_secs(60));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::BankRestart);
    }

    #[test]
    fn empty_plan_is_quiet() {
        let mut plan = FaultPlan::new();
        assert!(plan.take_due(SimTime::MAX).is_empty());
        assert!(plan.is_exhausted());
    }
}
