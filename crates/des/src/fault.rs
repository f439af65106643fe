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
//! The kernel crate knows nothing about hosts or banks; a [`FaultKind`]
//! names its host or adversary as a plain `u32` index that the layer
//! applying the plan maps onto its own IDs.

use crate::rng::{Rng64, SplitMix64};
use crate::time::{SimDuration, SimTime};

/// What a scheduled fault does, and to which host or adversary.
///
/// Events at the same instant apply by variant in declaration order, then
/// by payload (a slowdown's permille, a stall's length), then by host or
/// adversary index — the one rank table is `FaultKind::rank` below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A host fails abruptly: its bids are evicted, its VMs die, and any
    /// subjob running on it is interrupted.
    HostCrash {
        /// The failing host.
        host: u32,
    },
    /// A previously crashed host rejoins the market (empty, no VMs).
    HostRecover {
        /// The rejoining host.
        host: u32,
    },
    /// A single VM on an otherwise healthy host dies.
    VmFailure {
        /// The host whose VM dies.
        host: u32,
    },
    /// The bank becomes unreachable; money movement fails until the paired
    /// [`FaultKind::BankRestore`].
    BankOutage,
    /// The bank comes back online.
    BankRestore,
    /// The bank process dies and is brought back from its durable journal
    /// (snapshot + WAL replay). Unlike [`FaultKind::BankOutage`], the
    /// in-memory bank state is discarded — only journaled state survives.
    BankRestart,
    /// The service links degrade: quotes and transfers become lossy until
    /// the paired [`FaultKind::LinkUp`], and consumers fall back to
    /// degraded-mode pricing (`DESIGN.md` §12).
    LinkDown,
    /// The degraded service links recover.
    LinkUp,
    /// A strategic adversary cohort arrives (the attack library,
    /// `gm_experiments::adversary`, materialises the actual hostile job
    /// requests at these times; policies themselves only trace the event).
    AdversaryArrival {
        /// The adversary's index within the cohort.
        index: u32,
    },
    /// A host degrades *gray*: it stays online, keeps its VMs and keeps
    /// accepting bids, but delivers only a fraction of its nominal
    /// compute rate until the paired [`FaultKind::HostRestore`].
    HostSlowdown {
        /// The degraded host.
        host: u32,
        /// Delivered rate in permille of nominal (1..=1000).
        permille: u16,
    },
    /// A gray-degraded host returns to nominal rate (clears any active
    /// slowdown or stall).
    HostRestore {
        /// The restored host.
        host: u32,
    },
    /// A host stalls completely for a bounded window: progress is zero
    /// but the host never leaves the market. Self-expiring; no paired
    /// restore event is required.
    HostStall {
        /// The stalled host.
        host: u32,
        /// How long the stall lasts.
        len: SimDuration,
    },
}

impl FaultKind {
    /// The same-instant sort key: `(variant, payload, host or index)`.
    /// A slowdown ranks by its permille and a stall by its length before
    /// the host, so two faults of one kind at one instant apply in
    /// payload order. This is the order of the `(kind, host | payload
    /// << 16)` key plans had when gray faults packed their host into 16
    /// bits, for every host below 65,536 and every whole-second stall.
    fn rank(self) -> (u8, u64, u32) {
        use FaultKind::*;
        match self {
            HostCrash { host } => (0, 0, host),
            HostRecover { host } => (1, 0, host),
            VmFailure { host } => (2, 0, host),
            BankOutage => (3, 0, 0),
            BankRestore => (4, 0, 0),
            BankRestart => (5, 0, 0),
            LinkDown => (6, 0, 0),
            LinkUp => (7, 0, 0),
            AdversaryArrival { index } => (8, 0, index),
            HostSlowdown { host, permille } => (9, u64::from(permille), host),
            HostRestore { host } => (10, 0, host),
            HostStall { host, len } => (11, len.as_micros(), host),
        }
    }
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation time at which the fault fires.
    pub at: SimTime,
    /// What happens, and to whom.
    pub kind: FaultKind,
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
    /// `gm_experiments::adversary` turns them into hostile job requests).
    pub adversary_arrivals: u32,
    /// Number of gray slowdown windows (each paired with a restore when
    /// the window ends inside the horizon).
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
    /// Length of each stall window.
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
    ///
    /// The fault classes draw from the seed's one stream in field order,
    /// each after every class above it in [`FaultMix`], so a class at
    /// count 0 consumes no draws and leaves the other classes' events
    /// unchanged.
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
                    plan.push(SimTime::from_micros(at), FaultKind::HostCrash { host });
                    if until < horizon_us {
                        plan.push(SimTime::from_micros(until), FaultKind::HostRecover { host });
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
            plan.push(SimTime::from_micros(at), FaultKind::VmFailure { host });
        }

        // Bank outage windows.
        for _ in 0..mix.bank_outages {
            let at = rng.next_bounded(horizon_us);
            let until = at.saturating_add(mix.outage_len.as_micros().max(1));
            plan.push(SimTime::from_micros(at), FaultKind::BankOutage);
            if until < horizon_us {
                plan.push(SimTime::from_micros(until), FaultKind::BankRestore);
            }
        }

        // Bank restarts.
        for _ in 0..mix.bank_restarts {
            let at = rng.next_bounded(horizon_us);
            plan.push(SimTime::from_micros(at), FaultKind::BankRestart);
        }

        // Degraded-link windows.
        for _ in 0..mix.link_outages {
            let at = rng.next_bounded(horizon_us);
            let until = at.saturating_add(mix.link_outage_len.as_micros().max(1));
            plan.push(SimTime::from_micros(at), FaultKind::LinkDown);
            if until < horizon_us {
                plan.push(SimTime::from_micros(until), FaultKind::LinkUp);
            }
        }

        // Adversary arrivals.
        for index in 0..mix.adversary_arrivals {
            let at = rng.next_bounded(horizon_us);
            plan.push(SimTime::from_micros(at), FaultKind::AdversaryArrival { index });
        }

        // Gray slowdown windows. The host keeps accepting bids but only
        // delivers `permille`/1000 of nominal progress until the restore.
        let hosts = u64::from(cfg.hosts);
        let lo = u64::from(mix.slowdown_min_permille.clamp(1, 1000));
        let hi = u64::from(mix.slowdown_max_permille.clamp(1, 1000)).max(lo);
        for _ in 0..mix.slowdowns {
            if hosts == 0 {
                break;
            }
            let host = rng.next_bounded(hosts) as u32;
            let at = rng.next_bounded(horizon_us);
            let permille = (lo + rng.next_bounded(hi - lo + 1)) as u16;
            let until = at.saturating_add(mix.slowdown_len.as_micros().max(1));
            plan.push(SimTime::from_micros(at), FaultKind::HostSlowdown { host, permille });
            if until < horizon_us {
                plan.push(SimTime::from_micros(until), FaultKind::HostRestore { host });
            }
        }

        // Complete-stall windows (self-expiring).
        for _ in 0..mix.stalls {
            if hosts == 0 {
                break;
            }
            let host = rng.next_bounded(hosts) as u32;
            let at = rng.next_bounded(horizon_us);
            plan.push(SimTime::from_micros(at), FaultKind::HostStall { host, len: mix.stall_len });
        }

        // Flapping hosts: a seeded schedule of repeated slowdown/restore
        // cycles per drawn host.
        for _ in 0..mix.flapping_hosts {
            if hosts == 0 || mix.flap_cycles == 0 {
                break;
            }
            let host = rng.next_bounded(hosts) as u32;
            let start = rng.next_bounded(horizon_us);
            let permille = (lo + rng.next_bounded(hi - lo + 1)) as u16;
            let period = mix.flap_period.as_micros().max(2);
            for c in 0..mix.flap_cycles {
                let down = start.saturating_add(period.saturating_mul(u64::from(c)));
                if down >= horizon_us {
                    break;
                }
                plan.push(SimTime::from_micros(down), FaultKind::HostSlowdown { host, permille });
                let up = down.saturating_add(period / 2);
                if up < horizon_us {
                    plan.push(SimTime::from_micros(up), FaultKind::HostRestore { host });
                }
            }
        }

        plan
    }

    /// Schedule an event. The plan stays sorted by time, then by
    /// [`FaultKind`] rank: the event goes after every event with an equal
    /// or smaller key, so equal keys keep their insertion order, as a
    /// stable sort would.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        assert_eq!(self.cursor, 0, "cannot extend a plan already being consumed");
        let key = (at, kind.rank());
        let i = self.events.partition_point(|e| (e.at, e.kind.rank()) <= key);
        self.events.insert(i, FaultEvent { at, kind });
        self
    }

    /// Schedule a bank outage over `[from, until)`.
    pub fn bank_outage(&mut self, from: SimTime, until: SimTime) -> &mut Self {
        self.push(from, FaultKind::BankOutage);
        self.push(until, FaultKind::BankRestore)
    }

    /// Schedule a degraded-link window over `[from, until)`.
    pub fn link_outage(&mut self, from: SimTime, until: SimTime) -> &mut Self {
        self.push(from, FaultKind::LinkDown);
        self.push(until, FaultKind::LinkUp)
    }

    /// All scheduled events in time, then rank, order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if every event has been consumed (or none were scheduled).
    pub fn is_exhausted(&self) -> bool {
        self.cursor == self.events.len()
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
            if let FaultKind::HostCrash { host }
            | FaultKind::HostRecover { host }
            | FaultKind::VmFailure { host } = e.kind
            {
                assert!(host < cfg.hosts);
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
                FaultKind::HostCrash { host } => {
                    assert!(!down[host as usize], "host {host} crashed twice");
                    down[host as usize] = true;
                }
                FaultKind::HostRecover { host } => {
                    assert!(down[host as usize]);
                    down[host as usize] = false;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn take_due_consumes_in_order_exactly_once() {
        let mut plan = FaultPlan::new();
        plan.push(SimTime::from_secs(50), FaultKind::HostCrash { host: 1 })
            .push(SimTime::from_secs(10), FaultKind::VmFailure { host: 0 })
            .bank_outage(SimTime::from_secs(20), SimTime::from_secs(30));
        let mut replay = plan.clone();

        let first = plan.take_due(SimTime::from_secs(25));
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].kind, FaultKind::VmFailure { host: 0 });
        assert_eq!(first[1].kind, FaultKind::BankOutage);

        let second = plan.take_due(SimTime::from_secs(25));
        assert!(second.is_empty(), "same poll must not re-deliver");

        let third = plan.take_due(SimTime::from_secs(100));
        assert_eq!(third.len(), 2);
        assert_eq!(third[0].kind, FaultKind::BankRestore);
        assert_eq!(third[1].kind, FaultKind::HostCrash { host: 1 });
        assert!(plan.is_exhausted());

        // A clone taken before consumption still holds every event.
        assert!(!replay.is_exhausted());
        assert_eq!(
            replay.take_due(SimTime::from_secs(100)),
            [first, third].concat()
        );
        assert!(replay.is_exhausted());
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
        }
    }

    #[test]
    fn adversary_arrivals_generate_in_horizon_without_disturbing_other_draws() {
        // Arrivals are drawn after crashes, VM failures, bank outages,
        // restarts and link outages, so the non-adversary prefix of a
        // schedule is byte-identical for the same seed.
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
        let arrival = |e: &FaultEvent| match e.kind {
            FaultKind::AdversaryArrival { index } => Some(index),
            _ => None,
        };
        let non_adv: Vec<&FaultEvent> =
            b.events().iter().filter(|e| arrival(e).is_none()).collect();
        assert_eq!(non_adv.len(), a.events().len());
        for (x, y) in non_adv.iter().zip(a.events()) {
            assert_eq!(**x, *y);
        }
        let mut indices: Vec<u32> = b.events().iter().filter_map(arrival).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3], "one arrival per adversary index");
        for e in b.events().iter().filter(|e| arrival(e).is_some()) {
            assert!(e.at < with_adversaries.horizon);
        }
    }

    #[test]
    fn gray_faults_generate_in_horizon_without_disturbing_other_draws() {
        // Slowdowns, stalls and flapping schedules are all drawn after
        // crashes, VM failures, bank outages, restarts, link outages and
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
        let host_of = |e: &FaultEvent| match e.kind {
            FaultKind::HostSlowdown { host, .. }
            | FaultKind::HostRestore { host }
            | FaultKind::HostStall { host, .. } => Some(host),
            _ => None,
        };
        let non_gray: Vec<&FaultEvent> =
            b.events().iter().filter(|e| host_of(e).is_none()).collect();
        assert_eq!(non_gray.len(), a.events().len());
        for (x, y) in non_gray.iter().zip(a.events()) {
            assert_eq!(**x, *y);
        }
        let slowdowns = b
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HostSlowdown { .. }))
            .count();
        // 3 standalone slowdowns plus up to 2×flap_cycles flapping ones.
        assert!(slowdowns >= 3, "slowdown draws missing: {slowdowns}");
        for e in b.events().iter().filter(|e| host_of(e).is_some()) {
            assert!(e.at < with_gray.horizon);
            assert!(host_of(e).unwrap() < with_gray.hosts);
            match e.kind {
                FaultKind::HostSlowdown { permille, .. } => {
                    assert!((1..=1000).contains(&permille), "permille out of range: {permille}");
                }
                FaultKind::HostStall { len, .. } => assert_eq!(len, with_gray.mix.stall_len),
                _ => {}
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
        let FaultKind::HostSlowdown { host, permille } = evs[0].kind else {
            panic!("flapping starts with a slowdown, got {:?}", evs[0].kind);
        };
        for (i, e) in evs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(e.kind, FaultKind::HostSlowdown { host, permille });
            } else {
                assert_eq!(e.kind, FaultKind::HostRestore { host });
            }
        }
    }

    #[test]
    fn gray_hosts_are_drawn_from_every_host() {
        // Gray faults once packed their host into 16 bits, and no plan
        // drew a gray host above 65,535; a typed host spans `0..hosts`.
        let cfg = FaultGenConfig {
            hosts: 100_000,
            mix: FaultMix {
                crashes: 0,
                vm_failures: 0,
                bank_outages: 0,
                slowdowns: 32,
                stalls: 32,
                ..FaultMix::default()
            },
            ..FaultGenConfig::default()
        };
        let plan = FaultPlan::generate(7, cfg);
        let hosts: Vec<u32> = plan
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::HostSlowdown { host, .. }
                | FaultKind::HostRestore { host }
                | FaultKind::HostStall { host, .. } => host,
                k => panic!("not a gray fault: {k:?}"),
            })
            .collect();
        assert!(hosts.iter().all(|&h| h < cfg.hosts));
        assert!(hosts.iter().any(|&h| h >= 1 << 16), "no gray host above 65,535");

        // Up to 65,536 hosts the cap never bound, so plans keep their
        // bytes: the fingerprint was recorded while it was in place.
        let at_cap = FaultGenConfig {
            hosts: 65_536,
            horizon: SimTime::from_secs(8 * 3600),
            mix: FaultMix {
                slowdowns: 16,
                stalls: 8,
                flapping_hosts: 4,
                ..FaultMix::default()
            },
        };
        let h = fingerprint(&FaultPlan::generate(2006, at_cap));
        assert_eq!(h, 0x95d4_266a_a7e1_8623, "65,536-host plan changed: {h:#018x}");
    }

    #[test]
    fn next_at_is_sorted_before_the_first_take() {
        let mut plan = FaultPlan::new();
        assert_eq!(plan.next_at(), None);
        plan.push(SimTime::from_secs(50), FaultKind::HostCrash { host: 1 })
            .push(SimTime::from_secs(10), FaultKind::VmFailure { host: 0 });
        assert_eq!(plan.next_at(), Some(SimTime::from_secs(10)));
        plan.take_due(SimTime::from_secs(10));
        assert_eq!(plan.next_at(), Some(SimTime::from_secs(50)));
        plan.take_due(SimTime::from_secs(50));
        assert_eq!(plan.next_at(), None);
    }

    /// The `(kind ordinal, target)` key of an event from when a plain
    /// `u32` target carried every payload, gray faults packing theirs as
    /// `host | payload << 16` (a slowdown's permille, a stall's whole
    /// seconds). The push order must reproduce it below 65,536 hosts,
    /// and the recorded plan fingerprints hash it.
    fn legacy_key(kind: FaultKind) -> (u8, u32) {
        let packed = |host: u32, payload: u64| host | (payload as u32) << 16;
        match kind {
            FaultKind::HostCrash { host } => (0, host),
            FaultKind::HostRecover { host } => (1, host),
            FaultKind::VmFailure { host } => (2, host),
            FaultKind::BankOutage => (5, 0),
            FaultKind::BankRestore => (6, 0),
            FaultKind::BankRestart => (7, 0),
            FaultKind::LinkDown => (8, 0),
            FaultKind::LinkUp => (9, 0),
            FaultKind::AdversaryArrival { index } => (10, index),
            FaultKind::HostSlowdown { host, permille } => (11, packed(host, permille.into())),
            FaultKind::HostRestore { host } => (12, host),
            FaultKind::HostStall { host, len } => (13, packed(host, len.as_micros() / 1_000_000)),
        }
    }

    /// FNV-1a over a plan's `(at, legacy key)` stream.
    fn fingerprint(plan: &FaultPlan) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in plan.events() {
            let (ordinal, target) = legacy_key(e.kind);
            fnv(&e.at.as_micros().to_le_bytes());
            fnv(&[ordinal]);
            fnv(&target.to_le_bytes());
        }
        h
    }

    #[test]
    fn pushes_match_a_stable_sort_of_the_push_order() {
        crate::check::check("fault_plan_push_order", 200, |g| {
            let mut plan = FaultPlan::new();
            let mut pushed = Vec::new();
            let mut push = |e: FaultEvent| {
                plan.push(e.at, e.kind);
                pushed.push(e);
            };
            // Two slowdowns of one host at one instant that differ only
            // in permille, pushed larger first.
            let (at, host) = (SimTime::from_secs(g.u64_in(0, 6)), g.u64_in(0, 2) as u32);
            for permille in [500, 2] {
                push(FaultEvent { at, kind: FaultKind::HostSlowdown { host, permille } });
            }
            for _ in 0..g.usize_in(0, 24) {
                // Few distinct values, so same-instant ties are common;
                // hosts span the 16 bits the legacy key held them in.
                let host = *g.choose(&[0, 1, 2, 40_000, 65_535]);
                let permille = *g.choose(&[1, 2, 500, 1000]);
                let len = SimDuration::from_secs(*g.choose(&[1, 2, 600, 65_535]));
                let kind = match g.usize_in(0, 11) {
                    0 => FaultKind::HostCrash { host },
                    1 => FaultKind::HostRecover { host },
                    2 => FaultKind::VmFailure { host },
                    3 => FaultKind::BankOutage,
                    4 => FaultKind::BankRestore,
                    5 => FaultKind::BankRestart,
                    6 => FaultKind::LinkDown,
                    7 => FaultKind::LinkUp,
                    8 => FaultKind::AdversaryArrival { index: host % 3 },
                    9 => FaultKind::HostSlowdown { host, permille },
                    10 => FaultKind::HostRestore { host },
                    _ => FaultKind::HostStall { host, len },
                };
                push(FaultEvent { at: SimTime::from_secs(g.u64_in(0, 6)), kind });
            }
            pushed.sort_by_key(|e| (e.at, legacy_key(e.kind)));
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
        let h = fingerprint(&FaultPlan::generate(2006, cfg));
        assert_eq!(
            h, 0x7055_145c_c2cc_4c80,
            "seed-2006 schedule fingerprint changed — the adversary stream \
             must be drawn last (see the PR 4/5 append-last pattern)"
        );
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
    fn empty_plan_is_quiet() {
        let mut plan = FaultPlan::new();
        assert!(plan.take_due(SimTime::MAX).is_empty());
        assert!(plan.is_exhausted());
    }
}
