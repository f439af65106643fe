//! Overhead budgets (DESIGN.md §9, §12, §16, §17): one table of A/B cases.
//!
//! Each case runs the same workload under a baseline and an armed
//! configuration through `gm_bench::Overhead` — interleaved samples, the
//! medians' relative difference against a 5 % budget — because every
//! layer below must be free when nothing is failing:
//!
//! | case (`BENCH_<file>.json`) | workload, per sample | baseline → armed |
//! |---|---|---|
//! | `auction_tick` (telemetry) | 30 testbed hosts, 8 users, a funded bid from every user on every host; mean tick time | bare market → `gm_telemetry::Registry` attached (tick histogram, per-host spot gauges, bid/transfer counters) |
//! | `bank_transfer_roundtrip` (overload) | sequential transfers against the live bank service; mean request time | default `NetConfig` → overload layer armed but idle (perfect links, a mailbox bound never reached, a closed breaker, `net.*` telemetry) |
//! | `honest_chaos_run` (attack) | the default `ChaosConfig` world end to end through `PolicyDriver` + `TycoonPolicy`; run time | market guard disabled → default guard vetting every placement and re-bid, never firing |
//! | `gray_free_chaos_run` (gray) | the default `ChaosConfig` scenario (binary faults, no gray faults); run time | health scoring and speculation off → the default armed agent, paying only its observation overhead |
//!
//! Every case prints one PASS/FAIL line. `--save` (what
//! `just bench-save-overhead` passes) writes each case's
//! `BENCH_<file>.json` at the repository root. The verdicts are reported,
//! not enforced: the bench exits 0 either way.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gm_bench::{tick_us, Overhead};
use gm_crypto::Keypair;
use gm_des::SimTime;
use gm_experiments::ext_gray::nospec_agent;
use gm_experiments::mc::{chaos_driver, job_stream};
use gm_grid::AgentConfig;
use gm_telemetry::{Registry, WallClock};
use gm_tycoon::{
    BreakerConfig, Credits, GuardConfig, HostId, HostSpec, LiveMarket, Market, NetConfig,
    NetInstruments, QueueConfig, UserId,
};
use gridmarket::{tycoon_policy, ChaosConfig};

// ------------------------------------------------------------ telemetry

const HOSTS: u32 = 30;
const USERS: u32 = 8;
const TICKS_PER_SAMPLE: u64 = 200;

fn build_market(with_telemetry: bool) -> Market {
    let mut market = Market::new(b"telemetry-bench");
    let registry = Registry::new();
    if with_telemetry {
        market.attach_telemetry(&registry, Arc::new(WallClock::new()));
    }
    for i in 0..HOSTS {
        market.add_host(HostSpec::testbed(i));
    }
    for u in 0..USERS {
        let key = Keypair::from_seed(format!("user{u}").as_bytes()).public;
        let acct = market.bank_mut().open_account(key, &format!("user{u}"));
        market
            .bank_mut()
            .mint(acct, Credits::from_whole(1_000_000))
            .expect("endowment");
        for h in 0..HOSTS {
            market
                .place_funded_bid(
                    UserId(u),
                    acct,
                    HostId(h),
                    0.01 + f64::from(u) * 1e-3,
                    Credits::from_whole(1_000),
                )
                .expect("funded bid");
        }
    }
    market
}

/// Per-tick wall time (µs) over one freshly-built market.
fn sample_tick_us(with_telemetry: bool) -> f64 {
    let mut market = build_market(with_telemetry);
    let mut now = SimTime::ZERO;
    // Warm caches and let the first allocations settle.
    tick_us(&mut market, &mut now, 20);
    tick_us(&mut market, &mut now, TICKS_PER_SAMPLE)
}

// ------------------------------------------------------------- overload

const TRANSFERS_PER_SAMPLE: u64 = 2_000;

fn armed_net() -> NetConfig {
    // Everything on, nothing firing: perfect links, a mailbox bound far
    // above the single-client depth, default breakers, live telemetry.
    NetConfig {
        queue: QueueConfig::bounded(64),
        breaker: Some(BreakerConfig::default()),
        telemetry: Some(NetInstruments::new(&Registry::new())),
        ..NetConfig::default()
    }
}

/// Per-request wall time (µs) of `TRANSFERS_PER_SAMPLE` transfers against
/// a freshly spawned bank service.
fn sample_request_us(net: NetConfig) -> f64 {
    let live = LiveMarket::spawn_with(b"overload-bench", Vec::new(), net, None);
    let bank = live.bank();
    let key = Keypair::from_seed(b"bench-user").public;
    let payer = bank.open_account(key, "payer").expect("open payer");
    let sink = bank.open_account(key, "sink").expect("open sink");
    bank.mint(payer, Credits::from_whole(10_000_000))
        .expect("endowment");

    // Warm the service thread and both account pages.
    for id in 1..=100u64 {
        black_box(bank.transfer_with_id(id, payer, sink, Credits::from_whole(1))).expect("warmup");
    }

    let t0 = Instant::now();
    for id in 0..TRANSFERS_PER_SAMPLE {
        black_box(bank.transfer_with_id(1_000 + id, payer, sink, Credits::from_whole(1)))
            .expect("transfer");
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / TRANSFERS_PER_SAMPLE as f64;
    drop(live);
    us
}

// --------------------------------------------------------- attack, gray

const ATTACK_SEED: u64 = 0xBE7C_47AC;
const GRAY_SEED: u64 = 0x617A_717E;

/// Wall time (ms) of one full honest chaos run under `guard`.
fn sample_guarded_run_ms(guard: GuardConfig) -> f64 {
    let cfg = ChaosConfig::default();
    let mut driver = chaos_driver(ATTACK_SEED, &cfg);
    let mut policy = tycoon_policy(ATTACK_SEED, driver.host_specs(), AgentConfig::default(), None, |market| {
        market.set_guard(guard)
    });
    // The honest stream of the default world (the Monte-Carlo suite's).
    let jobs = job_stream(&cfg);

    let t0 = Instant::now();
    let r = driver.run(&mut policy, &jobs).expect("honest chaos run");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(r.outcomes.len());
    ms
}

/// Wall time (ms) of one full chaos run under `agent`.
fn sample_agent_run_ms(agent: AgentConfig) -> f64 {
    let cfg = ChaosConfig::default();
    let t0 = Instant::now();
    let r = cfg
        .scenario(GRAY_SEED)
        .agent(agent)
        .run()
        .expect("chaos run completes");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(r.users.len());
    ms
}

fn main() {
    type Sample = fn() -> f64;
    let cases: [(Overhead, Sample, Sample); 4] = [
        (
            Overhead {
                bench: "auction_tick",
                file: "telemetry",
                params: &[
                    ("hosts", u64::from(HOSTS)),
                    ("users", u64::from(USERS)),
                    ("ticks_per_sample", TICKS_PER_SAMPLE),
                ],
                what: "tick",
                unit: "us",
                sides: ["bare", "telemetry"],
            },
            || sample_tick_us(false),
            || sample_tick_us(true),
        ),
        (
            Overhead {
                bench: "bank_transfer_roundtrip",
                file: "overload",
                params: &[("transfers_per_sample", TRANSFERS_PER_SAMPLE)],
                what: "request",
                unit: "us",
                sides: ["default", "armed"],
            },
            || sample_request_us(NetConfig::default()),
            || sample_request_us(armed_net()),
        ),
        (
            Overhead {
                bench: "honest_chaos_run",
                file: "attack",
                params: &[],
                what: "run",
                unit: "ms",
                sides: ["open", "guarded"],
            },
            || sample_guarded_run_ms(GuardConfig::disabled()),
            || sample_guarded_run_ms(GuardConfig::default()),
        ),
        (
            Overhead {
                bench: "gray_free_chaos_run",
                file: "gray",
                params: &[],
                what: "run",
                unit: "ms",
                sides: ["off", "armed"],
            },
            || sample_agent_run_ms(nospec_agent()),
            || sample_agent_run_ms(AgentConfig::default()),
        ),
    ];
    for (overhead, baseline, armed) in cases {
        overhead.run(baseline, armed);
    }
}
