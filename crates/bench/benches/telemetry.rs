//! Telemetry overhead microbench (DESIGN.md §9).
//!
//! Runs the same Table-1-scale auction workload — 30 testbed hosts, 8
//! users, every user holding a funded bid on every host — twice: once on
//! a bare market and once with a `gm_telemetry::Registry` attached (tick
//! histogram, per-host spot gauges, bid/transfer counters). Reports the
//! median per-tick time of each and the relative overhead, which the
//! design budget caps at 5 % (`gm_bench::Overhead`).
//!
//! `--save` (what `just bench-save` passes) writes the result to
//! `BENCH_telemetry.json` at the repository root.

use std::sync::Arc;

use gm_bench::{tick_us, Overhead};
use gm_crypto::Keypair;
use gm_des::SimTime;
use gm_telemetry::{Registry, WallClock};
use gm_tycoon::{Credits, HostId, HostSpec, Market, UserId};

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

fn main() {
    Overhead {
        bench: "auction_tick",
        file: "telemetry",
        params: &[
            ("hosts", HOSTS.into()),
            ("users", USERS.into()),
            ("ticks_per_sample", TICKS_PER_SAMPLE),
        ],
        what: "tick",
        unit: "us",
        sides: ["bare", "telemetry"],
    }
    .run(|| sample_tick_us(false), || sample_tick_us(true));
}
