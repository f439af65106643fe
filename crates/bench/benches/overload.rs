//! Overload-layer overhead microbench (`DESIGN.md` §12).
//!
//! Runs the same sequential bank-transfer workload twice against a live
//! `BankService`: once on the default net configuration (perfect links,
//! unbounded mailbox, no breaker — the historical runtime) and once with
//! the full overload machinery armed but idle (perfect links, a bounded
//! mailbox large enough never to shed, a closed circuit breaker, and
//! `net.*` telemetry). Reports the median per-request time of each and
//! the relative overhead, which the design budget caps at 5 % — the
//! resilience layer must be free when nothing is failing.
//!
//! `--save` (what `just bench-save-overload` passes) writes the result to
//! `BENCH_overload.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use gm_bench::Overhead;
use gm_crypto::Keypair;
use gm_telemetry::Registry;
use gm_tycoon::{
    BreakerConfig, Credits, LiveMarket, NetConfig, NetInstruments, QueueConfig, ShedPolicy,
};

const TRANSFERS_PER_SAMPLE: u64 = 2_000;

fn armed_config() -> NetConfig {
    // Everything on, nothing firing: perfect links, a mailbox bound far
    // above the single-client depth, default breakers, live telemetry.
    NetConfig {
        queue: QueueConfig::bounded(64, ShedPolicy::RejectNew),
        breaker: Some(BreakerConfig::default()),
        telemetry: Some(NetInstruments::new(&Registry::new())),
        ..NetConfig::default()
    }
}

/// Per-request wall time (µs) of `TRANSFERS_PER_SAMPLE` transfers against
/// a freshly spawned bank service.
fn sample_request_us(net: NetConfig) -> f64 {
    let live = LiveMarket::spawn_with_net(b"overload-bench", Vec::new(), net);
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

fn main() {
    Overhead {
        bench: "bank_transfer_roundtrip",
        file: "overload",
        params: &[("transfers_per_sample", TRANSFERS_PER_SAMPLE)],
        what: "request",
        unit: "us",
        sides: ["default", "armed"],
    }
    .run(|| sample_request_us(NetConfig::default()), || sample_request_us(armed_config()));
}
