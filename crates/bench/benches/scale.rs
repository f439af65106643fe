//! Market-core scale benchmark (DESIGN.md §15).
//!
//! Measures dense struct-of-arrays tick throughput at 30 / 1k / 10k /
//! 100k hosts, each host carrying 10 funded bids from distinct bank
//! accounts — one million funded accounts at the top size. The per-tick
//! price trace is disabled (its memory is O(hosts × ticks)) and no
//! telemetry is attached, so the numbers isolate the proportional-share
//! sweep itself. Each size is also re-run with the sweep sharded across
//! scoped workers to report the parallel ticks/sec.
//!
//! The scaling gate: per-host tick cost at 100k hosts must stay within
//! 2× the per-host cost at 1k hosts — i.e. the sweep stays linear and
//! never regresses to the pointer-chasing map walk it replaced.
//!
//! Flags: `--save` writes `BENCH_scale.json` at the repository root
//! (what `just bench-save-scale` passes); `--check` exits non-zero if
//! the gate fails (what `just scale-matrix` passes); `--quick` drops the
//! 100k size (and with it the gate) for fast local runs.

use std::time::Instant;

use gm_bench::{median, tick_us};
use gm_crypto::Keypair;
use gm_des::SimTime;
use gm_tycoon::{Credits, HostId, HostSpec, Market, UserId};

fn bids_per_host() -> u32 {
    std::env::var("GM_SCALE_BIDS").ok().and_then(|v| v.parse().ok()).unwrap_or(10)
}
const SAMPLES: usize = 3;
const GATE_RATIO: f64 = 2.0;
/// Host-ticks per timing sample, so every size gets comparable work.
const HOST_TICKS_PER_SAMPLE: u64 = 2_000_000;

struct SizeResult {
    hosts: u32,
    accounts: u64,
    ticks_per_sample: u64,
    setup_secs: f64,
    seq_tick_us: f64,
    seq_per_host_ns: f64,
    seq_ticks_per_sec: f64,
    par_shards: usize,
    par_tick_us: f64,
    par_ticks_per_sec: f64,
}

/// Build a market of `hosts` hosts with `bids_per_host()` funded bids per
/// host, each from its own freshly opened and minted account.
fn build_market(hosts: u32) -> (Market, f64) {
    let t0 = Instant::now();
    let mut market = Market::new(b"scale-bench");
    market.set_price_trace_enabled(false);
    for i in 0..hosts {
        market.add_host(HostSpec::testbed(i));
    }
    // One key for every account: key derivation is not what we measure,
    // and the bank only checks ownership on user-signed paths.
    let key = Keypair::from_seed(b"scale-user").public;
    for h in 0..hosts {
        for b in 0..bids_per_host() {
            let n = u64::from(h) * u64::from(bids_per_host()) + u64::from(b);
            let acct = market.bank_mut().open_account(key, &format!("acct{n}"));
            market
                .bank_mut()
                .mint(acct, Credits::from_whole(10_000))
                .expect("endowment");
            market
                .place_funded_bid(
                    UserId(b + 1),
                    acct,
                    HostId(h),
                    // Low rates so escrow outlives every tick we time.
                    0.001 + f64::from(b) * 1e-4,
                    Credits::from_whole(1_000),
                )
                .expect("funded bid");
        }
    }
    (market, t0.elapsed().as_secs_f64())
}

/// Median per-tick µs over `SAMPLES` timing windows of `ticks` ticks.
fn sample_tick_us(market: &mut Market, now: &mut SimTime, ticks: u64) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES).map(|_| tick_us(market, now, ticks)).collect();
    median(&mut samples)
}

fn run_size(hosts: u32, shards: usize) -> SizeResult {
    let (mut market, setup_secs) = build_market(hosts);
    let ticks = (HOST_TICKS_PER_SAMPLE / u64::from(hosts)).clamp(3, 400);
    let mut now = SimTime::ZERO;
    tick_us(&mut market, &mut now, 3);
    let seq_tick_us = sample_tick_us(&mut market, &mut now, ticks);
    market.set_sharding(shards);
    let par_tick_us = sample_tick_us(&mut market, &mut now, ticks);
    SizeResult {
        hosts,
        accounts: u64::from(hosts) * u64::from(bids_per_host()),
        ticks_per_sample: ticks,
        setup_secs,
        seq_tick_us,
        seq_per_host_ns: seq_tick_us * 1e3 / f64::from(hosts),
        seq_ticks_per_sec: 1e6 / seq_tick_us,
        par_shards: shards,
        par_tick_us,
        par_ticks_per_sec: 1e6 / par_tick_us,
    }
}

fn main() {
    let save = std::env::args().any(|a| a == "--save");
    let check = std::env::args().any(|a| a == "--check");
    let quick = std::env::args().any(|a| a == "--quick");

    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let sizes: &[u32] = if quick {
        &[30, 1_000, 10_000]
    } else {
        &[30, 1_000, 10_000, 100_000]
    };

    let mut results = Vec::new();
    for &hosts in sizes {
        let r = run_size(hosts, shards);
        println!(
            "scale_tick {:>7} hosts  {:>9} accounts  setup {:>6.1} s   seq {:>11.1} µs/tick ({:>8.1} ns/host, {:>9.1} ticks/s)   sharded×{} {:>11.1} µs/tick ({:>9.1} ticks/s)",
            r.hosts,
            r.accounts,
            r.setup_secs,
            r.seq_tick_us,
            r.seq_per_host_ns,
            r.seq_ticks_per_sec,
            r.par_shards,
            r.par_tick_us,
            r.par_ticks_per_sec,
        );
        results.push(r);
    }

    // The gate: per-host cost must not regress super-linearly with size.
    let gate = (!quick).then(|| {
        let at_1k = results.iter().find(|r| r.hosts == 1_000).expect("1k size");
        let at_100k = results.iter().find(|r| r.hosts == 100_000).expect("100k size");
        let ratio = at_100k.seq_per_host_ns / at_1k.seq_per_host_ns;
        let pass = ratio <= GATE_RATIO;
        println!(
            "scale_gate per-host 100k/1k = {:.1}/{:.1} ns = {:.2}×   budget ≤{GATE_RATIO}×   {}",
            at_100k.seq_per_host_ns,
            at_1k.seq_per_host_ns,
            ratio,
            if pass { "PASS" } else { "FAIL" }
        );
        (ratio, pass)
    });

    if save {
        let mut sizes_json = String::new();
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                sizes_json.push_str(",\n");
            }
            sizes_json.push_str(&format!(
                "    {{\"hosts\": {}, \"accounts\": {}, \"ticks_per_sample\": {}, \"setup_secs\": {:.2}, \"seq_tick_us_median\": {:.2}, \"seq_per_host_ns\": {:.2}, \"seq_ticks_per_sec\": {:.2}, \"par_shards\": {}, \"par_tick_us_median\": {:.2}, \"par_ticks_per_sec\": {:.2}}}",
                r.hosts,
                r.accounts,
                r.ticks_per_sample,
                r.setup_secs,
                r.seq_tick_us,
                r.seq_per_host_ns,
                r.seq_ticks_per_sec,
                r.par_shards,
                r.par_tick_us,
                r.par_ticks_per_sec,
            ));
        }
        let gate_json = match gate {
            Some((ratio, pass)) => format!(
                "{{\"per_host_ratio_100k_vs_1k\": {ratio:.3}, \"budget_ratio\": {GATE_RATIO:.1}, \"pass\": {pass}}}"
            ),
            None => "null".to_owned(),
        };
        let bids = bids_per_host();
        let json = format!(
            "{{\n  \"bench\": \"market_scale\",\n  \"bids_per_host\": {bids},\n  \"samples\": {SAMPLES},\n  \"sizes\": [\n{sizes_json}\n  ],\n  \"gate\": {gate_json}\n}}\n"
        );
        gm_bench::save_json("scale", &json);
    }

    if check {
        match gate {
            Some((_, true)) => println!("scale gate OK"),
            Some((ratio, false)) => {
                eprintln!("scale gate FAILED: per-host ratio {ratio:.2} exceeds {GATE_RATIO}");
                std::process::exit(1);
            }
            None => {
                eprintln!("--check requires the full size matrix (drop --quick)");
                std::process::exit(2);
            }
        }
    }
}
