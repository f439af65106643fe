//! Overload demo (`DESIGN.md` §12): hammer a live bank over lossy links
//! through bounded, breaker-guarded mailboxes, crash and recover it
//! mid-run, then render the `net.*` / `service.*` telemetry as a
//! "top"-style table together with the exactly-once accounting.
//!
//! ```sh
//! cargo run --release --example overload_run [seed] [loss_pct]
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use gm_ledger::SharedJournal;
use gm_telemetry::{Registry, WallClock};
use gridmarket::telemetry::render_top;
use gridmarket::tycoon::{
    BankError, ConservationAuditor, Credits, HostSpec, LiveMarket, NetConfig, NetInstruments,
    ServiceError, ServiceInstruments,
};

const WORKERS: u64 = 8;
const PER_WORKER: u64 = 150;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2006);
    let loss_pct: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10.0);
    let p = (loss_pct / 100.0).clamp(0.0, 0.9);

    let registry = Registry::new();
    let mut net = NetConfig::chaos(p, seed, 8);
    net.telemetry = Some(NetInstruments::new(&registry));

    let journal = SharedJournal::new();
    let hosts: Vec<HostSpec> = (0..4).map(HostSpec::testbed).collect();
    let mut live = LiveMarket::spawn_with(b"overload-demo", hosts, net, Some(journal.clone()));
    live.attach_telemetry(ServiceInstruments::new(&registry, Arc::new(WallClock::new())));

    let admin = live.bank();
    let key = gm_crypto::Keypair::from_seed(b"demo-user").public;
    let payer = admin.open_account(key, "payer").unwrap();
    let sink = admin.open_account(key, "sink").unwrap();
    admin.mint(payer, Credits::from_whole(1_000_000)).unwrap();

    println!(
        "overload_run: {WORKERS} workers x {PER_WORKER} transfers, {loss_pct}% loss, \
         mailbox 8 (reject-new), breakers on, bank crash mid-run\n"
    );

    let hammer = |live: &LiveMarket, phase: u64| -> (BTreeSet<u64>, BTreeSet<u64>) {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let bank = live.bank().with_deadline(Duration::from_millis(30), 4);
                std::thread::spawn(move || {
                    let mut confirmed = BTreeSet::new();
                    let mut unknown = BTreeSet::new();
                    for i in 0..PER_WORKER {
                        let id = phase * 1_000_000 + w * 10_000 + i + 1;
                        match bank.transfer_with_id(id, payer, sink, Credits::from_whole(1)) {
                            Ok(_)
                            | Err(ServiceError::Rejected(BankError::DuplicateRequest(_))) => {
                                confirmed.insert(id);
                            }
                            Err(_) => {
                                unknown.insert(id);
                            }
                        }
                    }
                    (confirmed, unknown)
                })
            })
            .collect();
        let mut confirmed = BTreeSet::new();
        let mut unknown = BTreeSet::new();
        for h in handles {
            let (c, u) = h.join().expect("worker");
            confirmed.extend(c);
            unknown.extend(u);
        }
        (confirmed, unknown)
    };

    let (ok1, lost1) = hammer(&live, 1);
    let ticks = live.tick(10.0).len();
    println!(
        "phase 1 (lossy):     {:>5} confirmed  {:>4} unknown   tick reached {ticks} auctioneers",
        ok1.len(),
        lost1.len()
    );

    live.kill_bank();
    live.restart_bank(b"overload-demo", &journal)
        .expect("bank recovers from its journal");
    println!("bank crashed and recovered from its journal");

    let (ok2, lost2) = hammer(&live, 2);
    println!(
        "phase 2 (recovered): {:>5} confirmed  {:>4} unknown",
        ok2.len(),
        lost2.len()
    );

    let bank = live.shutdown();
    let applied = bank.applied_request_ids().len();
    let audit = ConservationAuditor::default().audit(&bank, Some(&journal));

    println!();
    println!(
        "{}",
        render_top(
            &format!("overload telemetry — seed {seed}, {loss_pct}% loss"),
            &registry.snapshot()
        )
    );

    println!(
        "applied transfers: {applied} (sink balance {} — one credit each)",
        bank.balance(sink).unwrap_or(Credits::ZERO)
    );
    println!(
        "conservation: minted {} == held {}   audit {}",
        bank.total_minted(),
        bank.total_money(),
        if audit.ok() { "PASS" } else { "FAIL" }
    );
    assert!(audit.ok(), "conservation audit failed: {audit:?}");
    assert_eq!(bank.total_money(), bank.total_minted());
}
