//! Kill-point sweep (`DESIGN.md` §11): run a fixed-seed Table-1-style
//! scenario with a durable bank ledger attached, then crash the bank at
//! **every** WAL record boundary of the resulting journal and recover it
//! from disk. Every recovered state must satisfy the conservation
//! auditor (Σbalances == minted, journal replays, receipt signatures
//! verify, a forged transfer id is rejected) and never forget a spent
//! token. Mid-record cuts must be truncated as torn tails. The scenario
//! checkpoints its journal, so a third sweep drives a bank directly
//! across several checkpoints and crashes every segment.

use gm_ledger::SharedJournal;
use gm_tycoon::{Bank, ConservationAuditor};
use gridmarket::scenario::{Scenario, ScenarioResult};

const SEED: u64 = 2006;

fn table1_with_ledger(journal: SharedJournal) -> ScenarioResult {
    Scenario::builder()
        .seed(SEED)
        .hosts(3)
        .chunk_minutes(6.0)
        .deadline_minutes(90)
        .horizon_hours(4)
        .equal_users(2, 80.0)
        .ledger(journal)
        .run()
        .expect("ledger scenario runs")
}

#[test]
fn kill_point_sweep_every_wal_boundary_recovers_audited_state() {
    let journal = SharedJournal::new();
    let r = table1_with_ledger(journal.clone());
    assert!(r.all_done(), "scenario must finish: {:?}", r.users);
    assert!(r.money_conserved());
    // `dispatches == requeues + 1` for every finished sub-job.
    assert!(r.recovery_invariant_ok);

    // The run's final journal is the "disk image" the sweep replays.
    let disk = journal.to_journal();
    let seed_bytes = SEED.to_be_bytes();
    assert!(disk.record_count() > 0, "the run journaled bank events");

    let mut boundaries = vec![0usize];
    boundaries.extend_from_slice(disk.record_ends());

    let auditor = ConservationAuditor::default();
    let mut last_spent: Vec<u64> = Vec::new();
    for &cut in &boundaries {
        let crashed = SharedJournal::from_journal(disk.crash_at(cut));
        let (bank, report) = match Bank::recover(&seed_bytes, &crashed) {
            Ok(ok) => ok,
            Err(e) => panic!("recovery at boundary {cut} failed: {e}"),
        };
        assert_eq!(report.torn_tail_bytes, 0, "boundary {cut} is not torn");
        assert_eq!(report.corrupt_records, 0);

        // Conservation + receipt signatures + forged-id rejection.
        let audit = auditor.audit(&bank, Some(&crashed));
        assert!(audit.ok(), "audit failed at boundary {cut}: {audit:?}");
        assert!(audit.forgery_rejected, "forged transfer id verified at {cut}");

        // Spent tokens are never forgotten: the spent set grows
        // monotonically with the crash point.
        let spent = bank.spent_token_ids();
        assert!(
            last_spent.iter().all(|id| spent.contains(id)),
            "boundary {cut} forgot a spent token"
        );
        last_spent = spent;
    }

    // The final boundary restores the full run byte-identically.
    let full = SharedJournal::from_journal(disk.clone());
    let (bank, _) = match Bank::recover(&seed_bytes, &full) {
        Ok(ok) => ok,
        Err(e) => panic!("full recovery failed: {e}"),
    };
    assert_eq!(bank.total_money(), bank.total_minted());
    assert_eq!(
        bank.total_minted().as_f64(),
        r.total_minted,
        "recovered books match the live run's minted total"
    );
}

#[test]
fn kill_point_sweep_mid_record_cuts_are_torn_tails() {
    let journal = SharedJournal::new();
    let r = table1_with_ledger(journal.clone());
    assert!(r.all_done());

    let disk = journal.to_journal();
    let seed_bytes = SEED.to_be_bytes();
    let boundaries: std::collections::BTreeSet<usize> =
        disk.record_ends().iter().copied().collect();

    // Sampling every byte offset would be O(bytes × records); step
    // through the WAL at a prime stride instead so cuts land at varied
    // positions inside records across the whole file.
    let mut cut = 1usize;
    let mut tested = 0u32;
    while cut < disk.wal_len() {
        if !boundaries.contains(&cut) {
            let crashed = SharedJournal::from_journal(disk.crash_at(cut));
            let (bank, report) = match Bank::recover(&seed_bytes, &crashed) {
                Ok(ok) => ok,
                Err(e) => panic!("torn-tail recovery at {cut} failed: {e}"),
            };
            assert!(report.torn_tail_bytes > 0, "cut {cut} should tear a record");
            assert_eq!(bank.total_money(), bank.total_minted());
            tested += 1;
        }
        cut += 241;
    }
    assert!(tested > 10, "stride covered too few torn cuts ({tested})");
}

/// `Scenario` checkpoints the journal every `LEDGER_SNAPSHOT_EVERY`
/// events, so the sweeps above only reach the WAL written since the
/// run's last checkpoint. This sweep drives a bank with the same cadence
/// through random open/mint/transfer/token-spend sequences that cross at
/// least three checkpoints, copies the disk image after every operation,
/// and crashes each segment (the WAL between two checkpoints) at every
/// record boundary. Each recovered bank must hold exactly the state of a
/// never-checkpointed bank after the same operation, and pass the audit.
#[test]
fn kill_point_sweep_across_checkpoints_matches_an_uncheckpointed_bank() {
    use gm_ledger::Journal;
    use gm_tycoon::{AccountId, Credits};
    use gridmarket::des::check::{check, Gen};
    use gridmarket::scenario::LEDGER_SNAPSHOT_EVERY;

    const CHECKPOINTS: usize = 3;
    let seed_bytes = SEED.to_be_bytes();
    let auditor = ConservationAuditor::default();
    let mut kill_points = 0usize;
    check("kill_point_sweep_across_checkpoints", 4, |g: &mut Gen| {
        let journal = SharedJournal::new();
        let mut bank = Bank::new(&seed_bytes);
        bank.attach_ledger(journal.clone());
        bank.set_snapshot_every(LEDGER_SNAPSHOT_EVERY);
        // The reference: same operations, no journal, no checkpoint.
        let mut plain = Bank::new(&seed_bytes);
        let owner = bank.public_key();

        // Each segment's last disk image, with the reference digest after
        // each of its records (index 0: the state its snapshot holds).
        let mut segments: Vec<(Journal, Vec<[u8; 32]>)> = Vec::new();
        let mut digests = vec![plain.state_digest()];
        let mut image = journal.to_journal();
        let mut accounts: Vec<AccountId> = Vec::new();
        let tail_ops = g.usize_in(0, LEDGER_SNAPSHOT_EVERY as usize);
        let mut ops_after_last = 0;
        while segments.len() < CHECKPOINTS || ops_after_last < tail_ops {
            match g.u64_in(0, 9) {
                0 => {
                    let id = bank.open_account(owner, "acct");
                    assert_eq!(plain.open_account(owner, "acct"), id);
                    accounts.push(id);
                }
                _ if accounts.is_empty() => continue,
                1 | 2 => {
                    let to = *g.choose(&accounts);
                    let amount = Credits::from_whole(g.i64_in(1, 100));
                    assert_eq!(bank.mint(to, amount), plain.mint(to, amount));
                }
                3 | 4 => {
                    let id = g.u64_in(0, plain.snapshot().next_transfer + 2);
                    assert_eq!(bank.record_token_spend(id), plain.record_token_spend(id));
                }
                _ => {
                    let (from, to) = (*g.choose(&accounts), *g.choose(&accounts));
                    let amount = Credits::from_whole(g.i64_in(1, 40));
                    let live = bank.transfer(from, to, amount).map(|r| r.transfer_id);
                    assert_eq!(
                        live,
                        plain.transfer(from, to, amount).map(|r| r.transfer_id)
                    );
                }
            }
            if segments.len() >= CHECKPOINTS {
                ops_after_last += 1;
            }
            let now = journal.to_journal();
            if now.snapshot_bytes() != image.snapshot_bytes() {
                // The operation's event was the cadence's last: its state
                // went into the new snapshot.
                assert_eq!(now.record_count(), 0, "a checkpoint empties the WAL");
                segments.push((
                    image,
                    std::mem::replace(&mut digests, vec![plain.state_digest()]),
                ));
            } else if now.record_count() > image.record_count() {
                assert_eq!(
                    now.record_count(),
                    image.record_count() + 1,
                    "one event per operation"
                );
                digests.push(plain.state_digest());
            }
            image = now;
        }
        segments.push((image, digests));

        for (disk, digests) in &segments {
            assert!(disk.record_count() < LEDGER_SNAPSHOT_EVERY as usize);
            let mut boundaries = vec![0usize];
            boundaries.extend_from_slice(disk.record_ends());
            assert_eq!(boundaries.len(), digests.len());
            for (records, (&cut, digest)) in boundaries.iter().zip(digests).enumerate() {
                let crashed = SharedJournal::from_journal(disk.crash_at(cut));
                let (recovered, report) = Bank::recover(&seed_bytes, &crashed)
                    .unwrap_or_else(|e| panic!("recovery at boundary {cut} failed: {e}"));
                assert!(report.snapshot_restored);
                assert_eq!(report.records_replayed, records, "boundary {cut}");
                assert_eq!(report.torn_tail_bytes, 0, "boundary {cut} is not torn");
                assert_eq!(&recovered.state_digest(), digest, "boundary {cut}");
                let audit = auditor.audit(&recovered, Some(&crashed));
                assert!(audit.ok(), "audit failed at boundary {cut}: {audit:?}");
                kill_points += 1;
            }
        }
    });
    // One case alone covers at least 3 full segments of 64 boundaries.
    assert!(kill_points >= 187, "only {kill_points} crash points");
}

/// WAL frames are checksummed but not authenticated, so recovery must
/// reject crafted events the live bank would refuse instead of panicking:
/// a mint that overflows the books, an account id with no successor, and
/// non-positive mints.
#[test]
fn crafted_wal_events_are_bad_events_not_panics() {
    use gm_tycoon::{BankEvent, Credits, RecoverError};

    let seed_bytes = SEED.to_be_bytes();
    let owner = Bank::new(&seed_bytes).public_key();
    let open = |id: u64| BankEvent::AccountOpen {
        id,
        owner,
        parent: None,
        label: "crafted".into(),
    };
    let mint = |micros: i64| BankEvent::Mint {
        to: 0,
        amount: Credits::from_micros(micros),
    };
    let cases: [(&str, Vec<BankEvent>, usize); 4] = [
        ("overflowing mint", vec![open(0), mint(i64::MAX), mint(1)], 2),
        ("last account id", vec![open(u64::MAX)], 0),
        ("negative mint", vec![open(0), mint(-1)], 1),
        ("zero mint", vec![open(0), mint(0)], 1),
    ];
    for (name, events, bad_at) in cases {
        let journal = SharedJournal::new();
        for ev in &events {
            journal.append(&ev.encode());
        }
        match Bank::recover(&seed_bytes, &journal) {
            Err(RecoverError::BadEvent(i)) => assert_eq!(i, bad_at, "{name}"),
            Err(e) => panic!("{name}: wrong error {e}"),
            Ok(_) => panic!("{name}: crafted WAL recovered"),
        }
    }
}

/// An `AccountOpen` the live bank could never have journaled — an id
/// already open, or one that would leave `next_account` at `u64::MAX` —
/// is a bad event: replaying the first would wipe the account's balance,
/// and the second would make the next `open_account` overflow.
#[test]
fn crafted_account_opens_are_bad_events() {
    use gm_tycoon::{BankEvent, Credits, RecoverError};

    let seed_bytes = SEED.to_be_bytes();
    let owner = Bank::new(&seed_bytes).public_key();
    let open = |id: u64| BankEvent::AccountOpen {
        id,
        owner,
        parent: None,
        label: "crafted".into(),
    };
    let mint = BankEvent::Mint {
        to: 0,
        amount: Credits::from_whole(5),
    };
    let cases: [(&str, Vec<BankEvent>, usize); 3] = [
        ("account id below the last", vec![open(u64::MAX - 1)], 0),
        ("re-opened funded account", vec![open(0), mint, open(0)], 2),
        ("re-opened empty account", vec![open(3), open(3)], 1),
    ];
    for (name, events, bad_at) in cases {
        let journal = SharedJournal::new();
        for ev in &events {
            journal.append(&ev.encode());
        }
        match Bank::recover(&seed_bytes, &journal) {
            Err(RecoverError::BadEvent(i)) => assert_eq!(i, bad_at, "{name}"),
            Err(e) => panic!("{name}: wrong error {e}"),
            Ok(_) => panic!("{name}: crafted WAL recovered"),
        }
    }
    // The largest id the rule still admits recovers and leaves room to
    // open one more account.
    let journal = SharedJournal::new();
    journal.append(&open(u64::MAX - 2).encode());
    let (mut bank, _) = Bank::recover(&seed_bytes, &journal).expect("id u64::MAX - 2 recovers");
    bank.open_account(owner, "next");
    assert_eq!(bank.account_count(), 2);
}

/// Snapshot frames are checksummed but not authenticated either, so
/// recovery must refuse a crafted snapshot the live bank could never have
/// written instead of adopting it. Each case runs the operation the
/// adopted state would break: the audit `Market::restart_bank` runs next,
/// the next transfer, or the next account opened.
#[test]
fn crafted_snapshots_are_bad_snapshots_not_panics() {
    use gm_tycoon::{AccountId, BankSnapshot, Credits, RecoverError};

    let seed_bytes = SEED.to_be_bytes();
    let mut live = Bank::new(&seed_bytes);
    let owner = live.public_key();
    let payer = live.open_account(owner, "payer");
    live.open_account(owner, "payee");
    live.mint(payer, Credits::from_whole(100)).expect("mint");
    let base = live.snapshot();
    let compacted = |snapshot: &BankSnapshot| {
        let journal = SharedJournal::new();
        journal.compact(&snapshot.encode());
        journal
    };
    assert!(
        Bank::recover(&seed_bytes, &compacted(&base)).is_ok(),
        "an honest snapshot recovers"
    );

    let balances = |micros: i64| {
        let mut s = base.clone();
        for a in &mut s.accounts {
            a.balance = Credits::from_micros(micros);
        }
        s
    };
    let audit = |bank: &mut Bank| {
        let report = ConservationAuditor::default().audit(bank, None);
        assert!(report.ok(), "audit failed: {report:?}");
    };
    let transfer = |bank: &mut Bank| {
        bank.transfer(AccountId(0), AccountId(1), Credits::from_whole(1))
            .expect("transfer");
    };
    let open = |bank: &mut Bank| {
        let before = bank.account_count();
        bank.open_account(bank.public_key(), "late");
        assert_eq!(
            bank.account_count(),
            before + 1,
            "an account was overwritten"
        );
    };
    type Operation = fn(&mut Bank);
    let cases: [(&str, BankSnapshot, Operation); 6] = [
        ("balances overflow", balances(i64::MAX), audit),
        ("negative balances", balances(i64::MIN), audit),
        (
            "negative minted",
            BankSnapshot {
                minted: Credits::from_micros(-1),
                ..base.clone()
            },
            audit,
        ),
        (
            "last transfer id",
            BankSnapshot {
                next_transfer: u64::MAX,
                ..base.clone()
            },
            transfer,
        ),
        (
            "last account id",
            BankSnapshot {
                next_account: u64::MAX,
                ..base.clone()
            },
            open,
        ),
        (
            "account past next_account",
            BankSnapshot {
                next_account: 1,
                ..base.clone()
            },
            open,
        ),
    ];
    for (name, snapshot, operation) in cases {
        match Bank::recover(&seed_bytes, &compacted(&snapshot)) {
            Err(RecoverError::BadSnapshot) => {}
            Err(e) => panic!("{name}: wrong error {e}"),
            Ok((mut bank, _)) => {
                operation(&mut bank);
                panic!("{name}: crafted snapshot recovered");
            }
        }
    }
}
