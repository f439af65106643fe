//! Durable bank ledger: event codec, snapshot codec, and the online
//! conservation auditor.
//!
//! The [`crate::bank::Bank`] journals every state change as a
//! [`BankEvent`] into a [`gm_ledger::SharedJournal`] *after* applying it
//! (single-threaded redo logging: an event is appended iff the mutation
//! succeeded, so replaying `snapshot + WAL` reconstructs the state
//! byte-identically — asserted via [`crate::bank::Bank::state_digest`]).
//! Periodic [`BankSnapshot`] compactions bound replay time.
//!
//! The [`ConservationAuditor`] is the online invariant checker run on
//! every recovery and every N driver ticks: Σbalances == minted (escrow
//! is held in ordinary host accounts, so the paper-level invariant
//! "Σbalances + escrow == minted" reduces to this), journaled receipt
//! signatures verify, and a deliberately forged transfer id does *not*
//! verify.

use gm_crypto::{PublicKey, Signature};
use gm_ledger::{LedgerError, SharedJournal};

use crate::bank::{AccountId, Bank, Receipt};
use crate::money::Credits;

/// Snapshot codec version byte. Version 2 added the applied transfer
/// request-id set (`DESIGN.md` §12); journals are in-memory simulated
/// disks, so there is no cross-version compatibility to keep and older
/// payloads are simply rejected as undecodable.
const SNAPSHOT_VERSION: u8 = 2;

/// One journaled bank state change (the WAL record payloads).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BankEvent {
    /// An account was created (top-level or sub-account).
    AccountOpen {
        /// Assigned account id.
        id: u64,
        /// Owner public key.
        owner: PublicKey,
        /// Parent account for sub-accounts.
        parent: Option<u64>,
        /// Human label.
        label: String,
    },
    /// The endowment faucet created money.
    Mint {
        /// Credited account.
        to: u64,
        /// Amount created.
        amount: Credits,
    },
    /// A signed transfer moved money.
    Transfer {
        /// Monotone transfer id.
        id: u64,
        /// Debited account.
        from: u64,
        /// Credited account.
        to: u64,
        /// Amount moved.
        amount: Credits,
        /// The bank's receipt signature (re-verified on recovery).
        signature: Signature,
    },
    /// A transfer token was redeemed (double-spend set entry).
    TokenSpend {
        /// The receipt's transfer id that was consumed.
        transfer_id: u64,
    },
    /// A client transfer request id was applied (idempotency set entry:
    /// the durable half of the bank's exactly-once transfer contract).
    RequestApplied {
        /// The client-chosen request id of the applied transfer.
        request_id: u64,
    },
}

const TAG_ACCOUNT_OPEN: u8 = 1;
const TAG_MINT: u8 = 2;
const TAG_TRANSFER: u8 = 3;
const TAG_TOKEN_SPEND: u8 = 4;
const TAG_REQUEST_APPLIED: u8 = 5;

/// Little decode cursor over a byte slice; every read is bounds-checked
/// so malformed payloads decode to `None`, never panic.
struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.off..self.off.checked_add(n)?)?;
        self.off += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_be_bytes(s.try_into().expect("4")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_be_bytes(s.try_into().expect("8")))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|s| i64::from_be_bytes(s.try_into().expect("8")))
    }

    fn done(&self) -> bool {
        self.off == self.buf.len()
    }
}

fn put_label(out: &mut Vec<u8>, label: &str) {
    out.extend_from_slice(&(label.len() as u32).to_be_bytes());
    out.extend_from_slice(label.as_bytes());
}

fn get_label(c: &mut Cursor) -> Option<String> {
    let len = c.u32()? as usize;
    // Labels are short human strings; a huge length is a corrupt record.
    if len > 4096 {
        return None;
    }
    String::from_utf8(c.take(len)?.to_vec()).ok()
}

impl BankEvent {
    /// Canonical byte encoding (the WAL record payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            BankEvent::AccountOpen {
                id,
                owner,
                parent,
                label,
            } => {
                out.push(TAG_ACCOUNT_OPEN);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&owner.to_bytes());
                out.push(u8::from(parent.is_some()));
                out.extend_from_slice(&parent.unwrap_or(0).to_be_bytes());
                put_label(&mut out, label);
            }
            BankEvent::Mint { to, amount } => {
                out.push(TAG_MINT);
                out.extend_from_slice(&to.to_be_bytes());
                out.extend_from_slice(&amount.as_micros().to_be_bytes());
            }
            BankEvent::Transfer {
                id,
                from,
                to,
                amount,
                signature,
            } => {
                out.push(TAG_TRANSFER);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&from.to_be_bytes());
                out.extend_from_slice(&to.to_be_bytes());
                out.extend_from_slice(&amount.as_micros().to_be_bytes());
                out.extend_from_slice(&signature.to_bytes());
            }
            BankEvent::TokenSpend { transfer_id } => {
                out.push(TAG_TOKEN_SPEND);
                out.extend_from_slice(&transfer_id.to_be_bytes());
            }
            BankEvent::RequestApplied { request_id } => {
                out.push(TAG_REQUEST_APPLIED);
                out.extend_from_slice(&request_id.to_be_bytes());
            }
        }
        out
    }

    /// Decode one event; `None` on any malformed payload (bad tag,
    /// truncation, trailing bytes, invalid key/signature encoding).
    pub fn decode(payload: &[u8]) -> Option<BankEvent> {
        let mut c = Cursor::new(payload);
        let ev = match c.u8()? {
            TAG_ACCOUNT_OPEN => {
                let id = c.u64()?;
                let owner = PublicKey::from_bytes(c.take(16)?.try_into().ok()?)?;
                let has_parent = c.u8()?;
                let parent_raw = c.u64()?;
                let label = get_label(&mut c)?;
                BankEvent::AccountOpen {
                    id,
                    owner,
                    parent: (has_parent != 0).then_some(parent_raw),
                    label,
                }
            }
            TAG_MINT => BankEvent::Mint {
                to: c.u64()?,
                amount: Credits::from_micros(c.i64()?),
            },
            TAG_TRANSFER => BankEvent::Transfer {
                id: c.u64()?,
                from: c.u64()?,
                to: c.u64()?,
                amount: Credits::from_micros(c.i64()?),
                signature: Signature::from_bytes(c.take(32)?.try_into().ok()?)?,
            },
            TAG_TOKEN_SPEND => BankEvent::TokenSpend {
                transfer_id: c.u64()?,
            },
            TAG_REQUEST_APPLIED => BankEvent::RequestApplied {
                request_id: c.u64()?,
            },
            _ => return None,
        };
        c.done().then_some(ev)
    }
}

/// One account row inside a [`BankSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotAccount {
    /// Account id.
    pub id: u64,
    /// Owner public key.
    pub owner: PublicKey,
    /// Balance at snapshot time.
    pub balance: Credits,
    /// Parent account for sub-accounts.
    pub parent: Option<u64>,
    /// Human label.
    pub label: String,
}

/// The bank's complete durable state at one point in time (the snapshot
/// record payload). Accounts and spent ids are sorted, so the encoding is
/// canonical — two banks with equal state encode byte-identically, which
/// is what [`crate::bank::Bank::state_digest`] hashes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BankSnapshot {
    /// Next account id to assign.
    pub next_account: u64,
    /// Next transfer id to assign.
    pub next_transfer: u64,
    /// Total money ever minted.
    pub minted: Credits,
    /// All accounts, sorted by id.
    pub accounts: Vec<SnapshotAccount>,
    /// All redeemed transfer-token ids, sorted.
    pub spent_tokens: Vec<u64>,
    /// All applied client transfer request ids, sorted.
    pub applied_requests: Vec<u64>,
}

impl BankSnapshot {
    /// Canonical byte encoding (the snapshot record payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.accounts.len() * 48);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&self.next_account.to_be_bytes());
        out.extend_from_slice(&self.next_transfer.to_be_bytes());
        out.extend_from_slice(&self.minted.as_micros().to_be_bytes());
        out.extend_from_slice(&(self.accounts.len() as u32).to_be_bytes());
        for a in &self.accounts {
            out.extend_from_slice(&a.id.to_be_bytes());
            out.extend_from_slice(&a.owner.to_bytes());
            out.extend_from_slice(&a.balance.as_micros().to_be_bytes());
            out.push(u8::from(a.parent.is_some()));
            out.extend_from_slice(&a.parent.unwrap_or(0).to_be_bytes());
            put_label(&mut out, &a.label);
        }
        out.extend_from_slice(&(self.spent_tokens.len() as u32).to_be_bytes());
        for id in &self.spent_tokens {
            out.extend_from_slice(&id.to_be_bytes());
        }
        out.extend_from_slice(&(self.applied_requests.len() as u32).to_be_bytes());
        for id in &self.applied_requests {
            out.extend_from_slice(&id.to_be_bytes());
        }
        out
    }

    /// Decode a snapshot payload; `None` on any malformed input.
    pub fn decode(payload: &[u8]) -> Option<BankSnapshot> {
        let mut c = Cursor::new(payload);
        if c.u8()? != SNAPSHOT_VERSION {
            return None;
        }
        let next_account = c.u64()?;
        let next_transfer = c.u64()?;
        let minted = Credits::from_micros(c.i64()?);
        let n_accounts = c.u32()? as usize;
        let mut accounts = Vec::with_capacity(n_accounts.min(1 << 16));
        for _ in 0..n_accounts {
            let id = c.u64()?;
            let owner = PublicKey::from_bytes(c.take(16)?.try_into().ok()?)?;
            let balance = Credits::from_micros(c.i64()?);
            let has_parent = c.u8()?;
            let parent_raw = c.u64()?;
            let label = get_label(&mut c)?;
            accounts.push(SnapshotAccount {
                id,
                owner,
                balance,
                parent: (has_parent != 0).then_some(parent_raw),
                label,
            });
        }
        let n_spent = c.u32()? as usize;
        let mut spent_tokens = Vec::with_capacity(n_spent.min(1 << 16));
        for _ in 0..n_spent {
            spent_tokens.push(c.u64()?);
        }
        let n_applied = c.u32()? as usize;
        let mut applied_requests = Vec::with_capacity(n_applied.min(1 << 16));
        for _ in 0..n_applied {
            applied_requests.push(c.u64()?);
        }
        c.done().then_some(BankSnapshot {
            next_account,
            next_transfer,
            minted,
            accounts,
            spent_tokens,
            applied_requests,
        })
    }
}

/// Why [`crate::bank::Bank::recover`] refused a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The journal itself failed framing validation (torn/corrupt
    /// snapshot — WAL damage is handled by truncation, not an error).
    Journal(LedgerError),
    /// The snapshot payload passed its checksum but did not decode — a
    /// version mismatch or a codec bug, not disk damage.
    BadSnapshot,
    /// WAL record at this index passed its checksum but did not decode.
    BadEvent(usize),
    /// A replayed transfer's stored signature does not verify against
    /// this bank's key: the log was forged or the seed is wrong.
    SignatureMismatch {
        /// Transfer id of the offending record.
        transfer_id: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Journal(e) => write!(f, "journal unreadable: {e}"),
            RecoverError::BadSnapshot => write!(f, "snapshot payload undecodable"),
            RecoverError::BadEvent(i) => write!(f, "WAL record {i} undecodable"),
            RecoverError::SignatureMismatch { transfer_id } => {
                write!(f, "transfer {transfer_id} signature mismatch on replay")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// What recovery found and discarded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when a snapshot was restored as the replay base.
    pub snapshot_restored: bool,
    /// WAL events applied on top of the snapshot.
    pub records_replayed: usize,
    /// Bytes truncated from a torn WAL tail.
    pub torn_tail_bytes: usize,
    /// Complete-but-corrupt WAL records that stopped replay.
    pub corrupt_records: usize,
}

/// Result of one [`ConservationAuditor`] pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Σbalances == minted (money conservation).
    pub conserved: bool,
    /// The journal (when given) replayed cleanly enough to audit.
    pub journal_ok: bool,
    /// Journaled transfer signatures spot-checked.
    pub transfers_checked: usize,
    /// Spot-checked signatures that failed verification.
    pub signature_failures: usize,
    /// True when the deliberately forged transfer id failed verification
    /// (trivially true when there was no transfer to forge from).
    pub forgery_rejected: bool,
}

impl AuditReport {
    /// True when every audited invariant held.
    pub fn ok(&self) -> bool {
        self.conserved && self.journal_ok && self.signature_failures == 0 && self.forgery_rejected
    }
}

/// Online invariant checker for the economy, run on every recovery and
/// every N driver ticks (see `TycoonPolicy::settle` in `gridmarket`).
#[derive(Clone, Copy, Debug)]
pub struct ConservationAuditor {
    /// Upper bound on journaled transfers to signature-check per pass
    /// (the most recent ones), keeping the online audit O(1)-ish.
    pub spot_check: usize,
}

impl Default for ConservationAuditor {
    fn default() -> ConservationAuditor {
        ConservationAuditor { spot_check: 16 }
    }
}

impl ConservationAuditor {
    /// Audit `bank` (and, when given, the journal it writes to).
    pub fn audit(&self, bank: &Bank, journal: Option<&SharedJournal>) -> AuditReport {
        let mut report = AuditReport {
            conserved: bank.total_money() == bank.total_minted(),
            journal_ok: true,
            transfers_checked: 0,
            signature_failures: 0,
            forgery_rejected: true,
        };
        let Some(journal) = journal else {
            return report;
        };
        let replay = match journal.replay() {
            Ok(r) => r,
            Err(_) => {
                report.journal_ok = false;
                return report;
            }
        };
        if replay.corrupt_records > 0 {
            report.journal_ok = false;
        }
        // The newest `spot_check` transfers, scanned from the tail;
        // records that do not decode are skipped.
        let key = bank.verifying_key();
        let tail = replay
            .records
            .iter()
            .rev()
            .filter_map(|p| match BankEvent::decode(p) {
                Some(BankEvent::Transfer {
                    id,
                    from,
                    to,
                    amount,
                    signature,
                }) => Some((id, from, to, amount, signature)),
                _ => None,
            })
            .take(self.spot_check);
        for (id, from, to, amount, signature) in tail {
            report.transfers_checked += 1;
            let msg = Receipt::message_bytes(id, AccountId(from), AccountId(to), amount);
            if !key.verify(&msg, &signature) {
                report.signature_failures += 1;
            }
            // A receipt must not verify against any *other* transfer id:
            // forge the id and demand failure.
            let forged =
                Receipt::message_bytes(id.wrapping_add(1), AccountId(from), AccountId(to), amount);
            if key.verify(&forged, &signature) {
                report.forgery_rejected = false;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_crypto::Keypair;

    fn key(seed: &[u8]) -> PublicKey {
        Keypair::from_seed(seed).public
    }

    #[test]
    fn event_codec_round_trips() {
        let kp = Keypair::from_seed(b"codec");
        let events = vec![
            BankEvent::AccountOpen {
                id: 7,
                owner: kp.public,
                parent: None,
                label: "broker".into(),
            },
            BankEvent::AccountOpen {
                id: 8,
                owner: kp.public,
                parent: Some(7),
                label: "job-1/sub".into(),
            },
            BankEvent::Mint {
                to: 7,
                amount: Credits::from_whole(120),
            },
            BankEvent::Transfer {
                id: 3,
                from: 7,
                to: 8,
                amount: Credits::from_f64(1.25),
                signature: kp.sign(b"msg"),
            },
            BankEvent::TokenSpend { transfer_id: 3 },
            BankEvent::RequestApplied { request_id: 41 },
        ];
        for ev in events {
            let bytes = ev.encode();
            assert_eq!(BankEvent::decode(&bytes), Some(ev.clone()), "{ev:?}");
            // Truncation at every prefix must decode to None, never panic.
            for cut in 0..bytes.len() {
                assert_eq!(BankEvent::decode(&bytes[..cut]), None, "{ev:?} cut {cut}");
            }
            // Trailing garbage is rejected.
            let mut padded = bytes.clone();
            padded.push(0);
            assert_eq!(BankEvent::decode(&padded), None);
        }
        assert_eq!(BankEvent::decode(&[99, 0, 0]), None, "unknown tag");
        assert_eq!(BankEvent::decode(&[]), None);
    }

    #[test]
    fn snapshot_codec_round_trips_and_rejects_malformed() {
        let snap = BankSnapshot {
            next_account: 5,
            next_transfer: 9,
            minted: Credits::from_whole(480),
            accounts: vec![
                SnapshotAccount {
                    id: 0,
                    owner: key(b"u0"),
                    balance: Credits::from_whole(100),
                    parent: None,
                    label: "user-0".into(),
                },
                SnapshotAccount {
                    id: 1,
                    owner: key(b"u0"),
                    balance: Credits::from_f64(0.5),
                    parent: Some(0),
                    label: "job".into(),
                },
            ],
            spent_tokens: vec![2, 4, 8],
            applied_requests: vec![1, 3],
        };
        let bytes = snap.encode();
        assert_eq!(BankSnapshot::decode(&bytes), Some(snap.clone()));
        for cut in 0..bytes.len() {
            assert_eq!(BankSnapshot::decode(&bytes[..cut]), None, "cut {cut}");
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 9;
        assert_eq!(BankSnapshot::decode(&wrong_version), None);
    }

    #[test]
    fn encoding_is_canonical() {
        let snap = BankSnapshot {
            next_account: 1,
            next_transfer: 0,
            minted: Credits::ZERO,
            accounts: vec![SnapshotAccount {
                id: 0,
                owner: key(b"x"),
                balance: Credits::ZERO,
                parent: None,
                label: "x".into(),
            }],
            spent_tokens: vec![],
            applied_requests: vec![],
        };
        assert_eq!(snap.encode(), snap.clone().encode());
    }

    /// The audit as it was before it scanned from the tail: decode every
    /// record, collect every transfer, check the last `spot_check`.
    fn audit_collect_all(spot_check: usize, bank: &Bank, journal: &SharedJournal) -> AuditReport {
        let replay = journal.replay().unwrap();
        let mut report = AuditReport {
            conserved: bank.total_money() == bank.total_minted(),
            journal_ok: replay.corrupt_records == 0,
            transfers_checked: 0,
            signature_failures: 0,
            forgery_rejected: true,
        };
        let transfers: Vec<BankEvent> = replay
            .records
            .iter()
            .filter_map(|p| BankEvent::decode(p))
            .filter(|ev| matches!(ev, BankEvent::Transfer { .. }))
            .collect();
        let key = bank.public_key();
        for ev in &transfers[transfers.len().saturating_sub(spot_check)..] {
            let BankEvent::Transfer {
                id,
                from,
                to,
                amount,
                signature,
            } = ev
            else {
                unreachable!("filtered to transfers");
            };
            report.transfers_checked += 1;
            let msg = Receipt::message_bytes(*id, AccountId(*from), AccountId(*to), *amount);
            if !key.verify(&msg, signature) {
                report.signature_failures += 1;
            }
            let forged = Receipt::message_bytes(
                id.wrapping_add(1),
                AccountId(*from),
                AccountId(*to),
                *amount,
            );
            if key.verify(&forged, signature) {
                report.forgery_rejected = false;
            }
        }
        report
    }

    #[test]
    fn tail_scan_audit_matches_the_collect_all_audit() {
        for transfers in [0u64, 5, 15, 16, 17, 40] {
            let mut bank = Bank::new(b"tail-audit");
            let journal = SharedJournal::new();
            bank.attach_ledger(journal.clone());
            let a = bank.open_account(key(b"a"), "a");
            let b = bank.open_account(key(b"b"), "b");
            bank.mint(a, Credits::from_whole(1_000)).unwrap();
            for t in 0..transfers {
                let r = bank
                    .transfer(a, b, Credits::from_whole(1 + t as i64))
                    .unwrap();
                // Interleave every other kind of event between transfers.
                match t % 4 {
                    0 => bank.mint(b, Credits::from_whole(1)).unwrap(),
                    1 => assert!(bank.record_token_spend(r.transfer_id)),
                    2 => assert!(bank.record_request_applied(t)),
                    _ => {
                        bank.open_account(key(b"c"), "c");
                    }
                }
            }
            // Forge every fifth transfer and slip undecodable records in,
            // so failures land both inside and outside the checked tail.
            let replay = journal.replay().unwrap();
            let forged = SharedJournal::new();
            let mut seen = 0;
            for payload in &replay.records {
                match BankEvent::decode(payload) {
                    Some(BankEvent::Transfer {
                        id,
                        from,
                        to,
                        amount,
                        signature,
                    }) => {
                        seen += 1;
                        let amount = if seen % 5 == 0 {
                            amount + Credits::from_whole(1)
                        } else {
                            amount
                        };
                        forged.append(
                            &BankEvent::Transfer {
                                id,
                                from,
                                to,
                                amount,
                                signature,
                            }
                            .encode(),
                        );
                        if seen % 7 == 0 {
                            forged.append(&[0xee, 1, 2]);
                        }
                    }
                    _ => {
                        forged.append(payload);
                    }
                }
            }
            for spot_check in [0, 1, 3, 16, 100] {
                let auditor = ConservationAuditor { spot_check };
                for j in [&journal, &forged] {
                    assert_eq!(
                        auditor.audit(&bank, Some(j)),
                        audit_collect_all(spot_check, &bank, j),
                        "{transfers} transfers, spot_check {spot_check}"
                    );
                }
            }
            let report = ConservationAuditor::default().audit(&bank, Some(&journal));
            assert!(report.ok());
            assert_eq!(report.transfers_checked, (transfers as usize).min(16));
        }
    }

    #[test]
    fn auditor_passes_on_healthy_bank_and_fails_on_forged_log() {
        let mut bank = Bank::new(b"audit-bank");
        let journal = SharedJournal::new();
        bank.attach_ledger(journal.clone());
        let a = bank.open_account(key(b"a"), "a");
        let b = bank.open_account(key(b"b"), "b");
        bank.mint(a, Credits::from_whole(50)).unwrap();
        bank.transfer(a, b, Credits::from_whole(20)).unwrap();

        let auditor = ConservationAuditor::default();
        let report = auditor.audit(&bank, Some(&journal));
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.transfers_checked, 1);

        // Tamper: rewrite the transfer record with a different amount but
        // the old signature — the spot check must catch it.
        let replay = journal.replay().unwrap();
        let forged_journal = SharedJournal::new();
        for payload in &replay.records {
            match BankEvent::decode(payload) {
                Some(BankEvent::Transfer {
                    id,
                    from,
                    to,
                    signature,
                    ..
                }) => {
                    forged_journal.append(
                        &BankEvent::Transfer {
                            id,
                            from,
                            to,
                            amount: Credits::from_whole(999),
                            signature,
                        }
                        .encode(),
                    );
                }
                _ => {
                    forged_journal.append(payload);
                }
            }
        }
        let report = auditor.audit(&bank, Some(&forged_journal));
        assert!(!report.ok());
        assert_eq!(report.signature_failures, 1);
    }
}
