//! The Tycoon Bank.
//!
//! "The Bank … maintains information on users like their credit balance and
//! public keys" (§2.2). It is the only component that can move money:
//! transfers produce bank-signed [`Receipt`]s that the grid layer turns
//! into transfer tokens (§3.1), and funded *sub-accounts* implement the
//! broker-side flow ("a new sub-account to the broker account is created
//! and the money verified is transferred into this account").
//!
//! Money conservation is an invariant: apart from explicit `mint` (the
//! simulation's endowment faucet), the sum over all accounts is constant —
//! tested here and property-tested in the integration suite.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use gm_crypto::{sha256, Keypair, PreparedKey, PublicKey, Signature};
use gm_ledger::SharedJournal;

use crate::ledger::{BankEvent, BankSnapshot, RecoverError, RecoveryReport, SnapshotAccount};
use crate::money::Credits;
use crate::telemetry::LedgerInstruments;

/// Identifier of a bank account.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountId(pub u64);

impl fmt::Debug for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct{}", self.0)
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct{}", self.0)
    }
}

/// Errors from bank operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankError {
    /// The referenced account does not exist.
    NoSuchAccount(AccountId),
    /// The source account balance is smaller than the transfer amount.
    InsufficientFunds {
        /// Account that was short.
        account: AccountId,
        /// Balance at the time of the attempt.
        balance: Credits,
        /// Amount requested.
        requested: Credits,
    },
    /// Transfer amounts must be strictly positive.
    NonPositiveAmount(Credits),
    /// The client request id was already applied, but its recorded
    /// outcome has been evicted from the volatile replay cache: the
    /// transfer is durably known to have executed exactly once, so it is
    /// refused rather than re-run (`DESIGN.md` §12).
    DuplicateRequest(u64),
}

impl fmt::Display for BankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankError::NoSuchAccount(a) => write!(f, "no such account {a}"),
            BankError::InsufficientFunds {
                account,
                balance,
                requested,
            } => write!(
                f,
                "insufficient funds in {account}: balance {balance}, requested {requested}"
            ),
            BankError::NonPositiveAmount(c) => write!(f, "non-positive amount {c}"),
            BankError::DuplicateRequest(id) => {
                write!(f, "transfer request {id} was already applied")
            }
        }
    }
}

impl std::error::Error for BankError {}

#[derive(Clone, Debug)]
struct Account {
    owner: PublicKey,
    balance: Credits,
    parent: Option<AccountId>,
    label: String,
}

/// A bank-signed proof that a transfer happened.
#[derive(Clone, Debug, PartialEq)]
pub struct Receipt {
    /// Monotone unique transfer identifier.
    pub transfer_id: u64,
    /// Debited account.
    pub from: AccountId,
    /// Credited account.
    pub to: AccountId,
    /// Amount moved.
    pub amount: Credits,
    /// Bank signature over [`Receipt::message_bytes`].
    pub signature: Signature,
}

impl Receipt {
    const TAG: &'static [u8] = b"tycoon-receipt-v1";

    /// Canonical byte encoding of the receipt body (what the bank signs).
    pub fn message_bytes(transfer_id: u64, from: AccountId, to: AccountId, amount: Credits) -> Vec<u8> {
        // The tag, three u64 fields and the i64 micro-credit amount.
        let mut m = Vec::with_capacity(
            Self::TAG.len() + 3 * std::mem::size_of::<u64>() + std::mem::size_of::<i64>(),
        );
        m.extend_from_slice(Self::TAG);
        m.extend_from_slice(&transfer_id.to_be_bytes());
        m.extend_from_slice(&from.0.to_be_bytes());
        m.extend_from_slice(&to.0.to_be_bytes());
        m.extend_from_slice(&amount.as_micros().to_be_bytes());
        m
    }

    /// The bytes this receipt's signature covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        Self::message_bytes(self.transfer_id, self.from, self.to, self.amount)
    }
}

/// The central bank service.
pub struct Bank {
    keypair: Keypair,
    /// Comb table of the bank's own public key: every receipt the bank
    /// checks (recovery replay, tokens, audits) is verified through it.
    verifier: PreparedKey,
    accounts: HashMap<AccountId, Account>,
    next_account: u64,
    next_transfer: u64,
    minted: Credits,
    /// Redeemed transfer-token ids (the durable double-spend set the
    /// grid's job manager checks every token against).
    spent_tokens: BTreeSet<u64>,
    /// Applied client transfer request ids (durable idempotency set: the
    /// half of the service's dedup contract that survives both a crash
    /// and replay-cache eviction).
    applied_requests: BTreeSet<u64>,
    /// Write-ahead journal; `None` = volatile bank (pre-PR-4 behaviour).
    journal: Option<SharedJournal>,
    instruments: Option<LedgerInstruments>,
    /// Auto-compact after this many journaled events (0 = never).
    snapshot_every: u64,
    events_since_snapshot: u64,
}

impl Bank {
    /// New bank with a signing key derived from `seed`.
    pub fn new(seed: &[u8]) -> Bank {
        let keypair = Keypair::from_seed(seed);
        Bank {
            verifier: keypair.public.prepare(),
            keypair,
            accounts: HashMap::new(),
            next_account: 0,
            next_transfer: 0,
            minted: Credits::ZERO,
            spent_tokens: BTreeSet::new(),
            applied_requests: BTreeSet::new(),
            journal: None,
            instruments: None,
            snapshot_every: 0,
            events_since_snapshot: 0,
        }
    }

    /// Attach a write-ahead journal. The current state is immediately
    /// compacted into the journal's snapshot, so attaching doubles as a
    /// checkpoint — in particular, re-attaching after [`Bank::recover`]
    /// folds the replayed WAL away.
    pub fn attach_ledger(&mut self, journal: SharedJournal) {
        self.journal = Some(journal);
        self.snapshot_now();
    }

    /// Attach `ledger.*` telemetry counters (appends/snapshots).
    pub fn attach_ledger_telemetry(&mut self, instruments: LedgerInstruments) {
        self.instruments = Some(instruments);
    }

    /// Checkpoint the journal after every `n` journaled events: the
    /// `n`-th event since the last checkpoint folds the WAL into a fresh
    /// snapshot, so after every journaled event the WAL holds fewer than
    /// `n` records and recovery replays a snapshot plus fewer than `n`.
    /// 0, the default of [`Bank::new`] and [`Bank::recover`], never
    /// checkpoints on its own. Takes effect once a journal is attached.
    pub fn set_snapshot_every(&mut self, n: u64) {
        self.snapshot_every = n;
    }

    /// The checkpoint cadence set by [`Bank::set_snapshot_every`].
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// Compact the journal to a snapshot of the current state now.
    /// No-op without an attached journal.
    pub fn snapshot_now(&mut self) {
        if let Some(journal) = &self.journal {
            journal.compact(&self.snapshot().encode());
            self.events_since_snapshot = 0;
            if let Some(ins) = &self.instruments {
                ins.snapshots.inc();
            }
        }
    }

    /// Append one event to the journal (after the mutation succeeded —
    /// single-threaded redo logging), honouring the compaction cadence.
    fn journal_event(&mut self, ev: &BankEvent) {
        if self.journal.is_none() {
            return;
        }
        let payload = ev.encode();
        if let Some(journal) = &self.journal {
            journal.append(&payload);
        }
        if let Some(ins) = &self.instruments {
            ins.appends.inc();
        }
        self.events_since_snapshot += 1;
        if self.snapshot_every > 0 && self.events_since_snapshot >= self.snapshot_every {
            self.snapshot_now();
        }
    }

    /// The bank's complete durable state, canonically ordered.
    pub fn snapshot(&self) -> BankSnapshot {
        let mut accounts: Vec<SnapshotAccount> = self
            .accounts
            .iter()
            .map(|(id, a)| SnapshotAccount {
                id: id.0,
                owner: a.owner,
                balance: a.balance,
                parent: a.parent.map(|p| p.0),
                label: a.label.clone(),
            })
            .collect();
        accounts.sort_by_key(|a| a.id);
        BankSnapshot {
            next_account: self.next_account,
            next_transfer: self.next_transfer,
            minted: self.minted,
            accounts,
            spent_tokens: self.spent_tokens.iter().copied().collect(),
            applied_requests: self.applied_requests.iter().copied().collect(),
        }
    }

    /// SHA-256 of the canonical snapshot encoding: two banks with equal
    /// durable state digest identically (used by the kill-point sweep to
    /// assert byte-identical recovery).
    pub fn state_digest(&self) -> [u8; 32] {
        sha256(&self.snapshot().encode())
    }

    /// Rebuild a bank from `journal` (snapshot + WAL replay), re-deriving
    /// the signing key from `seed`. Torn WAL tails are truncated; corrupt
    /// records stop replay at the damage; every replayed transfer's
    /// stored signature is re-verified against the derived key. The
    /// returned bank has no journal attached — call
    /// [`Bank::attach_ledger`] to resume journaling (which checkpoints).
    pub fn recover(
        seed: &[u8],
        journal: &SharedJournal,
    ) -> Result<(Bank, RecoveryReport), RecoverError> {
        let replay = journal.replay().map_err(RecoverError::Journal)?;
        let mut bank = Bank::new(seed);
        let mut report = RecoveryReport {
            snapshot_restored: false,
            records_replayed: 0,
            torn_tail_bytes: replay.torn_tail_bytes,
            corrupt_records: replay.corrupt_records,
        };
        if let Some(snap_bytes) = &replay.snapshot {
            let snap = BankSnapshot::decode(snap_bytes)
                .filter(snapshot_is_consistent)
                .ok_or(RecoverError::BadSnapshot)?;
            bank.next_account = snap.next_account;
            bank.next_transfer = snap.next_transfer;
            bank.minted = snap.minted;
            for a in snap.accounts {
                bank.accounts.insert(
                    AccountId(a.id),
                    Account {
                        owner: a.owner,
                        balance: a.balance,
                        parent: a.parent.map(AccountId),
                        label: a.label,
                    },
                );
            }
            bank.spent_tokens = snap.spent_tokens.into_iter().collect();
            bank.applied_requests = snap.applied_requests.into_iter().collect();
            report.snapshot_restored = true;
        }
        for (i, payload) in replay.records.iter().enumerate() {
            let ev = BankEvent::decode(payload).ok_or(RecoverError::BadEvent(i))?;
            bank.apply_replayed(ev, i)?;
            report.records_replayed += 1;
        }
        Ok((bank, report))
    }

    /// Apply one replayed WAL event without journaling (redo path).
    /// WAL frames are checksummed, not authenticated, so every event is
    /// checked the way the live operation would check it, with checked
    /// arithmetic: a crafted record is a [`RecoverError::BadEvent`],
    /// never a panic. A failed replay discards the whole bank, so an
    /// event rejected half-way is never observed.
    fn apply_replayed(&mut self, ev: BankEvent, index: usize) -> Result<(), RecoverError> {
        let bad = || RecoverError::BadEvent(index);
        match ev {
            BankEvent::AccountOpen {
                id,
                owner,
                parent,
                label,
            } => {
                // A fresh id that leaves `next_account < u64::MAX`, the
                // bound `snapshot_is_consistent` puts on snapshots:
                // re-opening would zero a balance, and `u64::MAX` would
                // overflow the next `open_account`.
                let next = id.checked_add(1).filter(|&n| n < u64::MAX).ok_or_else(bad)?;
                if self.accounts.contains_key(&AccountId(id)) {
                    return Err(bad());
                }
                self.accounts.insert(
                    AccountId(id),
                    Account {
                        owner,
                        balance: Credits::ZERO,
                        parent: parent.map(AccountId),
                        label,
                    },
                );
                self.next_account = self.next_account.max(next);
            }
            BankEvent::Mint { to, amount } => {
                if !amount.is_positive() {
                    return Err(bad());
                }
                let acct = self.accounts.get_mut(&AccountId(to)).ok_or_else(bad)?;
                acct.balance = acct.balance.checked_add(amount).ok_or_else(bad)?;
                self.minted = self.minted.checked_add(amount).ok_or_else(bad)?;
            }
            BankEvent::Transfer {
                id,
                from,
                to,
                amount,
                signature,
            } => {
                let msg = Receipt::message_bytes(id, AccountId(from), AccountId(to), amount);
                if !self.verifier.verify(&msg, &signature) {
                    return Err(RecoverError::SignatureMismatch { transfer_id: id });
                }
                let next = id.checked_add(1).ok_or_else(bad)?;
                let payer = self.accounts.get_mut(&AccountId(from)).ok_or_else(bad)?;
                payer.balance = payer.balance.checked_sub(amount).ok_or_else(bad)?;
                let payee = self.accounts.get_mut(&AccountId(to)).ok_or_else(bad)?;
                payee.balance = payee.balance.checked_add(amount).ok_or_else(bad)?;
                self.next_transfer = self.next_transfer.max(next);
            }
            BankEvent::TokenSpend { transfer_id } => {
                self.spent_tokens.insert(transfer_id);
            }
            BankEvent::RequestApplied { request_id } => {
                self.applied_requests.insert(request_id);
            }
        }
        Ok(())
    }

    /// Record that a transfer token (by receipt transfer id) was
    /// redeemed. Returns `false` if it was already spent. Durable: the
    /// spend is journaled, so it survives a [`Bank::recover`].
    pub fn record_token_spend(&mut self, transfer_id: u64) -> bool {
        if !self.spent_tokens.insert(transfer_id) {
            return false;
        }
        self.journal_event(&BankEvent::TokenSpend { transfer_id });
        true
    }

    /// True if this transfer id was already redeemed as a token.
    pub fn is_token_spent(&self, transfer_id: u64) -> bool {
        self.spent_tokens.contains(&transfer_id)
    }

    /// All redeemed transfer-token ids, sorted (for recovery audits).
    pub fn spent_token_ids(&self) -> Vec<u64> {
        self.spent_tokens.iter().copied().collect()
    }

    /// Record that the transfer for client request id `request_id` was
    /// applied. Returns `false` if it was already recorded. Durable: the
    /// entry is journaled, so exactly-once holds across a
    /// [`Bank::recover`] even after the service's volatile replay cache
    /// evicted the outcome.
    pub fn record_request_applied(&mut self, request_id: u64) -> bool {
        if !self.applied_requests.insert(request_id) {
            return false;
        }
        self.journal_event(&BankEvent::RequestApplied { request_id });
        true
    }

    /// True if a transfer with this client request id already executed.
    pub fn is_request_applied(&self, request_id: u64) -> bool {
        self.applied_requests.contains(&request_id)
    }

    /// All applied client transfer request ids, sorted.
    pub fn applied_request_ids(&self) -> Vec<u64> {
        self.applied_requests.iter().copied().collect()
    }

    /// The bank's receipt-verification key.
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public
    }

    /// The bank's receipt-verification key with its comb table, for
    /// verifying many receipts (the auditor's spot checks).
    pub fn verifying_key(&self) -> &PreparedKey {
        &self.verifier
    }

    /// Open a top-level account owned by `owner`.
    pub fn open_account(&mut self, owner: PublicKey, label: &str) -> AccountId {
        self.insert_account(owner, label, None)
    }

    /// Open a sub-account of `parent` (same or delegated owner) and move
    /// `fund` into it from the parent.
    pub fn open_sub_account(
        &mut self,
        parent: AccountId,
        owner: PublicKey,
        label: &str,
        fund: Credits,
    ) -> Result<(AccountId, Receipt), BankError> {
        if !self.accounts.contains_key(&parent) {
            return Err(BankError::NoSuchAccount(parent));
        }
        let sub = self.insert_account(owner, label, Some(parent));
        let receipt = self.transfer(parent, sub, fund)?;
        Ok((sub, receipt))
    }

    fn insert_account(&mut self, owner: PublicKey, label: &str, parent: Option<AccountId>) -> AccountId {
        let id = AccountId(self.next_account);
        self.next_account += 1;
        self.accounts.insert(
            id,
            Account {
                owner,
                balance: Credits::ZERO,
                parent,
                label: label.to_owned(),
            },
        );
        self.journal_event(&BankEvent::AccountOpen {
            id: id.0,
            owner,
            parent: parent.map(|p| p.0),
            label: label.to_owned(),
        });
        id
    }

    /// Simulation-only endowment faucet: create new money in `to`.
    pub fn mint(&mut self, to: AccountId, amount: Credits) -> Result<(), BankError> {
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount(amount));
        }
        let acct = self
            .accounts
            .get_mut(&to)
            .ok_or(BankError::NoSuchAccount(to))?;
        acct.balance += amount;
        self.minted += amount;
        self.journal_event(&BankEvent::Mint { to: to.0, amount });
        Ok(())
    }

    /// Balance of an account.
    pub fn balance(&self, id: AccountId) -> Result<Credits, BankError> {
        self.accounts
            .get(&id)
            .map(|a| a.balance)
            .ok_or(BankError::NoSuchAccount(id))
    }

    /// Owner key of an account.
    pub fn owner(&self, id: AccountId) -> Result<PublicKey, BankError> {
        self.accounts
            .get(&id)
            .map(|a| a.owner)
            .ok_or(BankError::NoSuchAccount(id))
    }

    /// Human label of an account.
    pub fn label(&self, id: AccountId) -> Result<&str, BankError> {
        self.accounts
            .get(&id)
            .map(|a| a.label.as_str())
            .ok_or(BankError::NoSuchAccount(id))
    }

    /// Move `amount` from `from` to `to`, returning a signed receipt.
    pub fn transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: Credits,
    ) -> Result<Receipt, BankError> {
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount(amount));
        }
        if !self.accounts.contains_key(&to) {
            return Err(BankError::NoSuchAccount(to));
        }
        {
            let src = self
                .accounts
                .get(&from)
                .ok_or(BankError::NoSuchAccount(from))?;
            if src.balance < amount {
                return Err(BankError::InsufficientFunds {
                    account: from,
                    balance: src.balance,
                    requested: amount,
                });
            }
        }
        self.accounts.get_mut(&from).expect("checked").balance -= amount;
        self.accounts.get_mut(&to).expect("checked").balance += amount;

        let transfer_id = self.next_transfer;
        self.next_transfer += 1;
        let msg = Receipt::message_bytes(transfer_id, from, to, amount);
        let signature = self.keypair.sign(&msg);
        self.journal_event(&BankEvent::Transfer {
            id: transfer_id,
            from: from.0,
            to: to.0,
            amount,
            signature,
        });
        Ok(Receipt {
            transfer_id,
            from,
            to,
            amount,
            signature,
        })
    }

    /// Verify that a receipt was signed by this bank and is internally
    /// consistent.
    pub fn verify_receipt(&self, r: &Receipt) -> bool {
        self.verifier.verify(&r.signed_bytes(), &r.signature)
    }

    /// Sum of all balances (should always equal total minted money).
    pub fn total_money(&self) -> Credits {
        self.accounts.values().map(|a| a.balance).sum()
    }

    /// Total money ever created by `mint`.
    pub fn total_minted(&self) -> Credits {
        self.minted
    }

    /// Number of accounts (diagnostics).
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }
}

/// Snapshot frames are checksummed, not authenticated, so recovery
/// refuses a decoded snapshot the live bank could never have written:
/// one whose balances would overflow the audit's sum, whose id counters
/// have no successor, or whose accounts a later `open_account` would
/// overwrite.
fn snapshot_is_consistent(snap: &BankSnapshot) -> bool {
    let balances = snap.accounts.iter().try_fold(Credits::ZERO, |sum, a| {
        if a.balance.is_negative() {
            return None;
        }
        sum.checked_add(a.balance)
    });
    balances.is_some()
        && !snap.minted.is_negative()
        && snap.next_account < u64::MAX
        && snap.next_transfer < u64::MAX
        && snap.accounts.iter().all(|a| a.id < snap.next_account)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipt_message_fills_its_reserved_capacity() {
        for amount in [Credits::ZERO, Credits::from_whole(1_000_000_000)] {
            let m = Receipt::message_bytes(u64::MAX, AccountId(3), AccountId(4), amount);
            assert_eq!(m.len(), 49);
            assert_eq!(m.len(), m.capacity());
        }
    }

    fn setup() -> (Bank, AccountId, AccountId) {
        let mut bank = Bank::new(b"test-bank");
        let alice = Keypair::from_seed(b"alice").public;
        let bob = Keypair::from_seed(b"bob").public;
        let a = bank.open_account(alice, "alice");
        let b = bank.open_account(bob, "bob");
        bank.mint(a, Credits::from_whole(1000)).unwrap();
        (bank, a, b)
    }

    #[test]
    fn transfer_moves_money_and_signs() {
        let (mut bank, a, b) = setup();
        let r = bank.transfer(a, b, Credits::from_whole(250)).unwrap();
        assert_eq!(bank.balance(a).unwrap(), Credits::from_whole(750));
        assert_eq!(bank.balance(b).unwrap(), Credits::from_whole(250));
        assert!(bank.verify_receipt(&r));
        assert_eq!(r.amount, Credits::from_whole(250));
    }

    #[test]
    fn insufficient_funds_rejected() {
        let (mut bank, a, b) = setup();
        let err = bank.transfer(a, b, Credits::from_whole(2000)).unwrap_err();
        match err {
            BankError::InsufficientFunds { account, .. } => assert_eq!(account, a),
            other => panic!("wrong error {other:?}"),
        }
        // No partial effects.
        assert_eq!(bank.balance(a).unwrap(), Credits::from_whole(1000));
        assert_eq!(bank.balance(b).unwrap(), Credits::ZERO);
    }

    #[test]
    fn zero_and_negative_transfers_rejected() {
        let (mut bank, a, b) = setup();
        assert!(matches!(
            bank.transfer(a, b, Credits::ZERO),
            Err(BankError::NonPositiveAmount(_))
        ));
        assert!(matches!(
            bank.transfer(a, b, Credits::from_whole(-5)),
            Err(BankError::NonPositiveAmount(_))
        ));
    }

    #[test]
    fn unknown_accounts_rejected() {
        let (mut bank, a, _) = setup();
        let ghost = AccountId(999);
        assert!(matches!(
            bank.transfer(a, ghost, Credits::from_whole(1)),
            Err(BankError::NoSuchAccount(_))
        ));
        assert!(matches!(
            bank.transfer(ghost, a, Credits::from_whole(1)),
            Err(BankError::NoSuchAccount(_))
        ));
        assert!(bank.balance(ghost).is_err());
    }

    #[test]
    fn money_is_conserved() {
        let (mut bank, a, b) = setup();
        for i in 1..=10 {
            bank.transfer(a, b, Credits::from_whole(i)).unwrap();
        }
        assert_eq!(bank.total_money(), Credits::from_whole(1000));
        assert_eq!(bank.total_money(), bank.total_minted());
    }

    #[test]
    fn receipt_ids_are_unique_and_monotone() {
        let (mut bank, a, b) = setup();
        let r1 = bank.transfer(a, b, Credits::from_whole(1)).unwrap();
        let r2 = bank.transfer(a, b, Credits::from_whole(1)).unwrap();
        assert!(r2.transfer_id > r1.transfer_id);
    }

    #[test]
    fn tampered_receipt_fails_verification() {
        let (mut bank, a, b) = setup();
        let mut r = bank.transfer(a, b, Credits::from_whole(10)).unwrap();
        r.amount = Credits::from_whole(10_000);
        assert!(!bank.verify_receipt(&r));
    }

    #[test]
    fn foreign_bank_receipt_fails() {
        let (mut bank, a, b) = setup();
        let r = bank.transfer(a, b, Credits::from_whole(10)).unwrap();
        let other = Bank::new(b"other-bank");
        assert!(!other.verify_receipt(&r));
    }

    #[test]
    fn sub_accounts_fund_from_parent() {
        let (mut bank, a, _) = setup();
        let broker_owner = bank.owner(a).unwrap();
        let (sub, receipt) = bank
            .open_sub_account(a, broker_owner, "job-42", Credits::from_whole(100))
            .unwrap();
        assert_eq!(bank.balance(sub).unwrap(), Credits::from_whole(100));
        assert_eq!(bank.balance(a).unwrap(), Credits::from_whole(900));
        assert_eq!(bank.accounts[&sub].parent, Some(a));
        assert!(bank.verify_receipt(&receipt));
        assert_eq!(bank.label(sub).unwrap(), "job-42");
    }

    #[test]
    fn sub_account_with_insufficient_parent_funds_fails() {
        let (mut bank, a, _) = setup();
        let owner = bank.owner(a).unwrap();
        let res = bank.open_sub_account(a, owner, "big", Credits::from_whole(5000));
        assert!(res.is_err());
    }

    #[test]
    fn mint_requires_positive_amount() {
        let (mut bank, a, _) = setup();
        assert!(bank.mint(a, Credits::ZERO).is_err());
    }

    /// A journaled bank with some history across all event kinds.
    fn journaled_setup() -> (Bank, SharedJournal, AccountId, AccountId) {
        let mut bank = Bank::new(b"wal-bank");
        let journal = SharedJournal::new();
        bank.attach_ledger(journal.clone());
        let alice = Keypair::from_seed(b"alice").public;
        let bob = Keypair::from_seed(b"bob").public;
        let a = bank.open_account(alice, "alice");
        let b = bank.open_account(bob, "bob");
        bank.mint(a, Credits::from_whole(1000)).unwrap();
        let r = bank.transfer(a, b, Credits::from_whole(250)).unwrap();
        bank.record_token_spend(r.transfer_id);
        let _sub = bank
            .open_sub_account(a, alice, "job-7", Credits::from_whole(40))
            .unwrap();
        (bank, journal, a, b)
    }

    #[test]
    fn recover_restores_state_byte_identically() {
        let (bank, journal, a, b) = journaled_setup();
        let (recovered, report) = Bank::recover(b"wal-bank", &journal).unwrap();
        assert_eq!(recovered.state_digest(), bank.state_digest());
        assert_eq!(recovered.balance(a).unwrap(), bank.balance(a).unwrap());
        assert_eq!(recovered.balance(b).unwrap(), bank.balance(b).unwrap());
        assert_eq!(recovered.spent_token_ids(), bank.spent_token_ids());
        assert_eq!(recovered.total_minted(), bank.total_minted());
        assert_eq!(recovered.total_money(), recovered.total_minted());
        assert!(report.snapshot_restored, "attach_ledger checkpointed");
        assert_eq!(report.records_replayed, journal.record_count());
        assert_eq!(report.torn_tail_bytes, 0);
        // The recovered bank continues the id sequences, not restarts them.
        let r1 = bank.snapshot();
        let r2 = recovered.snapshot();
        assert_eq!(r1.next_account, r2.next_account);
        assert_eq!(r1.next_transfer, r2.next_transfer);
    }

    #[test]
    fn recovered_bank_signs_identically_and_verifies_old_receipts() {
        let mut bank = Bank::new(b"sig-bank");
        let journal = SharedJournal::new();
        bank.attach_ledger(journal.clone());
        let alice = Keypair::from_seed(b"alice").public;
        let a = bank.open_account(alice, "alice");
        let b = bank.open_account(alice, "alice-2");
        bank.mint(a, Credits::from_whole(10)).unwrap();
        let receipt = bank.transfer(a, b, Credits::from_whole(3)).unwrap();
        let (recovered, _) = Bank::recover(b"sig-bank", &journal).unwrap();
        assert!(recovered.verify_receipt(&receipt), "old receipt survives");
        assert_eq!(recovered.public_key(), bank.public_key());
    }

    #[test]
    fn recover_with_wrong_seed_rejects_transfer_signatures() {
        let (_bank, journal, _, _) = journaled_setup();
        let err = match Bank::recover(b"not-the-seed", &journal) {
            Err(e) => e,
            Ok(_) => panic!("recovery with the wrong seed must fail"),
        };
        assert!(
            matches!(err, RecoverError::SignatureMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn kill_point_sweep_every_record_boundary_recovers_conserved() {
        let (bank, journal, _, _) = journaled_setup();
        let disk = journal.to_journal();
        let mut boundaries = vec![0usize];
        boundaries.extend_from_slice(disk.record_ends());
        for &cut in &boundaries {
            let torn = SharedJournal::from_journal(disk.crash_at(cut));
            let (recovered, report) =
                Bank::recover(b"wal-bank", &torn).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(recovered.total_money(), recovered.total_minted(), "cut {cut}");
            assert_eq!(report.torn_tail_bytes, 0, "cut {cut} is a boundary");
            assert_eq!(report.corrupt_records, 0);
        }
        // Full-length recovery is byte-identical to the live bank.
        let full = SharedJournal::from_journal(disk.crash_at(disk.wal_len()));
        let (recovered, _) = Bank::recover(b"wal-bank", &full).unwrap();
        assert_eq!(recovered.state_digest(), bank.state_digest());
    }

    #[test]
    fn kill_point_sweep_mid_record_truncates_torn_tail() {
        let (_bank, journal, _, _) = journaled_setup();
        let disk = journal.to_journal();
        // Every non-boundary byte offset: the torn tail is discarded and
        // the longest clean prefix recovers with conservation intact.
        let ends: std::collections::BTreeSet<usize> = disk.record_ends().iter().copied().collect();
        for cut in 1..disk.wal_len() {
            if ends.contains(&cut) {
                continue;
            }
            let torn = SharedJournal::from_journal(disk.crash_at(cut));
            let (recovered, report) =
                Bank::recover(b"wal-bank", &torn).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert!(report.torn_tail_bytes > 0, "cut {cut} tears a record");
            assert_eq!(recovered.total_money(), recovered.total_minted(), "cut {cut}");
        }
    }

    #[test]
    fn recovery_after_compaction_uses_snapshot_plus_tail() {
        let (mut bank, journal, a, b) = journaled_setup();
        bank.snapshot_now();
        assert_eq!(journal.record_count(), 0, "compaction cleared the WAL");
        bank.transfer(a, b, Credits::from_whole(5)).unwrap();
        let (recovered, report) = Bank::recover(b"wal-bank", &journal).unwrap();
        assert!(report.snapshot_restored);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered.state_digest(), bank.state_digest());
    }

    #[test]
    fn auto_snapshot_cadence_compacts_the_wal() {
        let mut bank = Bank::new(b"cadence");
        let journal = SharedJournal::new();
        bank.attach_ledger(journal.clone());
        bank.set_snapshot_every(4);
        let alice = Keypair::from_seed(b"alice").public;
        let a = bank.open_account(alice, "a");
        bank.mint(a, Credits::from_whole(100)).unwrap();
        let b = bank.open_account(alice, "b");
        for _ in 0..6 {
            bank.transfer(a, b, Credits::from_whole(1)).unwrap();
        }
        // 9 events with a cadence of 4 → at least two compactions, so the
        // WAL holds fewer events than were journaled.
        assert!(journal.record_count() < 9, "WAL was compacted");
        let (recovered, _) = Bank::recover(b"cadence", &journal).unwrap();
        assert_eq!(recovered.state_digest(), bank.state_digest());
    }

    #[test]
    fn token_spends_are_durable_and_idempotent() {
        let (mut bank, journal, _, _) = journaled_setup();
        assert!(!bank.record_token_spend(0), "already spent in setup");
        assert!(bank.is_token_spent(0));
        let (recovered, _) = Bank::recover(b"wal-bank", &journal).unwrap();
        assert!(recovered.is_token_spent(0), "spend survives recovery");
    }

    #[test]
    fn applied_request_ids_are_durable_and_idempotent() {
        let (mut bank, journal, _, _) = journaled_setup();
        assert!(bank.record_request_applied(7), "first recording succeeds");
        assert!(!bank.record_request_applied(7), "second is refused");
        assert!(bank.is_request_applied(7));
        assert!(!bank.is_request_applied(8));
        let (recovered, _) = Bank::recover(b"wal-bank", &journal).unwrap();
        assert!(recovered.is_request_applied(7), "survives recovery");
        assert_eq!(recovered.applied_request_ids(), vec![7]);
        assert_eq!(recovered.state_digest(), bank.state_digest());
    }

    #[test]
    fn recover_empty_journal_yields_fresh_bank() {
        let journal = SharedJournal::new();
        let (bank, report) = Bank::recover(b"fresh", &journal).unwrap();
        assert_eq!(bank.account_count(), 0);
        assert!(!report.snapshot_restored);
        assert_eq!(report.records_replayed, 0);
    }
}
