//! # gm-ledger — durable write-ahead logging for the economy
//!
//! An ARIES-flavoured durability layer (`DESIGN.md` §11): state-changing
//! events are appended to a write-ahead log *before* their effects are
//! considered durable, and the log is periodically folded into a compacted
//! snapshot. Recovery replays `snapshot + WAL`, truncating a torn tail
//! (a crash mid-append) and rejecting records whose checksum does not
//! match (bit rot / partial overwrite).
//!
//! ## Record framing
//!
//! Every record — snapshot and WAL alike — is framed as
//!
//! ```text
//! [len: u32 BE] [sha256(payload): 32 bytes] [payload: len bytes]
//! ```
//!
//! The checksum covers the payload only; the length header is implicitly
//! validated by the checksum (a corrupted length either lands on a torn
//! tail or produces a payload whose digest cannot match).
//!
//! The crate knows nothing about banks or credits: payloads are opaque
//! byte strings. `gm-tycoon` layers the bank-event codec on top.

use std::fmt;
use std::sync::{Arc, Mutex};

use gm_crypto::sha256;

/// Bytes of framing overhead per record (length header + SHA-256 digest).
pub const RECORD_HEADER_BYTES: usize = 4 + 32;

/// Why a journal could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The snapshot record failed its checksum — there is no consistent
    /// base state to recover from.
    CorruptSnapshot,
    /// The snapshot record is truncated (torn snapshot write).
    TornSnapshot,
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::CorruptSnapshot => write!(f, "snapshot checksum mismatch"),
            LedgerError::TornSnapshot => write!(f, "snapshot record truncated"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// The outcome of replaying a journal: the snapshot payload (if any), the
/// WAL record payloads that survived validation, and what was discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Decoded snapshot payload; `None` when no snapshot was ever taken.
    pub snapshot: Option<Vec<u8>>,
    /// Validated WAL record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded from a torn tail (an append the crash cut short).
    pub torn_tail_bytes: usize,
    /// Records rejected on checksum mismatch. Replay stops at the first
    /// corrupt record: everything after it is untrusted.
    pub corrupt_records: usize,
}

/// An append-only journal: one compacted snapshot plus a write-ahead log,
/// both as framed byte buffers held in memory: the simulated disk that
/// [`Journal::crash_at`] cuts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// The framed snapshot record (empty = no snapshot).
    snapshot: Vec<u8>,
    /// Concatenated framed WAL records.
    wal: Vec<u8>,
    /// Byte offset of the end of each complete WAL record, in order.
    record_ends: Vec<usize>,
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&sha256(payload));
    out.extend_from_slice(payload);
    out
}

/// Parse one framed record at `buf[off..]`. Returns
/// `Ok(Some((payload, next_off)))` for a valid record, `Ok(None)` for a
/// torn tail (not enough bytes for the claimed record), and `Err(())` for
/// a complete record whose checksum does not match.
#[allow(clippy::type_complexity)]
fn parse_record(buf: &[u8], off: usize) -> Result<Option<(&[u8], usize)>, ()> {
    let Some(header) = buf.get(off..off + 4) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(header.try_into().expect("4 bytes")) as usize;
    let body_start = off + RECORD_HEADER_BYTES;
    let Some(digest) = buf.get(off + 4..body_start) else {
        return Ok(None);
    };
    let Some(payload) = buf.get(body_start..body_start + len) else {
        return Ok(None);
    };
    if sha256(payload) != digest {
        return Err(());
    }
    Ok(Some((payload, body_start + len)))
}

impl Journal {
    /// Empty journal: no snapshot, no WAL.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Rebuild a journal from raw snapshot and WAL byte buffers (such as
    /// [`Journal::snapshot_bytes`] and a cut or crafted WAL). The buffers
    /// are taken verbatim — torn or corrupt content is diagnosed at
    /// [`Journal::replay`] time, exactly like a post-crash disk image.
    pub fn from_parts(snapshot: Vec<u8>, wal: Vec<u8>) -> Journal {
        let mut record_ends = Vec::new();
        let mut off = 0usize;
        while let Ok(Some((_, next))) = parse_record(&wal, off) {
            record_ends.push(next);
            off = next;
        }
        Journal {
            snapshot,
            wal,
            record_ends,
        }
    }

    /// Append one payload as a framed WAL record; returns the WAL byte
    /// offset just past the new record (a valid kill point).
    pub fn append(&mut self, payload: &[u8]) -> usize {
        self.wal.extend_from_slice(&frame(payload));
        self.record_ends.push(self.wal.len());
        self.wal.len()
    }

    /// Replace the snapshot with `payload` and clear the WAL: everything
    /// the log said is now folded into the snapshot (checkpointing).
    pub fn compact(&mut self, payload: &[u8]) {
        self.snapshot = frame(payload);
        self.wal.clear();
        self.record_ends.clear();
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Number of complete records currently in the WAL.
    pub fn record_count(&self) -> usize {
        self.record_ends.len()
    }

    /// Byte offset of the end of each complete WAL record, in append
    /// order — the kill points a crash sweep iterates over (offset 0, the
    /// empty prefix, is implicitly also a valid kill point).
    pub fn record_ends(&self) -> &[usize] {
        &self.record_ends
    }

    /// Raw framed snapshot bytes (empty when no snapshot exists).
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot
    }

    /// A copy of this journal as a crash at WAL byte offset `wal_bytes`
    /// would leave it on disk: the snapshot survives (snapshots are
    /// written atomically via rename), the WAL is cut at an arbitrary
    /// byte — mid-record cuts produce a torn tail for recovery to
    /// truncate.
    pub fn crash_at(&self, wal_bytes: usize) -> Journal {
        let cut = wal_bytes.min(self.wal.len());
        Journal::from_parts(self.snapshot.clone(), self.wal[..cut].to_vec())
    }

    /// Validate and decode the journal. Torn tails are truncated
    /// (silently — an interrupted append never became durable); a
    /// mid-log checksum mismatch stops replay at the corrupt record. Only
    /// a corrupt or torn *snapshot* is unrecoverable.
    pub fn replay(&self) -> Result<Replay, LedgerError> {
        let snapshot = if self.snapshot.is_empty() {
            None
        } else {
            match parse_record(&self.snapshot, 0) {
                Ok(Some((payload, _))) => Some(payload.to_vec()),
                Ok(None) => return Err(LedgerError::TornSnapshot),
                Err(()) => return Err(LedgerError::CorruptSnapshot),
            }
        };
        let mut records = Vec::new();
        let mut off = 0usize;
        let mut corrupt_records = 0usize;
        let torn_tail_bytes;
        loop {
            match parse_record(&self.wal, off) {
                Ok(Some((payload, next))) => {
                    records.push(payload.to_vec());
                    off = next;
                }
                Ok(None) => {
                    torn_tail_bytes = self.wal.len() - off;
                    break;
                }
                Err(()) => {
                    // Everything from the corrupt record on is untrusted.
                    corrupt_records = 1;
                    torn_tail_bytes = 0;
                    break;
                }
            }
        }
        Ok(Replay {
            snapshot,
            records,
            torn_tail_bytes,
            corrupt_records,
        })
    }
}

/// A cheaply clonable, thread-safe handle to one [`Journal`]: the bank
/// appends through it while tests, auditors and recovery keep their own
/// handles to the same log (and the live bank service thread shares it
/// with the spawner — that sharing is exactly what makes a killed service
/// recoverable).
#[derive(Debug, Clone, Default)]
pub struct SharedJournal {
    inner: Arc<Mutex<Journal>>,
}

impl SharedJournal {
    /// A fresh, empty in-memory journal.
    pub fn new() -> SharedJournal {
        SharedJournal::default()
    }

    /// Wrap an existing journal (e.g. a crash image from
    /// [`Journal::crash_at`]).
    pub fn from_journal(journal: Journal) -> SharedJournal {
        SharedJournal {
            inner: Arc::new(Mutex::new(journal)),
        }
    }

    /// Append one payload; returns the WAL byte offset past the record.
    pub fn append(&self, payload: &[u8]) -> usize {
        self.inner.lock().expect("journal lock").append(payload)
    }

    /// Replace the snapshot and clear the WAL (checkpoint).
    pub fn compact(&self, payload: &[u8]) {
        self.inner.lock().expect("journal lock").compact(payload)
    }

    /// Validate and decode the current journal contents.
    pub fn replay(&self) -> Result<Replay, LedgerError> {
        self.inner.lock().expect("journal lock").replay()
    }

    /// Number of complete WAL records.
    pub fn record_count(&self) -> usize {
        self.inner.lock().expect("journal lock").record_count()
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> usize {
        self.inner.lock().expect("journal lock").wal_len()
    }

    /// A deep copy of the underlying journal (for crash sweeps: the copy
    /// is the "disk image", unaffected by further appends).
    pub fn to_journal(&self) -> Journal {
        self.inner.lock().expect("journal lock").clone()
    }

    /// See [`Journal::crash_at`].
    pub fn crash_at(&self, wal_bytes: usize) -> Journal {
        self.inner.lock().expect("journal lock").crash_at(wal_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(journal: &Journal) -> Vec<Vec<u8>> {
        journal.replay().unwrap().records
    }

    #[test]
    fn append_replay_round_trips() {
        let mut j = Journal::new();
        j.append(b"one");
        j.append(b"");
        j.append(&[0xff; 300]);
        let r = j.replay().unwrap();
        assert_eq!(r.snapshot, None);
        assert_eq!(r.records, vec![b"one".to_vec(), Vec::new(), vec![0xff; 300]]);
        assert_eq!(r.torn_tail_bytes, 0);
        assert_eq!(r.corrupt_records, 0);
        assert_eq!(j.record_count(), 3);
    }

    #[test]
    fn compact_folds_wal_into_snapshot() {
        let mut j = Journal::new();
        j.append(b"a");
        j.append(b"b");
        j.compact(b"state-ab");
        assert_eq!(j.wal_len(), 0);
        j.append(b"c");
        let r = j.replay().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"state-ab"[..]));
        assert_eq!(r.records, vec![b"c".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut j = Journal::new();
        j.append(b"kept");
        let boundary = j.append(b"torn-away");
        for cut in boundary - RECORD_HEADER_BYTES - 5..boundary {
            let torn = j.crash_at(cut);
            let r = torn.replay().unwrap();
            assert_eq!(r.records, vec![b"kept".to_vec()], "cut at {cut}");
            assert_eq!(r.torn_tail_bytes, cut - j.record_ends()[0]);
            assert_eq!(r.corrupt_records, 0);
        }
    }

    #[test]
    fn every_record_boundary_is_a_clean_kill_point() {
        let mut j = Journal::new();
        for i in 0..20u8 {
            j.append(&[i; 9]);
        }
        let mut prev = 0usize;
        for (idx, &end) in j.record_ends().iter().enumerate() {
            let r = j.crash_at(end).replay().unwrap();
            assert_eq!(r.records.len(), idx + 1);
            assert_eq!(r.torn_tail_bytes, 0);
            assert!(end > prev);
            prev = end;
        }
        // Offset 0 — crash before the first append — is also clean.
        assert!(payloads(&j.crash_at(0)).is_empty());
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let mut j = Journal::new();
        j.append(b"good");
        j.append(b"evil");
        j.append(b"after");
        let mut wal = j.wal.clone();
        // Flip one payload byte of the middle record.
        let off = j.record_ends()[0] + RECORD_HEADER_BYTES;
        wal[off] ^= 0x40;
        let tampered = Journal::from_parts(j.snapshot_bytes().to_vec(), wal);
        let r = tampered.replay().unwrap();
        assert_eq!(r.records, vec![b"good".to_vec()], "replay stops at corruption");
        assert_eq!(r.corrupt_records, 1);
    }

    #[test]
    fn corrupt_snapshot_is_unrecoverable() {
        let mut j = Journal::new();
        j.compact(b"base");
        let mut snap = j.snapshot_bytes().to_vec();
        *snap.last_mut().unwrap() ^= 1;
        let bad = Journal::from_parts(snap, Vec::new());
        assert_eq!(bad.replay(), Err(LedgerError::CorruptSnapshot));
        let torn = Journal::from_parts(j.snapshot_bytes()[..10].to_vec(), Vec::new());
        assert_eq!(torn.replay(), Err(LedgerError::TornSnapshot));
    }

    #[test]
    fn from_parts_reindexes_record_ends() {
        let mut j = Journal::new();
        j.append(b"x");
        j.append(b"yy");
        let rebuilt = Journal::from_parts(j.snapshot_bytes().to_vec(), j.wal.clone());
        assert_eq!(rebuilt.record_ends(), j.record_ends());
        assert_eq!(rebuilt, j);
    }

    #[test]
    fn shared_handle_sees_appends_from_clones() {
        let a = SharedJournal::new();
        let b = a.clone();
        a.append(b"from-a");
        b.append(b"from-b");
        assert_eq!(a.record_count(), 2);
        let r = b.replay().unwrap();
        assert_eq!(r.records.len(), 2);
    }
}
