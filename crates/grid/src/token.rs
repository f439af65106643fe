//! Transfer tokens: capability-based authorization from money transfers
//! (§3.1).
//!
//! Flow per the paper: "The user transfers money to the resource broker's
//! bank account and then signs the receipt together with a Grid DN. …
//! On the resource side it is verified that the money transfer was indeed
//! made into the broker account and that the transfer token has not been
//! used before. The signature of the DN mapping is also verified to make
//! sure that no middleman has added a fake mapping."
//!
//! A [`TransferToken`] therefore carries: the bank-signed [`Receipt`], the
//! DN the capability is bound to, the payer's public key, and the payer's
//! signature over `receipt ‖ DN`. The double-spend check is the bank's
//! journaled spent-token set (`Bank::record_token_spend`).

use std::fmt;

use gm_crypto::{PublicKey, Signature};
use gm_tycoon::{AccountId, Bank, Credits, Receipt};

use crate::identity::GridIdentity;

/// A check-like capability: proof of payment bound to a Grid identity.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferToken {
    /// The bank-signed transfer receipt (user → broker).
    pub receipt: Receipt,
    /// The Grid DN entitled to spend this token.
    pub dn: String,
    /// The payer's public key (must own the debited account).
    pub payer: PublicKey,
    /// Payer's signature over `receipt ‖ DN`.
    pub binding: Signature,
}

/// Why a token was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenError {
    /// The bank does not recognize the receipt signature.
    BadReceipt,
    /// The receipt does not credit the expected broker account.
    WrongBroker {
        /// Account the receipt pays into.
        actual: AccountId,
        /// The broker account that was expected.
        expected: AccountId,
    },
    /// The payer key does not own the debited account.
    PayerMismatch,
    /// The DN binding signature is invalid (fake mapping).
    BadBinding,
    /// The token was already redeemed.
    AlreadySpent(u64),
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenError::BadReceipt => write!(f, "receipt signature invalid"),
            TokenError::WrongBroker { actual, expected } => {
                write!(f, "receipt pays {actual}, expected broker {expected}")
            }
            TokenError::PayerMismatch => write!(f, "payer key does not own source account"),
            TokenError::BadBinding => write!(f, "DN binding signature invalid"),
            TokenError::AlreadySpent(id) => write!(f, "transfer {id} already redeemed"),
        }
    }
}

impl std::error::Error for TokenError {}

impl TransferToken {
    /// The bytes the payer signs: the receipt body plus the DN.
    pub fn binding_bytes(receipt: &Receipt, dn: &str) -> Vec<u8> {
        let mut m = receipt.signed_bytes();
        m.extend_from_slice(b"|dn=");
        m.extend_from_slice(dn.as_bytes());
        m
    }

    /// Create a token: the payer `identity` binds the `receipt` to a DN
    /// (usually its own; "gift certificates" bind someone else's — §7).
    pub fn create(identity: &GridIdentity, receipt: Receipt, dn: &str) -> TransferToken {
        let binding = identity.sign(&Self::binding_bytes(&receipt, dn));
        TransferToken {
            receipt,
            dn: dn.to_owned(),
            payer: identity.public_key(),
            binding,
        }
    }

    /// Token amount.
    pub fn amount(&self) -> Credits {
        self.receipt.amount
    }

    /// Unique transfer id (the double-spend key).
    pub fn transfer_id(&self) -> u64 {
        self.receipt.transfer_id
    }

    /// Full verification against `bank` and the broker account, without
    /// consuming the token (the bank's spent set does consumption).
    pub fn verify(&self, bank: &Bank, broker_account: AccountId) -> Result<(), TokenError> {
        if !bank.verify_receipt(&self.receipt) {
            return Err(TokenError::BadReceipt);
        }
        if self.receipt.to != broker_account {
            return Err(TokenError::WrongBroker {
                actual: self.receipt.to,
                expected: broker_account,
            });
        }
        match bank.owner(self.receipt.from) {
            Ok(owner) if owner == self.payer => {}
            _ => return Err(TokenError::PayerMismatch),
        }
        let msg = Self::binding_bytes(&self.receipt, &self.dn);
        if !self.payer.verify(&msg, &self.binding) {
            return Err(TokenError::BadBinding);
        }
        Ok(())
    }

    /// Serialize to a hex string for embedding in xRSL
    /// (`(transferToken="…")`).
    pub fn to_hex(&self) -> String {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&self.receipt.transfer_id.to_be_bytes());
        bytes.extend_from_slice(&self.receipt.from.0.to_be_bytes());
        bytes.extend_from_slice(&self.receipt.to.0.to_be_bytes());
        bytes.extend_from_slice(&self.receipt.amount.as_micros().to_be_bytes());
        bytes.extend_from_slice(&self.receipt.signature.to_bytes());
        bytes.extend_from_slice(&self.payer.to_bytes());
        bytes.extend_from_slice(&self.binding.to_bytes());
        let dn_bytes = self.dn.as_bytes();
        bytes.extend_from_slice(&(dn_bytes.len() as u32).to_be_bytes());
        bytes.extend_from_slice(dn_bytes);
        hex_encode(&bytes)
    }

    /// Parse back from hex. Returns `None` on any structural problem
    /// (cryptographic validity is checked separately by [`Self::verify`]).
    pub fn from_hex(s: &str) -> Option<TransferToken> {
        let bytes = hex_decode(s)?;
        // fixed part: 8+8+8+8 + 32 + 16 + 32 + 4 = 116 bytes
        if bytes.len() < 116 {
            return None;
        }
        struct Cursor<'a> {
            bytes: &'a [u8],
            off: usize,
        }
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                let s = self.bytes.get(self.off..self.off + n)?;
                self.off += n;
                Some(s)
            }
        }
        let mut c = Cursor {
            bytes: &bytes,
            off: 0,
        };
        let transfer_id = u64::from_be_bytes(c.take(8)?.try_into().ok()?);
        let from = AccountId(u64::from_be_bytes(c.take(8)?.try_into().ok()?));
        let to = AccountId(u64::from_be_bytes(c.take(8)?.try_into().ok()?));
        let amount = Credits::from_micros(i64::from_be_bytes(c.take(8)?.try_into().ok()?));
        let receipt_sig = Signature::from_bytes(c.take(32)?.try_into().ok()?)?;
        let payer = PublicKey::from_bytes(c.take(16)?.try_into().ok()?)?;
        let binding = Signature::from_bytes(c.take(32)?.try_into().ok()?)?;
        let dn_len = u32::from_be_bytes(c.take(4)?.try_into().ok()?) as usize;
        let dn_bytes = c.take(dn_len)?;
        if c.off != bytes.len() {
            return None;
        }
        let dn = String::from_utf8(dn_bytes.to_vec()).ok()?;
        Some(TransferToken {
            receipt: Receipt {
                transfer_id,
                from,
                to,
                amount,
                signature: receipt_sig,
            },
            dn,
            payer,
            binding,
        })
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        bank: Bank,
        user: GridIdentity,
        user_acct: AccountId,
        broker_acct: AccountId,
    }

    fn world() -> World {
        let mut bank = Bank::new(b"bank");
        let user = GridIdentity::swegrid_user(1);
        let broker = GridIdentity::from_dn("/O=Grid/CN=broker");
        let user_acct = bank.open_account(user.public_key(), "user1");
        let broker_acct = bank.open_account(broker.public_key(), "broker");
        bank.mint(user_acct, Credits::from_whole(1000)).unwrap();
        World {
            bank,
            user,
            user_acct,
            broker_acct,
        }
    }

    fn make_token(w: &mut World, amount: i64) -> TransferToken {
        let receipt = w
            .bank
            .transfer(w.user_acct, w.broker_acct, Credits::from_whole(amount))
            .unwrap();
        TransferToken::create(&w.user, receipt, w.user.dn())
    }

    #[test]
    fn valid_token_verifies() {
        let mut w = world();
        let t = make_token(&mut w, 100);
        assert!(t.verify(&w.bank, w.broker_acct).is_ok());
        assert_eq!(t.amount(), Credits::from_whole(100));
    }

    #[test]
    fn wrong_broker_account_rejected() {
        let mut w = world();
        let t = make_token(&mut w, 100);
        let other = w
            .bank
            .open_account(GridIdentity::from_dn("/O=Grid/CN=other").public_key(), "other");
        assert!(matches!(
            t.verify(&w.bank, other),
            Err(TokenError::WrongBroker { .. })
        ));
    }

    #[test]
    fn fake_dn_mapping_rejected() {
        // A middleman swaps the DN: binding signature no longer verifies.
        let mut w = world();
        let mut t = make_token(&mut w, 100);
        t.dn = "/O=Grid/CN=mallory".to_owned();
        assert_eq!(t.verify(&w.bank, w.broker_acct), Err(TokenError::BadBinding));
    }

    #[test]
    fn gift_certificate_binds_someone_elses_dn() {
        // §7: "give out 'gift certificates' … to users without a Tycoon
        // client". The payer signs a binding for another user's DN.
        let mut w = world();
        let receipt = w
            .bank
            .transfer(w.user_acct, w.broker_acct, Credits::from_whole(25))
            .unwrap();
        let guest_dn = "/O=Grid/CN=guest";
        let t = TransferToken::create(&w.user, receipt, guest_dn);
        assert!(t.verify(&w.bank, w.broker_acct).is_ok());
        assert_eq!(t.dn, guest_dn);
    }

    #[test]
    fn forged_amount_rejected() {
        let mut w = world();
        let mut t = make_token(&mut w, 10);
        t.receipt.amount = Credits::from_whole(10_000);
        assert_eq!(t.verify(&w.bank, w.broker_acct), Err(TokenError::BadReceipt));
    }

    #[test]
    fn payer_key_must_own_source_account() {
        let mut w = world();
        let t = make_token(&mut w, 10);
        let mallory = GridIdentity::from_dn("/O=Grid/CN=mallory");
        // Mallory replays the receipt with her own binding.
        let forged = TransferToken::create(&mallory, t.receipt.clone(), mallory.dn());
        assert_eq!(
            forged.verify(&w.bank, w.broker_acct),
            Err(TokenError::PayerMismatch)
        );
    }

    #[test]
    fn hex_round_trip() {
        let mut w = world();
        let t = make_token(&mut w, 123);
        let hex = t.to_hex();
        let back = TransferToken::from_hex(&hex).unwrap();
        assert_eq!(t, back);
        assert!(back.verify(&w.bank, w.broker_acct).is_ok());
    }

    #[test]
    fn hex_decode_rejects_garbage() {
        assert!(TransferToken::from_hex("zz").is_none());
        assert!(TransferToken::from_hex("0a").is_none(), "too short");
        assert!(TransferToken::from_hex("0a0").is_none(), "odd length");
        let mut w = world();
        let hex = make_token(&mut w, 5).to_hex();
        assert!(TransferToken::from_hex(&hex[..hex.len() - 2]).is_none(), "truncated");
        let padded = format!("{hex}00");
        assert!(TransferToken::from_hex(&padded).is_none(), "trailing bytes");
    }

    // ---------------------------------------- malformed-input hardening
    //
    // Property tests (gm_des::check, seeded, replayable): from_hex must
    // return None on every malformed input — truncated, non-hex,
    // oversized, bit-flipped — and never panic; bit flips that still
    // decode structurally must fail `verify`.

    #[test]
    fn prop_arbitrary_strings_never_panic_from_hex() {
        use gm_des::check::{check, Gen};
        check("token_from_hex_arbitrary_ascii", 256, |g: &mut Gen| {
            let s = g.ascii_string(0, 300);
            let _ = TransferToken::from_hex(&s); // must not panic
        });
    }

    #[test]
    fn prop_arbitrary_bytes_as_hex_never_panic() {
        use gm_des::check::{check, Gen};
        check("token_from_hex_arbitrary_bytes", 256, |g: &mut Gen| {
            let bytes = g.bytes(0, 260);
            let hex = hex_encode(&bytes);
            if let Some(token) = TransferToken::from_hex(&hex) {
                // Structurally valid by chance: must round-trip to the
                // exact same canonical encoding.
                assert_eq!(token.to_hex(), hex);
            }
        });
    }

    #[test]
    fn prop_truncation_at_every_even_cut_returns_none() {
        use gm_des::check::{check, Gen};
        let mut w = world();
        check("token_truncation_is_none", 32, |g: &mut Gen| {
            let amount = g.i64_in(1, 500);
            w.bank.mint(w.user_acct, Credits::from_whole(amount)).unwrap();
            let t = make_token(&mut w, amount);
            let hex = t.to_hex();
            let cut = g.usize_in(0, hex.len() / 2 - 1) * 2;
            assert!(
                TransferToken::from_hex(&hex[..cut]).is_none(),
                "truncated token parsed at cut {cut}"
            );
        });
    }

    #[test]
    fn prop_flipped_bits_never_yield_a_verifying_token() {
        use gm_des::check::{check, Gen};
        let mut w = world();
        let broker = w.broker_acct;
        check("token_bitflip_rejected", 128, |g: &mut Gen| {
            let amount = g.i64_in(1, 100);
            w.bank.mint(w.user_acct, Credits::from_whole(amount)).unwrap();
            let t = make_token(&mut w, amount);
            let hex = t.to_hex();
            let mut bytes = hex_decode(&hex).unwrap();
            let idx = g.usize_in(0, bytes.len() - 1);
            let bit = 1u8 << g.usize_in(0, 7);
            bytes[idx] ^= bit;
            let flipped = hex_encode(&bytes);
            match TransferToken::from_hex(&flipped) {
                // Structural damage: rejected outright.
                None => {}
                // Still parses: the cryptographic checks must catch it.
                Some(parsed) => {
                    assert_ne!(parsed, t, "flip changed nothing");
                    assert!(
                        parsed.verify(&w.bank, broker).is_err(),
                        "bit-flipped token verified (byte {idx}, bit {bit:#x})"
                    );
                }
            }
        });
    }

    #[test]
    fn prop_oversized_dn_length_returns_none() {
        use gm_des::check::{check, Gen};
        let mut w = world();
        check("token_oversized_dn_len", 64, |g: &mut Gen| {
            w.bank.mint(w.user_acct, Credits::from_whole(5)).unwrap();
            let t = make_token(&mut w, 5);
            let mut bytes = hex_decode(&t.to_hex()).unwrap();
            // Overwrite the dn_len field (offset 112..116) with a length
            // larger than the remaining payload.
            let huge = (g.u64_in(bytes.len() as u64, u32::MAX as u64) & 0xffff_ffff) as u32;
            bytes[112..116].copy_from_slice(&huge.to_be_bytes());
            assert!(
                TransferToken::from_hex(&hex_encode(&bytes)).is_none(),
                "oversized dn_len {huge} parsed"
            );
        });
    }
}
