//! Schnorr signatures over `GF(2¹²⁷ − 1)` with deterministic nonces.
//!
//! Scheme (see the crate-level simulation-grade caveat):
//!
//! * keygen: secret `x ∈ Z_{p−1}`, public `y = g^x`.
//! * sign(m): `k = HMAC(x, m) mod (p−1)` (RFC 6979-flavoured), `r = g^k`,
//!   `e = H(r ‖ y ‖ m) mod (p−1)`, `s = k − e·x mod (p−1)`; signature `(e, s)`.
//! * verify: `r' = g^s·y^e`, accept iff `H(r' ‖ y ‖ m) ≡ e`.
//!
//! `g^k` and `g^s` go through the generator's comb table
//! ([`field::pow_g`]). A verifier that checks many signatures under one
//! key — the bank — holds a [`PreparedKey`] with a comb table of `y` as
//! well; [`PublicKey::verify`] computes `y^e` by square-and-multiply.
//!
//! Binding the public key into the challenge hash prevents trivial
//! cross-key signature replay, which matters for transfer tokens
//! (`gm-grid::token`).

use crate::field;
use crate::hmac::HmacKey;
use crate::sha256::{sha256, Sha256};

/// A secret signing key, with the HMAC key its nonces are derived under.
#[derive(Clone)]
pub struct SecretKey {
    x: u128,
    nonce_key: HmacKey,
}

impl PartialEq for SecretKey {
    fn eq(&self, other: &SecretKey) -> bool {
        self.x == other.x
    }
}

impl Eq for SecretKey {}

/// A public verification key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey {
    y: u128,
}

/// A public key with the 4-bit comb table of `y` (32 × 16 entries, 8 KiB,
/// about 512 multiplications to build) for fast repeated verification.
#[derive(Clone)]
pub struct PreparedKey {
    public: PublicKey,
    y_comb: field::Comb,
}

/// A signing/verification key pair.
#[derive(Clone)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    e: u128,
    s: u128,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

fn hash_to_scalar(parts: &[&[u8]]) -> u128 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    let digest = h.finalize();
    let mut b = [0u8; 16];
    b.copy_from_slice(&digest[..16]);
    u128::from_be_bytes(b) % field::GROUP_ORDER
}

impl Keypair {
    /// Derive a key pair deterministically from 32 bytes of seed material.
    pub fn from_seed(seed: &[u8]) -> Keypair {
        let digest = sha256(seed);
        let mut b = [0u8; 16];
        b.copy_from_slice(&digest[..16]);
        // Ensure a non-trivial secret.
        let x = (u128::from_be_bytes(b) % (field::GROUP_ORDER - 2)) + 1;
        let y = field::pow_g(x);
        Keypair {
            secret: SecretKey {
                x,
                nonce_key: HmacKey::new(&x.to_be_bytes()),
            },
            public: PublicKey { y },
        }
    }

    /// Sign a message with this key pair's secret key.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.secret.sign(message, &self.public)
    }
}

impl SecretKey {
    /// Sign `message`. `public` must be the matching public key (it is
    /// bound into the challenge).
    pub fn sign(&self, message: &[u8], public: &PublicKey) -> Signature {
        // Deterministic nonce from the secret key and message.
        let k_mac = self.nonce_key.mac(message);
        let mut kb = [0u8; 16];
        kb.copy_from_slice(&k_mac[..16]);
        let k = (u128::from_be_bytes(kb) % (field::GROUP_ORDER - 2)) + 1;

        let r = field::pow_g(k);
        let e = hash_to_scalar(&[&r.to_be_bytes(), &public.y.to_be_bytes(), message]);
        let s = field::scalar_sub(k, field::scalar_mul(e, self.x));
        Signature { e, s }
    }
}

impl PublicKey {
    /// Verify `sig` over `message` against this public key.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        verify_with(self.y, message, sig, |e| field::pow(self.y, e))
    }

    /// Build this key's comb table, for a verifier of many signatures.
    pub fn prepare(&self) -> PreparedKey {
        PreparedKey {
            public: *self,
            y_comb: field::Comb::new(self.y, 4),
        }
    }

    /// Serialize as 16 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 16] {
        self.y.to_be_bytes()
    }

    /// Deserialize from 16 big-endian bytes. Rejects non-canonical values.
    pub fn from_bytes(b: &[u8; 16]) -> Option<PublicKey> {
        let y = u128::from_be_bytes(*b);
        if y == 0 || y >= field::P {
            return None;
        }
        Some(PublicKey { y })
    }
}

impl PreparedKey {
    /// Verify `sig` over `message`; agrees with [`PublicKey::verify`].
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        verify_with(self.public.y, message, sig, |e| self.y_comb.pow(e))
    }
}

/// The verification equation shared by [`PublicKey::verify`] and
/// [`PreparedKey::verify`], which differ only in how they compute `y^e`.
fn verify_with(y: u128, message: &[u8], sig: &Signature, y_pow: impl FnOnce(u128) -> u128) -> bool {
    if sig.e >= field::GROUP_ORDER || sig.s >= field::GROUP_ORDER {
        return false;
    }
    let r = field::mul(field::pow_g(sig.s), y_pow(sig.e));
    let e = hash_to_scalar(&[&r.to_be_bytes(), &y.to_be_bytes(), message]);
    e == sig.e
}

impl Signature {
    /// Serialize as 32 bytes (`e ‖ s`, big-endian).
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.e.to_be_bytes());
        out[16..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Deserialize from 32 bytes. Rejects out-of-range scalars.
    pub fn from_bytes(b: &[u8; 32]) -> Option<Signature> {
        let mut eb = [0u8; 16];
        let mut sb = [0u8; 16];
        eb.copy_from_slice(&b[..16]);
        sb.copy_from_slice(&b[16..]);
        let e = u128::from_be_bytes(eb);
        let s = u128::from_be_bytes(sb);
        if e >= field::GROUP_ORDER || s >= field::GROUP_ORDER {
            return None;
        }
        Some(Signature { e, s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: &[u8]) -> Keypair {
        Keypair::from_seed(seed)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keys = kp(b"user-alpha");
        let sig = keys.sign(b"transfer 100 credits to broker");
        assert!(keys.public.verify(b"transfer 100 credits to broker", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let keys = kp(b"user-beta");
        let sig = keys.sign(b"amount=100");
        assert!(!keys.public.verify(b"amount=999", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let a = kp(b"alice");
        let b = kp(b"bob");
        let sig = a.sign(b"hello");
        assert!(!b.public.verify(b"hello", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let keys = kp(b"carol");
        let s1 = keys.sign(b"msg");
        let s2 = keys.sign(b"msg");
        assert_eq!(s1, s2);
        assert_ne!(s1, keys.sign(b"other"));
    }

    #[test]
    fn keygen_is_deterministic_and_seed_sensitive() {
        assert_eq!(kp(b"x").public, kp(b"x").public);
        assert_ne!(kp(b"x").public, kp(b"y").public);
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let keys = kp(b"dave");
        let sig = keys.sign(b"data");
        let back = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(sig, back);
        assert!(keys.public.verify(b"data", &back));
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let keys = kp(b"erin");
        let back = PublicKey::from_bytes(&keys.public.to_bytes()).unwrap();
        assert_eq!(keys.public, back);
    }

    #[test]
    fn public_key_rejects_invalid_encoding() {
        assert!(PublicKey::from_bytes(&[0u8; 16]).is_none());
        assert!(PublicKey::from_bytes(&[0xffu8; 16]).is_none());
    }

    #[test]
    fn signature_rejects_out_of_range_scalars() {
        let mut b = [0xffu8; 32];
        assert!(Signature::from_bytes(&b).is_none());
        b = [0u8; 32];
        assert!(Signature::from_bytes(&b).is_some());
    }

    #[test]
    fn corrupted_signature_rejected() {
        let keys = kp(b"frank");
        let sig = keys.sign(b"payload");
        let mut bytes = sig.to_bytes();
        bytes[20] ^= 0x01;
        if let Some(bad) = Signature::from_bytes(&bytes) {
            assert!(!keys.public.verify(b"payload", &bad));
        }
    }

    #[test]
    fn cross_key_replay_fails() {
        // The same (e,s) pair must not verify under a different public key,
        // because the public key is bound into the challenge.
        let a = kp(b"payer-a");
        let b = kp(b"payer-b");
        let msg = b"token #42: 500 credits";
        let sig = a.sign(msg);
        assert!(a.public.verify(msg, &sig));
        assert!(!b.public.verify(msg, &sig));
    }

    #[test]
    fn empty_message_signs() {
        let keys = kp(b"henry");
        let sig = keys.sign(b"");
        assert!(keys.public.verify(b"", &sig));
        assert!(!keys.public.verify(b"x", &sig));
    }

    #[test]
    fn prepared_key_agrees_with_public_key() {
        gm_des::check::check("prepared_key_agrees_with_public_key", 64, |g| {
            let seed = g.bytes(0, 40);
            let a = kp(&seed);
            let b = kp(&[seed.as_slice(), b"'"].concat());
            let prepared = a.public.prepare();
            let msg = g.bytes(0, 120);
            let sig = a.sign(&msg);
            let mut tampered_msg = msg.clone();
            tampered_msg.push(g.u64() as u8);
            let mut bytes = sig.to_bytes();
            bytes[g.usize_in(0, 31)] ^= 1 << g.usize_in(0, 7);
            let mut cases = vec![
                (msg.clone(), sig),
                (tampered_msg, sig),
                (msg.clone(), b.sign(&msg)),
                (
                    msg.clone(),
                    Signature {
                        e: field::GROUP_ORDER,
                        s: sig.s,
                    },
                ),
                (
                    msg.clone(),
                    Signature {
                        e: sig.e,
                        s: field::GROUP_ORDER,
                    },
                ),
                (
                    msg.clone(),
                    Signature {
                        e: u128::MAX,
                        s: u128::MAX,
                    },
                ),
            ];
            if let Some(flipped) = Signature::from_bytes(&bytes) {
                cases.push((msg.clone(), flipped));
            }
            for (i, (m, s)) in cases.iter().enumerate() {
                assert_eq!(prepared.verify(m, s), a.public.verify(m, s), "case {i}");
                assert_eq!(prepared.verify(m, s), i == 0, "case {i}");
            }
        });
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let keys = kp(b"ivy");
        let dbg = format!("{:?}", keys.secret);
        assert!(dbg.contains("redacted"));
    }
}
