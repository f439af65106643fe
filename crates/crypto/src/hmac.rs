//! HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with its ipad and opad blocks already absorbed, so
/// each [`HmacKey::mac`] compresses only the message and the inner digest.
#[derive(Clone)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorb the padded `key` (hashed first when longer than a block).
    pub(crate) fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// `HMAC-SHA256(key, message)`.
    pub(crate) fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    /// RFC 2104 written out: `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))` over
    /// concatenated buffers, with no hasher state carried between calls.
    fn textbook_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut k = if key.len() > BLOCK {
            sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(BLOCK, 0);
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&sha256(&inner));
        sha256(&outer)
    }

    /// RFC 4231, Test Case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231, Test Case 2 (short key).
    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231, Test Case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231, Test Case 6 (key longer than block size).
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn prepared_key_matches_one_shot_mac() {
        // RFC 4231 cases 1, 2 and 6 through a key reused across messages.
        let rfc: [(&[u8], &[u8], &str); 3] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, msg, want) in rfc {
            let prepared = HmacKey::new(key);
            assert_eq!(
                hex(&prepared.mac(b"warm-up")),
                hex(&hmac_sha256(key, b"warm-up"))
            );
            assert_eq!(hex(&prepared.mac(msg)), want);
        }
        gm_des::check::check("prepared_key_matches_one_shot_mac", 128, |g| {
            let key = g.bytes(0, 200);
            let prepared = HmacKey::new(&key);
            for _ in 0..4 {
                let msg = g.bytes(0, 300);
                let want = textbook_hmac(&key, &msg);
                assert_eq!(prepared.mac(&msg), want);
                assert_eq!(hmac_sha256(&key, &msg), want);
            }
        });
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
