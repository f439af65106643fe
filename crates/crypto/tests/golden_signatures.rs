//! Golden Schnorr vectors: public keys and signatures for fixed seeds and
//! messages, recorded from the square-and-multiply implementation that
//! preceded the comb tables. The arithmetic is exact, so every table-driven
//! path must reproduce them byte for byte.

use gm_crypto::sha256::hex;
use gm_crypto::{Keypair, Signature};

/// A bank receipt body as `gm_tycoon::Receipt::message_bytes` encodes it.
fn receipt(id: u64, from: u64, to: u64, micros: i64) -> Vec<u8> {
    let mut m = b"tycoon-receipt-v1".to_vec();
    m.extend_from_slice(&id.to_be_bytes());
    m.extend_from_slice(&from.to_be_bytes());
    m.extend_from_slice(&to.to_be_bytes());
    m.extend_from_slice(&micros.to_be_bytes());
    m
}

fn messages() -> Vec<Vec<u8>> {
    vec![
        b"".to_vec(),
        b"abc".to_vec(),
        receipt(0, 1, 2, 1_000_000),
        receipt(141_000, 7, 3, 2_500_000_000),
        (0u8..=255).collect(),
    ]
}

/// `(key seed, public key, signature over each of messages())`.
const GOLDEN: [(&str, &str, [&str; 5]); 4] = [
    (
        "tycoon-bank",
        "66aeb6dbb52dc24e7af794bf5dd6d5da",
        [
            "5e37aa3f2d7c40ccda9251f837999c5e5e782fdcf8a616298294fdee7f12aebe",
            "25d8ada2f68424f7e14bcd4097d4f2296d026df78762aae6075239a8075f553b",
            "6141988336c2c63276287cb54cf3df91403a55b1e695b9d33aec52ed5c78d4d5",
            "3ffff41d398a5b7c0945ac8f990bb775504449c6271a35425b7c6f53fb0c9a5f",
            "62fb415d9a913857524b1192004253a7777eb5071312ff88b30b76acdf141d60",
        ],
    ),
    (
        "/O=Grid/OU=hpl/CN=alice",
        "2b4b89301f758b498926caaf74648a65",
        [
            "02923d8e1b67976c14b19f94d729705025878e0fc410b8f9a5775b5a53b4c4e2",
            "00ea52ea8cf8c2e297632ecd27a9f2256cfab8f167d0c79f813007ec1e3062be",
            "7b7f33b3ac91c605cfbbc97f7b5b9aee1850a379696dfaf51c07a68565158167",
            "017ec6b76cac1c601a40bbca8d142c234f33023c77a7658802c3d2a62e6616bb",
            "6e4cd5b9d02b102dae2275b1c9d8aa374fe9923cc4c1f1f474d8c4f06fe0c000",
        ],
    ),
    (
        "",
        "6a514b9ebd6af8e0c79afb2db557c925",
        [
            "5029429ed045a0820bd1afcac49363e11c6678fac723eeb95904c9ffb8a2f4af",
            "6d069c1cbcb45e12d6ca036994cc7d725077ac38e3b9f9dd43ace85e0e3768be",
            "6428c09c1fc8955568ff9ce6a054734b38e7f0fa09e04ec47d70f58d703e9c9d",
            "3d9a3976a0683b422383230b9aca8ab737eb2885be663212fbab9a4a2e57a2ec",
            "391239979abf395c8f7380ea10be558b6228c84e2ea9ff10f68166d5d583d2f6",
        ],
    ),
    (
        "golden-3",
        "07c3d391649534a57377a2eb53f4db64",
        [
            "5af7f1dca98f6928b9239d1d7d44c6eb39a0885d6363f8cbd6d5bcdab49ddda7",
            "49fddd8b8931d02977f0c073fe0ab9af23be3f646948f1d89a7680b5bf149227",
            "7a66f5cfe58da6cf7252b60e50857bfe2b9eddcffaa91116b5586c4dbc8c9a1e",
            "6ad000a2a1726f2956fd40128f3d00401e241a48cc3786f8cfeb0ef3a5cf924b",
            "3caa92f9f6aea3fbe3c285d1789b316c62813643604e6c3c82db1fa956526fab",
        ],
    ),
];

#[test]
fn signatures_match_the_recorded_vectors() {
    let msgs = messages();
    for (seed, public, sigs) in GOLDEN {
        let keys = Keypair::from_seed(seed.as_bytes());
        assert_eq!(
            hex(&keys.public.to_bytes()),
            public,
            "public key of {seed:?}"
        );
        let prepared = keys.public.prepare();
        for (i, (msg, want)) in msgs.iter().zip(sigs).enumerate() {
            let sig = keys.sign(msg);
            assert_eq!(
                hex(&sig.to_bytes()),
                want,
                "signature of {seed:?} over message {i}"
            );
            assert!(keys.public.verify(msg, &sig));
            assert!(prepared.verify(msg, &sig));
        }
    }
}

#[test]
fn recorded_signatures_verify_only_where_they_were_made() {
    let msgs = messages();
    let keys: Vec<_> = GOLDEN
        .iter()
        .map(|(seed, ..)| Keypair::from_seed(seed.as_bytes()).public)
        .map(|key| (key, key.prepare()))
        .collect();
    for (k, (_, _, sigs)) in GOLDEN.iter().enumerate() {
        for (i, sig_hex) in sigs.iter().enumerate() {
            let mut bytes = [0u8; 32];
            for (j, b) in bytes.iter_mut().enumerate() {
                *b = u8::from_str_radix(&sig_hex[2 * j..2 * j + 2], 16).unwrap();
            }
            let sig = Signature::from_bytes(&bytes).expect("recorded scalars are in range");
            for (kk, (key, prepared)) in keys.iter().enumerate() {
                for (ii, msg) in msgs.iter().enumerate() {
                    let expected = kk == k && ii == i;
                    assert_eq!(
                        key.verify(msg, &sig),
                        expected,
                        "key {kk} msg {ii} sig {k}/{i}"
                    );
                    assert_eq!(
                        prepared.verify(msg, &sig),
                        expected,
                        "key {kk} msg {ii} sig {k}/{i}"
                    );
                }
            }
        }
    }
}
