//! Arithmetic in the Mersenne prime field `GF(p)`, `p = 2¹²⁷ − 1`, and in
//! the exponent ring `Z_{p−1}`.
//!
//! `p = 2¹²⁷ − 1` is the Mersenne prime M127, which makes modular reduction
//! a fold: `2¹²⁷ ≡ 1 (mod p)`, so a 254-bit product reduces with two shifts
//! and adds. Elements are `u128` values in `[0, p)`.
//!
//! Exponentiation of a fixed base goes through a `Comb`: a table of the
//! base raised to every `w`-bit digit at every digit position, so `base^e`
//! costs one lookup per digit and one multiplication per non-zero digit.
//! The generator's 8-bit table ([`pow_g`]) is built once per process;
//! the bank builds a 4-bit table of its own public key
//! (`PublicKey::prepare`). Lookups are indexed by secret digits, so like
//! the rest of the crate they are not constant-time.

use std::sync::OnceLock;

/// The field modulus `p = 2¹²⁷ − 1` (Mersenne prime M127).
pub const P: u128 = (1u128 << 127) - 1;

/// Order of the full multiplicative group, `p − 1`.
pub const GROUP_ORDER: u128 = P - 1;

/// Generator used by the signature scheme. Schnorr verification holds for
/// any group element (exponent arithmetic is done mod `p − 1`, a multiple
/// of the element's order), so we simply pick a small non-trivial element.
pub const G: u128 = 7;

const MASK: u128 = P; // low 127 bits

/// Fold a value into `[0, p)` using `2¹²⁷ ≡ 1 (mod p)`.
#[inline]
fn fold(mut x: u128) -> u128 {
    // At most two folds are needed for inputs below 2^128.
    x = (x >> 127) + (x & MASK);
    x = (x >> 127) + (x & MASK);
    if x >= P {
        x - P
    } else {
        x
    }
}

/// Addition mod `p`.
#[inline]
pub fn add(a: u128, b: u128) -> u128 {
    debug_assert!(a < P && b < P);
    // a + b < 2^128: a single fold suffices.
    fold(a.wrapping_add(b))
}

/// Subtraction mod `p`.
#[inline]
pub fn sub(a: u128, b: u128) -> u128 {
    debug_assert!(a < P && b < P);
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// The 254-bit product `a·b = hi·2¹²⁸ + lo` of two values below `2¹²⁷`,
/// from four 64-bit limb products.
#[inline]
fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    debug_assert!(a >> 127 == 0 && b >> 127 == 0);
    let (a1, a0) = (a >> 64, a as u64 as u128);
    let (b1, b0) = (b >> 64, b as u64 as u128);
    // a1, b1 < 2^63, so each cross product is < 2^127 and their sum fits.
    let cross = a0 * b1 + a1 * b0;
    let (lo, carry) = (a0 * b0).overflowing_add(cross << 64);
    let hi = a1 * b1 + (cross >> 64) + carry as u128; // < 2^126
    (hi, lo)
}

/// Split a 254-bit product into `(high, low)` with `a·b = high·2¹²⁷ + low`
/// and both halves below `2¹²⁷`.
#[inline]
fn split_127((hi, lo): (u128, u128)) -> (u128, u128) {
    ((hi << 1) | (lo >> 127), lo & MASK)
}

/// Multiplication mod `p`: the 254-bit product folded once with
/// `2¹²⁷ ≡ 1 (mod p)`.
pub fn mul(a: u128, b: u128) -> u128 {
    debug_assert!(a < P && b < P);
    let (high, low) = split_127(wide_mul(a, b));
    // high + low < 2^128: a single fold.
    fold(high + low)
}

/// Exponentiation `base^exp mod p` by square-and-multiply.
pub fn pow(mut base: u128, mut exp: u128) -> u128 {
    debug_assert!(base < P);
    let mut acc: u128 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// A fixed-base comb table: `base^(j·2^(w·i))` for every `w`-bit digit `j`
/// at every digit position `i` of a 128-bit exponent.
#[derive(Clone)]
pub(crate) struct Comb {
    bits: u32,
    table: Box<[u128]>,
}

impl Comb {
    /// Table of `base` with `bits`-bit digits (`bits` divides 128):
    /// `128/bits · 2^bits` entries, built with as many multiplications.
    pub(crate) fn new(base: u128, bits: u32) -> Comb {
        debug_assert!(base < P && 128 % bits == 0);
        let width = 1usize << bits;
        let mut table = vec![0u128; (128 / bits) as usize * width].into_boxed_slice();
        let mut step = base; // base^(2^(bits·i)) for the current row
        for row in table.chunks_exact_mut(width) {
            row[0] = 1;
            for j in 1..width {
                row[j] = mul(row[j - 1], step);
            }
            step = mul(row[width - 1], step);
        }
        Comb { bits, table }
    }

    /// `base^exp mod p`: one multiplication per non-zero digit of `exp`.
    pub(crate) fn pow(&self, exp: u128) -> u128 {
        let width = 1usize << self.bits;
        let mask = width as u128 - 1;
        let mut acc: u128 = 1;
        for (i, row) in self.table.chunks_exact(width).enumerate() {
            let digit = ((exp >> (self.bits as usize * i)) & mask) as usize;
            if digit != 0 {
                acc = mul(acc, row[digit]);
            }
        }
        acc
    }
}

/// `G^exp mod p` through the generator's 8-bit comb (16 × 256 entries,
/// 64 KiB, built on first use): at most 15 multiplications.
pub fn pow_g(exp: u128) -> u128 {
    static G_COMB: OnceLock<Comb> = OnceLock::new();
    G_COMB.get_or_init(|| Comb::new(G, 8)).pow(exp)
}

/// Multiplication in the exponent ring `Z_{p−1}`: the 254-bit product
/// folded with `2¹²⁷ ≡ 2 (mod p−1)`.
pub fn scalar_mul(a: u128, b: u128) -> u128 {
    let m = GROUP_ORDER;
    let (high, low) = split_127(wide_mul(a % m, b % m));
    // a, b < m = 2^127 − 2 puts high below 2^127 − 5 < m; low may reach m.
    addmod(addmod(high, high, m), reduce_once(low, m), m)
}

/// `x mod m` for `x < 2m`.
#[inline]
fn reduce_once(x: u128, m: u128) -> u128 {
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Subtraction in `Z_{p−1}`.
pub fn scalar_sub(a: u128, b: u128) -> u128 {
    let (a, b) = (a % GROUP_ORDER, b % GROUP_ORDER);
    if a >= b {
        a - b
    } else {
        a + GROUP_ORDER - b
    }
}

#[inline]
fn addmod(a: u128, b: u128, m: u128) -> u128 {
    debug_assert!(a < m && b < m);
    // m < 2^127 so a + b < 2^128: no overflow.
    reduce_once(a + b, m)
}

/// Interpret 16 big-endian bytes as a field element (reduced mod p).
pub fn from_bytes(bytes: &[u8; 16]) -> u128 {
    fold(u128::from_be_bytes(*bytes))
}

/// Serialize a field element as 16 big-endian bytes.
pub fn to_bytes(x: u128) -> [u8; 16] {
    x.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::check::{check, Gen};

    /// Shift-and-add `a·b mod m` (the `scalar_mul` that folding replaced),
    /// a reference that shares no code with the limb products.
    fn mul_reference(a: u128, b: u128, m: u128) -> u128 {
        let (mut a, mut b) = (a % m, b % m);
        let mut acc: u128 = 0;
        while b > 0 {
            if b & 1 == 1 {
                acc = addmod(acc, a, m);
            }
            a = addmod(a, a, m);
            b >>= 1;
        }
        acc
    }

    /// A uniform 128-bit draw, or one of the edge values.
    fn wide(g: &mut Gen, edges: &[u128]) -> u128 {
        if g.ratio(1, 4) {
            *g.choose(edges)
        } else {
            (g.u64() as u128) << 64 | g.u64() as u128
        }
    }

    #[test]
    fn fold_reduces_correctly() {
        assert_eq!(fold(P), 0);
        assert_eq!(fold(P + 1), 1);
        assert_eq!(fold(0), 0);
        assert_eq!(fold(u128::MAX), u128::MAX - 2 * P); // 2^128−1 = 2p+1 → 1
        assert_eq!(fold(u128::MAX), 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = P - 5;
        let b = 123456789u128;
        let s = add(a, b);
        assert_eq!(sub(s, b), a);
        assert_eq!(sub(s, a), b);
        assert_eq!(add(P - 1, 1), 0);
    }

    #[test]
    fn mul_small_values() {
        assert_eq!(mul(3, 4), 12);
        assert_eq!(mul(0, 99), 0);
        assert_eq!(mul(1, P - 1), P - 1);
    }

    #[test]
    fn mul_wraparound_identities() {
        // (p−1)² ≡ 1 (mod p) since p−1 ≡ −1.
        assert_eq!(mul(P - 1, P - 1), 1);
        // (p−2)·2 = 2p−4 ≡ p−4.
        assert_eq!(mul(P - 2, 2), P - 4);
    }

    #[test]
    fn mul_matches_naive_for_64bit_inputs() {
        // For inputs < 2^63 the product fits u128 and we can check directly.
        let cases = [
            (0x1234_5678_9abc_def0u128, 0x0fed_cba9_8765_4321u128),
            ((1u128 << 62) + 12345, (1u128 << 62) + 67890),
            (999_999_999_999u128, 888_888_888_888u128),
        ];
        for (a, b) in cases {
            assert_eq!(mul(a, b), (a * b) % P, "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn mul_is_commutative_and_associative_spotcheck() {
        let xs = [
            P - 1,
            P / 2,
            0xdead_beef_dead_beef_dead_beef_dead_beefu128 % P,
            12345,
            (1u128 << 126) + 999,
        ];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &xs {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_law_spotcheck() {
        let a = P - 12345;
        let b = (1u128 << 100) + 77;
        let c = (1u128 << 120) + 3;
        assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(2, 10), 1024);
        assert_eq!(pow(5, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(1, u128::MAX >> 1), 1);
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p−1) ≡ 1 for a ≠ 0.
        for a in [2u128, 3, 7, 1234567, P - 2] {
            assert_eq!(pow(a, GROUP_ORDER), 1, "a={a}");
        }
    }

    #[test]
    fn pow_adds_exponents() {
        let a = 987654321u128;
        let x = 0xabcdefu128;
        let y = 0x123456u128;
        assert_eq!(mul(pow(a, x), pow(a, y)), pow(a, x + y));
    }

    #[test]
    fn scalar_ring_ops() {
        assert_eq!(scalar_sub(1, 2), GROUP_ORDER - 1);
        assert_eq!(scalar_mul(3, 5), 15);
        // (m−1)² mod m = 1
        assert_eq!(scalar_mul(GROUP_ORDER - 1, GROUP_ORDER - 1), 1);
    }

    #[test]
    fn folding_products_match_shift_and_add() {
        // 2·(2^126 − 1) = p − 1: a product whose low half equals the modulus.
        let edges = [0, 1, 2, (1 << 126) - 1, GROUP_ORDER - 1, GROUP_ORDER, P, u128::MAX, 1 << 64];
        let same = |a: u128, b: u128| {
            let want = mul_reference(a, b, GROUP_ORDER);
            assert_eq!(scalar_mul(a, b), want, "scalar a={a:#x} b={b:#x}");
            let (a, b) = (a % P, b % P);
            assert_eq!(mul(a, b), mul_reference(a, b, P), "field a={a:#x} b={b:#x}");
        };
        for &a in &edges {
            for &b in &edges {
                same(a, b);
            }
        }
        check("folding_products_match_shift_and_add", 512, |g| {
            same(wide(g, &edges), wide(g, &edges))
        });
    }

    #[test]
    fn generator_comb_matches_square_and_multiply() {
        let edges = [0, 1, 2, 255, 256, P - 2, u128::MAX];
        for &e in &edges {
            assert_eq!(pow_g(e), pow(G, e), "e={e:#x}");
        }
        check("generator_comb_matches_square_and_multiply", 256, |g| {
            let e = wide(g, &edges) % GROUP_ORDER;
            assert_eq!(pow_g(e), pow(G, e), "e={e:#x}");
        });
    }

    #[test]
    fn key_comb_matches_square_and_multiply() {
        let exps = [0, 1, 2, 15, 16, P - 2, u128::MAX];
        for y in [1, 2, P - 1] {
            let comb = Comb::new(y, 4);
            for &e in &exps {
                assert_eq!(comb.pow(e), pow(y, e), "y={y:#x} e={e:#x}");
            }
        }
        check("key_comb_matches_square_and_multiply", 64, |g| {
            let y = wide(g, &[1, 2, P - 1]) % P;
            let comb = Comb::new(y, 4);
            for _ in 0..8 {
                let e = wide(g, &exps) % GROUP_ORDER;
                assert_eq!(comb.pow(e), pow(y, e), "y={y:#x} e={e:#x}");
            }
        });
    }

    #[test]
    fn schnorr_core_identity() {
        // g^s·y^e == g^k where s = k − e·x (mod p−1), y = g^x.
        let x = 0x1111_2222_3333_4444_5555u128;
        let k = 0x9999_8888_7777_6666u128;
        let e = 0xabcd_ef01_2345u128;
        let y = pow(G, x);
        let s = scalar_sub(k, scalar_mul(e, x));
        let lhs = mul(pow(G, s), pow(y, e));
        let rhs = pow(G, k);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bytes_roundtrip() {
        let x = (1u128 << 126) + 424242;
        assert_eq!(from_bytes(&to_bytes(x)), x);
        // Values ≥ p wrap on decode.
        assert_eq!(from_bytes(&to_bytes(P)), 0);
    }
}
